"""The verdict of the interleaved benchmark-pairs script, on canned runs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "points_per_s", "better": "higher"},
              {"name": "peak_rss_mb", "better": "lower"}]


def result(points, rss, failed=0):
    return {"attempted": 10, "failed": failed,
            "metrics": {"points_per_s": {"value": points, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_nine_wins_in_ten_and_a_gap_beyond_the_iqr_show_a_gain():
    old = [30.0, 31.0, 32.0, 33.0, 34.0, 35.0, 36.0, 37.0, 38.0, 39.0]
    new = [45.0] * 9 + [30.0]  # the last pair is a tie
    pairs = [(result(a, 48.0), result(b, 48.0 + 0.1 * (i % 2)))
             for i, (a, b) in enumerate(zip(old, new))]
    points, rss, parent, change = bench_pairs.summarize(pairs, END_TO_END)
    assert points == ("points_per_s (higher is better): parent 34.5 "
                      "[32.25, 36.75] -> change 45 [45, 45]; change wins "
                      "9/10; gain shown")
    # a higher memory reading loses; ties count for neither side
    assert rss.endswith("change wins 0/10; gain not shown")
    assert parent == "parent: 0/100 rows failed"
    assert change == "change: 0/100 rows failed"


def test_too_few_wins_or_a_gap_inside_the_iqr_show_no_gain():
    eight = [(result(30.0, 50.0), result(40.0 if i < 8 else 20.0, 40.0))
             for i in range(10)]
    points, rss, _, _ = bench_pairs.summarize(eight, END_TO_END)
    assert points.endswith("change wins 8/10; gain not shown")
    assert rss.endswith("change wins 10/10; gain shown")
    # every pair won, but by less than the parent's own spread
    wide = [(result(30.0 + 4 * i, 50.0), result(30.5 + 4 * i, 50.0, 1))
            for i in range(10)]
    points, _, parent, change = bench_pairs.summarize(wide, END_TO_END)
    assert points.endswith("change wins 10/10; gain not shown")
    assert (parent, change) == ("parent: 0/100 rows failed",
                                "change: 10/100 rows failed")


def checkouts(tmp_path, cached):
    dirs = []
    for side, has_cache in zip(("parent", "change"), cached):
        package = tmp_path / side / "src" / "qtransistor"
        package.mkdir(parents=True)
        if has_cache:
            (package / "__pycache__").mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"command": ["true"], "end_to_end": END_TO_END}))
        dirs.append(str(tmp_path / side))
    return dirs + ["--workload", "backflow", "--pairs", "2", "--seconds",
                   "1", "--seed0", "1"]


def test_checkouts_unlike_in_their_bytecode_cache_are_refused(
        tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark was started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    assert bench_pairs.main(checkouts(tmp_path, (False, True))) == 2
    assert "only the change checkout holds src/qtransistor/__pycache__" \
        in capsys.readouterr().err


def test_checkouts_alike_in_their_bytecode_cache_are_run(tmp_path,
                                                         monkeypatch):
    runs = []

    def canned(checkout, *args):
        runs.append(Path(checkout).name)
        return result(30.0, 48.0)

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    for i, cached in enumerate(((False, False), (True, True))):
        assert bench_pairs.main(checkouts(tmp_path / str(i), cached)) == 0
    # the parent goes first on even pairs, the change on odd ones
    assert runs == ["parent", "change", "change", "parent"] * 2


def test_the_json_line_repeats_the_text_verdict(tmp_path, monkeypatch,
                                                capsys):
    # in call order: the parent goes first on even pairs
    values = iter([30.0, 31.0, 29.5, 33.25, 30.0, 30.0, 28.0, 35.0])

    def canned(checkout, command, workload, seed, seconds):
        return result(next(values), 48.0 + seed, failed=seed % 2)

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    args = checkouts(tmp_path, (False, False))
    args[args.index("--pairs") + 1] = "4"
    assert bench_pairs.main(args) == 0
    *_, points, rss, parent, change, last = \
        capsys.readouterr().out.splitlines()
    assert points == ("points_per_s (higher is better): parent 31.625 "
                      "[30, 33.6875] -> change 29.75 [29.125, 30.25]; "
                      "change wins 1/4; gain not shown")
    assert rss.endswith("change wins 0/4; gain not shown")
    assert (parent, change) == ("parent: 2/40 rows failed",
                                "change: 2/40 rows failed")
    assert json.loads(last) == {"backflow": {
        "pairs": 4, "seconds": 1.0, "seeds": [1, 4],
        "metrics": {
            "points_per_s": {
                "better": "higher",
                "parent": {"median": 31.625, "quartiles": [30.0, 33.6875]},
                "change": {"median": 29.75, "quartiles": [29.125, 30.25]},
                "change_wins": 1, "gain_shown": False},
            "peak_rss_mb": {
                "better": "lower",
                "parent": {"median": 50.5, "quartiles": [49.75, 51.25]},
                "change": {"median": 50.5, "quartiles": [49.75, 51.25]},
                "change_wins": 0, "gain_shown": False}},
        "failed_rows": {"parent": "2/40", "change": "2/40"}}}
