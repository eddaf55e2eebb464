"""Interleaved parent/change runs of the benchmark, and their verdict.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --pairs N --seconds S --seed0 K

Each directory is a checkout holding ``BENCHMARK.json`` and the benchmark
it names.  Pair i runs the benchmark command with ``--workload W --seed
K+i --seconds S --trace 0`` once in each checkout, the parent first on
even i and the change first on odd i, and reads the result object from
the last line the run prints.  For each end-to-end metric of the parent's
``BENCHMARK.json`` it then prints both sides' medians and quartiles, the
pairs the change wins by the metric's ``better`` direction (ties count
for neither side), and whether the pairs show a gain: the change wins at
least nine pairs in ten, and its median is better than the parent's by
more than the parent's interquartile range.  Failed and attempted rows
are summed per side.  The last line repeats the verdict as one JSON
object, ``{W: block}``, where the block holds the pairs, seconds and
first and last seed, each metric's direction, both sides' median and
quartiles (6 significant digits), the change's wins and whether a gain
was shown, and the failed/attempted rows per side: the layout of a
workload in the ``BENCH_<n>.json`` records.

The two checkouts must be alike in one respect the benchmark cannot see:
a tree holding ``src/qtransistor/__pycache__`` skips compiling the
package, so it starts sooner and peaks lower.  When exactly one of them
holds it, the script runs nothing and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """Result object of one benchmark run in ``checkout``."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def verdict(pairs: list, end_to_end: list) -> dict:
    """Per-metric verdict and failed/attempted rows for ``pairs`` of
    (parent, change) result objects."""
    metrics = {}
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        sign = 1.0 if better == "higher" else -1.0
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        (q1, med, q3), (c1, cmed, c3) = _quartiles(old), _quartiles(new)
        metrics[name] = {
            "better": better,
            "parent": {"median": _sig(med), "quartiles": [_sig(q1), _sig(q3)]},
            "change": {"median": _sig(cmed),
                       "quartiles": [_sig(c1), _sig(c3)]},
            "change_wins": wins,
            "gain_shown": bool(10 * wins >= 9 * len(pairs)
                               and sign * (cmed - med) > q3 - q1),
        }
    failed_rows = {
        label: f"{sum(pair[side]['failed'] for pair in pairs)}/"
               f"{sum(pair[side]['attempted'] for pair in pairs)}"
        for side, label in ((0, "parent"), (1, "change"))}
    return {"metrics": metrics, "failed_rows": failed_rows}


def summarize(pairs: list, end_to_end: list) -> list:
    """Verdict lines for ``pairs`` of (parent, change) result objects."""
    record = verdict(pairs, end_to_end)
    lines = []
    for name, m in record["metrics"].items():
        (q1, q3), (c1, c3) = m["parent"]["quartiles"], m["change"]["quartiles"]
        lines.append(
            f"{name} ({m['better']} is better): parent "
            f"{m['parent']['median']:.6g} [{q1:.6g}, {q3:.6g}] -> change "
            f"{m['change']['median']:.6g} [{c1:.6g}, {c3:.6g}]; change wins "
            f"{m['change_wins']}/{len(pairs)}; gain "
            + ("shown" if m["gain_shown"] else "not shown"))
    lines += [f"{label}: {rows} rows failed"
              for label, rows in record["failed_rows"].items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    cached = [(checkout / "src" / "qtransistor" / "__pycache__").is_dir()
              for checkout in (args.parent, args.change)]
    if cached[0] != cached[1]:
        print(f"bench_pairs: only the {('parent', 'change')[cached[1]]} "
              "checkout holds src/qtransistor/__pycache__, which makes its "
              "runs start sooner and peak lower; remove it or compile both",
              file=sys.stderr)
        return 2
    bench = json.loads((args.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))

    pairs = []
    for i in range(args.pairs):
        seed, order = args.seed0 + i, (0, 1) if i % 2 == 0 else (1, 0)
        runs = [None, None]
        for side in order:
            runs[side] = run_once((args.parent, args.change)[side],
                                  bench["command"], args.workload, seed,
                                  args.seconds)
        pairs.append(tuple(runs))
        values = ", ".join(
            f"{name} {runs[0]['metrics'][name]['value']:.6g} -> "
            f"{runs[1]['metrics'][name]['value']:.6g}"
            for name in (m["name"] for m in bench["end_to_end"]))
        print(f"pair {i + 1}/{args.pairs}, seed {seed}, "
              f"{('parent', 'change')[order[0]]} first: {values}",
              flush=True)
    print("\n".join(summarize(pairs, bench["end_to_end"])))
    block = {"pairs": args.pairs, "seconds": args.seconds,
             "seeds": [args.seed0, args.seed0 + args.pairs - 1],
             **verdict(pairs, bench["end_to_end"])}
    print(json.dumps({args.workload: block}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
