"""The table-diff script on two small output directories."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "compare_tables.py"

HEADER = "# t(t̃),alpha_L(dimensionless),error\n"


def run(old, new):
    done = subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout


def write(directory, name, text):
    path = directory / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_one_changed_cell_is_reported_with_its_column(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    same = HEADER + "1.0e-01,2.0e+00,\n"
    for d in (old, new):
        write(d, "a/same.csv", same)
    write(old, "b.csv", HEADER + "1.0e-01,2.0e+00,\n2.0e-01,nan,boom\n")
    write(new, "b.csv", HEADER + "1.0e-01,2.5e+00,\n2.0e-01,nan,boom\n")
    code, out = run(old, new)
    assert code == 0
    assert "a/same.csv: byte-identical" in out
    assert "b.csv:\n  alpha_L(dimensionless): max|d| = 5.000e-01, " \
        "max|d|/|old| = 2.500e-01\n" in out
    assert "t(t̃)" not in out and "error:" not in out


def test_different_columns_or_files_exit_nonzero(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write(old, "b.csv", HEADER + "1.0e-01,2.0e+00,\n")
    write(new, "b.csv", "# t(t̃),alpha_R(dimensionless),error\n"
          "1.0e-01,2.0e+00,\n")
    code, out = run(old, new)
    assert code == 1 and "columns differ" in out
    write(new, "b.csv", HEADER + "1.0e-01,2.0e+00,\n")
    write(new, "extra.csv", HEADER)
    code, out = run(old, new)
    assert code == 1 and "extra.csv: only in" in out


def test_direction_gives_the_signed_extreme_and_the_cells_that_moved(
        tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write(old, "b.csv", HEADER + "1.0e-01,2.0e+00,\n2.0e-01,1.0e+00,\n"
          "3.0e-01,4.0e+00,\n4.0e-01,nan,\n")
    write(new, "b.csv", HEADER + "1.0e-01,2.5e+00,\n2.0e-01,1.0e+00,\n"
          "3.0e-01,3.0e+00,\n4.0e-01,nan,\n")
    code, out = run(old, new)
    assert code == 0
    assert "  alpha_L(dimensionless): max|d| = 1.000e+00, " \
        "max|d|/|old| = 2.500e-01\n" \
        "    direction: extreme new - old = -1.000e+00, 1 rose, 1 fell\n" \
        in out


def test_manifests_are_compared_key_by_key_apart_from_run_stamps(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    base = {"generated_at": "2026-01-01T00:00:00+00:00",
            "duration_seconds": 1.5,
            "parameters": {"overrides": {"g": 3.5}, "workers": 1},
            "files": {"b.csv": {"sha256": "aa", "bytes": 10}}}

    def manifests(changed):
        write(old, "run/manifest.json", json.dumps(base))
        write(new, "run/manifest.json", json.dumps({**base, **changed}))
        return run(old, new)

    code, out = manifests({"generated_at": "2026-01-02T00:00:00+00:00",
                           "duration_seconds": 2.0})
    assert code == 0
    assert "run/manifest.json: equal apart from generated_at, " \
        "duration_seconds\n" in out
    # digests follow the CSV bytes: reported, not a different run
    code, out = manifests({"files": {"b.csv": {"sha256": "bb",
                                               "bytes": 10}}})
    assert code == 0
    assert "run/manifest.json: keys differ: files.b.csv.sha256\n" in out
    code, out = manifests({"parameters": {"overrides": {"g": 4.0},
                                          "boundary": "right"}})
    assert code == 1
    assert "run/manifest.json: keys differ: parameters.boundary, " \
        "parameters.overrides.g, parameters.workers\n" in out
    (new / "run" / "manifest.json").unlink()
    code, out = run(old, new)
    assert code == 1 and "run/manifest.json: only in" in out
