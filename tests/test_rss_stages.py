"""The per-stage peak-memory script, on a two-point sweep."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "rss_stages.py"

# a fresh interpreter, so that the stages are those of one run alone
PROBE = """
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("rss_stages", sys.argv[1])
rss_stages = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rss_stages)
sys.path.insert(0, str(rss_stages.ROOT / "perfbench"))
import workloads
inputs = rss_stages.with_pairs(
    workloads.sweep_inputs("T_M", 4.0, 0.25, 2, 1.0, {"T_L": 4.0}),
    sys.argv[3:])
stages = rss_stages.run_stages(inputs, Path(sys.argv[2]))
print(json.dumps(stages))
"""


needs_vmhwm = pytest.mark.skipif(
    not Path("/proc/self/status").exists(),
    reason="VmHWM is read from /proc/self/status")


def run_probe(out: Path, *pairs: str) -> list:
    done = subprocess.run([sys.executable, "-c", PROBE, str(SCRIPT),
                           str(out), *pairs], capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@needs_vmhwm
def test_stages_of_a_tiny_sweep(tmp_path):
    stages = run_probe(tmp_path)
    assert [name for name, _ in stages] == [
        "interpreter start", "import numpy", "import qtransistor.cli",
        "after compute", "after the tables"]
    assert all(list(mb) == ["VmHWM", "RssAnon", "RssFile"]
               for _, mb in stages)
    peaks = [mb["VmHWM"] for _, mb in stages]
    assert peaks[0] > 0.0 and peaks == sorted(peaks)
    # the pages resident now are at most the peak, and some are of each kind
    for _, mb in stages:
        assert mb["RssAnon"] > 0.0 and mb["RssFile"] > 0.0
        assert mb["RssAnon"] + mb["RssFile"] <= mb["VmHWM"] + 0.01
    lines = (tmp_path / "out" / "sweep_T_M.csv").read_text(
        encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2
    assert (tmp_path / "out" / "manifest.json").exists()


@needs_vmhwm
def test_extra_pairs_are_set_after_the_workload_s_own(tmp_path):
    # the workload sets T_L = 4.0; the extra pair follows it and wins
    run_probe(tmp_path, "T_L=3.5")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(
        encoding="utf-8"))
    assert manifest["parameters"]["overrides"]["T_L"] == 3.5


@needs_vmhwm
def test_the_printed_table_has_a_column_per_field():
    done = subprocess.run([sys.executable, str(SCRIPT), "temperature_sweep",
                           "1"], capture_output=True, text=True, check=True)
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["stage", "(MB)", "VmHWM", "RssAnon",
                              "RssFile"]
    assert [row[:24].strip() for row in rows] == [
        "interpreter start", "import numpy", "import qtransistor.cli",
        "after compute", "after the tables"]
    for row in rows:
        peak, anon, mapped = (float(x) for x in row[24:].split())
        # three values, each rounded to 0.01
        assert anon + mapped <= peak + 0.02


def test_usage_without_two_arguments():
    done = subprocess.run([sys.executable, str(SCRIPT), "backflow"],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 2
    assert "rss_stages.py WORKLOAD SEED" in done.stderr
