"""The gate-margin script on one temperature-sweep seed."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "gate_margin.py"


def run(*args):
    done = subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def test_one_seed_stays_inside_the_gate():
    # seed 54's grid starts at T_M = 4.000004, where the stencil's h^4
    # truncation is largest
    code, out, err = run("temperature_sweep", "54", "54")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith("seed 54: max|ddJ| = ")
    # the reference agreed with the gate's brute force on its own rows
    assert "reference gap" in lines[0]
    margins = [float(m) for m in re.findall(r"margin (-?[\d.]+)%", out)]
    assert len(margins) == 2 and all(m > 0.0 for m in margins)


def test_a_workload_without_a_sweep_is_refused():
    code, _, err = run("backflow", "1", "1")
    assert code == 2 and "not a sweep workload" in err
