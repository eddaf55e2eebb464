"""Fast self-check of the benchmark harness (about half a minute).

    python3 perfbench/smoke.py

Runs every workload on a tiny grid, traced and untraced, and checks that
every metric named in BENCHMARK.json is reported, that the untouched
output passes the gate, and that the gate trips on a corrupted table and
on a table that differs between repeated runs.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

BATHS = {"T_L": 4.02, "T_R": 9.97}
TINY = {
    "coupling_sweep": workloads.sweep_inputs("g", 3.9, 0.05, 2, 1.0, BATHS),
    "temperature_sweep": workloads.sweep_inputs("T_M", 5.0, 0.5, 2, 1.0,
                                                BATHS),
    "time_sweep": workloads.sweep_inputs("t", 0.49, 0.01, 2, 0.0, BATHS),
    "backflow": workloads.backflow_inputs(
        BATHS, 0.5, ("grid_theta=4", "grid_phi=6")),
}


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"smoke: FAIL {what}")
        sys.exit(1)
    print(f"smoke: ok   {what}")


def corrupt_cell(out_dir: Path, value: str) -> None:
    """Change the second column of the last row of the first table; the
    sweep gate recomputes every row of a two-row tiny grid."""
    path = sorted(out_dir.glob("*.csv"))[0]
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[1] = value or f"{float(cells[1]) + 1e-6:.11e}"
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    if not (run.SRC / "qtransistor" / "cli.py").is_file():
        print(f"smoke: no program source at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import gate
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json names every workload")
    run.OUT.mkdir(exist_ok=True)
    for name, inputs in TINY.items():
        work = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.OUT))
        try:
            procs = run.measure(inputs, work, 0.0, trace=True)
            expect(set(run.end_to_end(inputs, procs)) == e2e,
                   f"{name}: every end-to-end metric reported")
            expect(set(run.per_layer(inputs, procs)) == layers,
                   f"{name}: every per-layer metric reported")
            verdict = run.judge(name, 0, inputs, procs)
            expect(verdict["correct"] and verdict["failed"] == 0,
                   f"{name}: untouched output passes the gate")
            corrupt_cell(procs[1].out_dir, "")
            verdict = run.judge(name, 0, inputs, procs)
            expect(verdict["failed"] == inputs.expected_rows,
                   f"{name}: a table differing between runs is caught")
            corrupt_cell(procs[0].out_dir,
                         "" if inputs.axis else "-1.0e+00")
            misses, _ = gate.check(inputs, gate.read_tables(procs[0].out_dir),
                                   random.Random(0))
            expect(bool(misses), f"{name}: the gate trips on a corrupted "
                   "value")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
