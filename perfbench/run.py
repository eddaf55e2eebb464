"""qtransistor benchmark: command-line workloads, a correctness gate, a trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs (an INI file plus
``--set`` pairs) are generated from the seed, then ``qtransistor run`` is
started again and again, each time in a fresh process, until the time is
up (at least three processes).  Each process is timed from the outside:
wall time, CPU time and peak RSS from ``wait4``, set-up time up to its first
compute call.  Medians over the processes are reported.

Correctness: every process must write byte-identical tables, and the
tables pass the brute-force gate in ``gate.py``.  ``failed`` counts rows
with an error cell or a gate miss (all rows of a process whose output
differs or that did not finish); ``failed / attempted`` is the error rate.

With ``--trace 1`` every second process runs traced (see ``child.py``);
the per-layer metrics come from the traced processes, and the tracing
overhead is the difference in points_per_s between untraced and traced
processes of the same run.  A JSON record of each run, with the
environment, is left in ``perfbench/out``.  The last line on standard
output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import workloads
from child import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROCESS_TIMEOUT_S = 120.0


@dataclass
class Process:
    """One fresh ``qtransistor run`` process, measured from outside."""

    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    exit_code: int
    out_dir: Path
    report: dict


def launch(inputs: workloads.Inputs, ini: Path, work: Path, index: int,
           traced: bool) -> Process:
    out_dir, report = work / f"out{index}", work / f"report{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(report),
           "1" if traced else "0", *inputs.argv(str(ini), str(out_dir))]
    with open(work / f"stderr{index}.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(report.read_text()) if report.exists() else {}
    first = data.get("first_compute")
    return Process(
        traced=traced, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=(first - start) if first is not None else wall,
        exit_code=proc.returncode, out_dir=out_dir, report=data)


def measure(inputs: workloads.Inputs, work: Path, seconds: float,
            trace: bool) -> List[Process]:
    """Fresh processes back to back until the next would overrun."""
    ini = work / "run.ini"
    ini.write_text(inputs.ini, encoding="utf-8")
    deadline = time.monotonic() + seconds
    done: List[Process] = []
    minimum = 4 if trace else 3
    while True:
        traced = trace and len(done) % 2 == 1
        done.append(launch(inputs, ini, work, len(done), traced))
        if len(done) >= minimum and \
                time.monotonic() + done[-1].wall_s > deadline:
            return done


def tables_digest(out_dir: Path) -> Optional[str]:
    paths = sorted(out_dir.glob("*.csv"))
    if not paths:
        return None
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def judge(name: str, seed: int, inputs: workloads.Inputs,
          runs: List[Process]) -> dict:
    """Count attempted and failed rows over every process; run the gate."""
    import gate
    reference = next((p for p in runs if p.exit_code in (0, 1)
                      and tables_digest(p.out_dir)), None)
    notes: List[str] = []
    bad_rows = set()
    digest = None
    if reference is not None:
        digest = tables_digest(reference.out_dir)
        try:
            tables = gate.read_tables(reference.out_dir)
            rows = sum(len(r) for _, r in tables.values())
            if rows != inputs.expected_rows:
                raise ValueError(f"{rows} rows written, "
                                 f"{inputs.expected_rows} expected")
            bad_rows, notes = gate.check(
                inputs, tables, random.Random(f"gate:{name}:{seed}"))
            bad_rows |= {(stem, i) for stem, (_, r) in tables.items()
                         for i, cells in enumerate(r) if cells[-1]}
        except (KeyError, IndexError, ValueError) as exc:
            # tables missing, misshapen or unparseable: nothing passes
            notes.append(f"tables rejected: {exc!r}")
            digest = None
    failed = 0
    for p in runs:
        same = digest is not None and p.exit_code in (0, 1) and \
            tables_digest(p.out_dir) == digest
        failed += len(bad_rows) if same else inputs.expected_rows
        if not same:
            notes.append(f"process exit {p.exit_code}: tables missing, "
                         "incomplete or not byte-identical across runs")
    attempted = inputs.expected_rows * len(runs)
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0, "tables_sha256": digest, "notes": notes}


def end_to_end(inputs: workloads.Inputs, runs: List[Process]) -> dict:
    rows = inputs.expected_rows
    return {
        "setup_s": (median([p.setup_s for p in runs]), "s"),
        "points_per_s": (median([rows / p.wall_s for p in runs]), "1/s"),
        "cpu_s_per_point": (median([p.cpu_s / rows for p in runs]), "s"),
        "peak_rss_mb": (median([p.peak_rss_mb for p in runs]), "MB"),
    }


def layer_table(report: dict) -> Dict[str, List[float]]:
    """Per span name: [calls, self seconds]; self = span minus children."""
    spans = report.get("spans", [])  # none if the process crashed
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {name: [0, 0.0] for name in LAYERS}
    for (name, start, end, _), inner in zip(spans, child_time):
        table[name][0] += 1
        table[name][1] += end - start - inner
    return table


def per_layer(inputs: workloads.Inputs, runs: List[Process]) -> dict:
    traced = [p for p in runs if p.traced]
    plain = [p for p in runs if not p.traced]
    rows = inputs.expected_rows
    tables = [layer_table(p.report) for p in traced]
    wall = sum(p.wall_s for p in traced)
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (
            median([t[name][0] for t in tables]), "count")
        out[f"{name}.self_pct"] = (
            100.0 * sum(t[name][1] for t in tables) / wall, "%")
    first = traced[0].report
    out["engine.samples_used_ratio"] = (
        first.get("samples_read", 0) / max(1, first.get("samples_computed",
                                                         0)), "ratio")
    out["engine.core_hit_ratio"] = (
        1.0 - first.get("core_eighs", 0)
        / max(1, tables[0]["engine.Propagator"][0]), "ratio")
    out["metrics.evolves_per_point"] = (
        tables[0]["engine.evolve"][0] / rows, "evolves/point")
    out["trace.overhead_points_per_s"] = (
        median([rows / p.wall_s for p in plain])
        - median([rows / p.wall_s for p in traced]), "1/s")
    return out


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: os.environ[k] for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "library default (no thread variable "
                                   "set)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qtransistor" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'qtransistor'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    inputs = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runs = measure(inputs, work, args.seconds, bool(args.trace))
        verdict = judge(args.workload, args.seed, inputs, runs)
        metrics = per_layer(inputs, runs) if args.trace \
            else end_to_end(inputs, runs)
        traced = [p for p in runs if p.traced]
        layers = layer_table(traced[0].report) if traced else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    error_rate = verdict["failed"] / verdict["attempted"]
    lines = [f"env {json.dumps(env)}",
             f"{args.workload} seed={args.seed}: {len(runs)} processes "
             f"({len(traced)} traced), {inputs.expected_rows} rows each"]
    lines += [f"gate: {note}" for note in verdict["notes"]]
    lines.append(f"error_rate = {error_rate:.6g} ratio "
                 f"({verdict['failed']}/{verdict['attempted']} rows)")
    lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    if layers:
        lines.append("layer self time in the first traced process:")
        lines += [f"  {k:<32} {c:>6} calls {s:9.4f} s"
                  for k, (c, s) in layers.items()]
    print("\n".join(lines))

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "inputs": {"ini": inputs.ini, "sets": list(inputs.sets)},
        "verdict": verdict, "error_rate": error_rate,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "processes": [
            {"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "peak_rss_mb": p.peak_rss_mb, "setup_s": p.setup_s,
             "exit_code": p.exit_code} for p in runs],
        "spans": traced[0].report.get("spans") if traced else None,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
