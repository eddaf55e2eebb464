"""Peak resident memory of one ``qtransistor run`` process, stage by stage.

    python scripts/rss_stages.py WORKLOAD SEED [KEY=VALUE ...]

Generates the program inputs of benchmark workload WORKLOAD for SEED with
``perfbench/workloads.py``, appends each KEY=VALUE as a ``--set`` pair
after the workload's own (``backflow 905 t_max=6`` runs fig12 up to
t = 6), and runs them in this one fresh process, as
``qtransistor run`` would: import numpy, import ``qtransistor.cli``,
compute the tables, then write them and their manifest into a temporary
directory.  After each stage, the interpreter's start included, it prints
the stage, the process's peak resident memory so far (``VmHWM``), and
its resident memory now split into anonymous pages (``RssAnon``: heap,
arrays, stacks) and file-backed ones (``RssFile``: the mapped code and
data of the interpreter and its libraries), all read from
``/proc/self/status`` (so Linux only), in MB of 2^20 bytes, the unit of
the benchmark's ``peak_rss_mb``.  A saving in ``RssFile`` is library code
a run no longer touches; one in ``RssAnon`` is memory it no longer
allocates.

Importing ``qtransistor`` first sets ``OPENBLAS_NUM_THREADS=1`` unless it
is exported; numpy is imported first here, so the script applies the same
default before that import, and the process runs BLAS as a command-line
run does.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


COLUMNS = ("VmHWM", "RssAnon", "RssFile")


def memory_mb() -> dict:
    """``COLUMNS`` of this process's ``/proc/self/status``, each in MB of
    2^20 bytes."""
    out = {}
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            name, _, value = line.partition(":")
            if name in COLUMNS:
                out[name] = int(value.split()[0]) / 1024.0
    missing = [name for name in COLUMNS if name not in out]
    if missing:
        raise OSError(f"no {', '.join(missing)} in /proc/self/status")
    return out


def with_pairs(inputs, pairs):
    """``inputs`` (a ``workloads.Inputs``) with the ``--set`` pairs
    ``pairs`` after its own, so that they win."""
    return dataclasses.replace(inputs, sets=inputs.sets + tuple(pairs))


def run_stages(inputs, out_dir: Path) -> list:
    """Run ``inputs`` (a ``workloads.Inputs``) with its tables written
    under ``out_dir``: [(stage, ``memory_mb()``)] after each stage."""
    stages = [("interpreter start", memory_mb())]
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy  # noqa: F401
    stages.append(("import numpy", memory_mb()))
    sys.path.insert(0, str(ROOT / "src"))
    from qtransistor import cli
    from qtransistor.config import manifest_parameters, run_tables
    from qtransistor.output import write_manifest, write_table
    stages.append(("import qtransistor.cli", memory_mb()))

    ini = out_dir / "run.ini"
    ini.write_text(inputs.ini, encoding="utf-8")
    args = cli._build_parser().parse_args(
        inputs.argv(str(ini), str(out_dir / "out")))
    t0 = time.perf_counter()
    rc = cli._load_run_config(args)
    tables = run_tables(rc)
    stages.append(("after compute", memory_mb()))
    out = cli._resolve_out_dir(rc)
    paths = [write_table(tb, out) for tb in tables]
    write_manifest(out, parameters=manifest_parameters(rc), files=paths,
                   duration_seconds=time.perf_counter() - t0,
                   failed_points=sum(tb.failed_rows for tb in tables))
    stages.append(("after the tables", memory_mb()))
    return stages


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    inputs = with_pairs(workloads.generate(argv[0], int(argv[1])), argv[2:])
    with tempfile.TemporaryDirectory() as tmp:
        stages = run_stages(inputs, Path(tmp))
    print(f"{'stage (MB)':<24}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, mb in stages:
        print(f"{name:<24}" + "".join(f"{mb[c]:10.2f}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
