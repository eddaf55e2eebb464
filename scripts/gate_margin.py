"""How close the sweep derivatives come to the benchmark gate's limits.

    python scripts/gate_margin.py WORKLOAD FIRST_SEED LAST_SEED

For each seed of a sweep workload, the script generates that seed's
program inputs with ``perfbench/workloads.py`` and computes, in this
process, the sweep table a ``qtransistor run`` on them writes.  Every row
is compared with the gate's reference: ``metrics.five_point_derivative``
at ``ModelConfig.stencil_h`` over the modulating temperature, on currents
read in one batched ``engine.sample_currents`` call per Hamiltonian (one
per seed on a T_M or t sweep, one per point on a g sweep).  Each seed
prints the largest |dJ - dJ_ref| over the rows and the largest
|alpha - alpha_ref| / max(1, |alpha_ref|), the scale ``perfbench/gate.py``
gives ``ALPHA_RTOL``, each with its row.  Alpha is compared where
|dJ_mod_ref| > 1e-6, as in the gate.  The last two lines give the maxima
over all seeds and their margins, 1 - gap / tolerance, to
``gate.CURRENT_TOL`` and ``gate.ALPHA_RTOL``.

The gate recomputes two seeded rows per run from the joint state
(``gate.reference_row``).  On those rows, drawn as ``perfbench/run.py``
draws them, this reference's derivatives must equal the gate's to 1e-12,
or the script exits with status 1.  Alpha is left out of that check: as
a ratio of derivatives near 1e-3, it carries their round-off enlarged
some thousand times.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# the package first: it runs BLAS on one thread, as a run does, if it
# loads numpy
from qtransistor.config import parse_config, run_tables  # noqa: E402
from qtransistor.engine import sample_currents  # noqa: E402
from qtransistor.metrics import five_point_derivative  # noqa: E402
from qtransistor.model import ModelConfig  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

REFERENCE_TOL = 1e-12   # this reference against gate.reference_row
ALPHA_FLOOR = 1e-6      # |dJ_mod| at or below it: the gate skips alpha


def _stencil_temperatures(t0: float) -> list:
    """The temperatures ``five_point_derivative`` reads around ``t0``."""
    read: list = []
    five_point_derivative(lambda x: read.append(x) or 0.0, t0,
                          ModelConfig.stencil_h)
    return read


def reference_rows(inputs: workloads.Inputs) -> list:
    """The gate's reference derivatives and alphas of every sweep row,
    named like the table's columns."""
    points = [gate._point(inputs, value) for value in inputs.grid]
    groups = [[i] for i in range(len(points))] if inputs.axis == "g" \
        else [list(range(len(points)))]
    rows: list = [None] * len(points)
    for group in groups:
        base = points[group[0]][0]
        mod = base.modulating_terminal
        temps = sorted({x for i in group for x in _stencil_temperatures(
            points[i][0].env.temperature(mod))})
        times = sorted({points[i][1] for i in group})
        cur = sample_currents([base.with_temperature(mod, x) for x in temps],
                              times)
        at_temp = {x: k for k, x in enumerate(temps)}
        for i in group:
            cfg, t = points[i]
            s = times.index(t)
            row = {}
            for k, x in enumerate(cfg.system_terminals):
                row[f"dJ{x}_dTM"] = five_point_derivative(
                    lambda temp: cur[at_temp[temp], s, k],
                    cfg.env.temperature(mod), ModelConfig.stencil_h)
            djm = row[f"dJ{mod}_dTM"]
            if abs(djm) > ALPHA_FLOOR:
                for x in cfg.system_terminals:
                    if x != mod:
                        row[f"alpha_{x}"] = row[f"dJ{x}_dTM"] / djm
            rows[i] = row
    return rows


def _gap(name: str, got: float, want: float) -> float:
    scale = max(1.0, abs(want)) if name.startswith("alpha_") else 1.0
    return abs(got - want) / scale


def seed_margin(name: str, seed: int):
    """((largest dJ gap, row), (largest alpha gap, row), largest dJ gap
    to ``gate.reference_row`` on the gate's seeded rows, those rows)."""
    inputs = workloads.generate(name, seed)
    [table] = run_tables(parse_config(inputs.ini, inputs.sets))
    names = [n for n, _ in table.columns]
    refs = reference_rows(inputs)
    worst = {"dJ": (0.0, -1), "alpha_": (0.0, -1)}
    for i, (values, ref) in enumerate(zip(table.rows, refs)):
        for column, want in ref.items():
            kind = "alpha_" if column.startswith("alpha_") else "dJ"
            gap = _gap(column, values[names.index(column)], want)
            if not gap <= worst[kind][0]:  # a NaN cell is the worst
                worst[kind] = (gap, i)
    n = len(refs)
    picks = sorted(random.Random(f"gate:{name}:{seed}").sample(
        range(n), min(gate.ROWS_CHECKED, n)))
    check = 0.0
    for i in picks:
        brute = gate.reference_row(*gate._point(inputs, inputs.grid[i]))
        check = max([check] + [abs(v - brute[k]) for k, v in
                               refs[i].items() if k.startswith("dJ")])
    return worst["dJ"], worst["alpha_"], check, picks


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in workloads.WORKLOADS:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    name, first, last = argv[0], int(argv[1]), int(argv[2])
    if not workloads.generate(name, first).axis:
        print(f"{name} is not a sweep workload", file=sys.stderr)
        return 2
    overall = {"dJ": (0.0, None, -1), "alpha": (0.0, None, -1)}
    status = 0
    for seed in range(first, last + 1):
        dj, alpha, check, picks = seed_margin(name, seed)
        print(f"seed {seed}: max|ddJ| = {dj[0]:.3e} (row {dj[1]}), "
              f"max dalpha = {alpha[0]:.3e} (row {alpha[1]}); "
              f"gate rows {picks} reference gap {check:.1e}")
        for kind, (gap, row) in (("dJ", dj), ("alpha", alpha)):
            if not gap <= overall[kind][0]:
                overall[kind] = (gap, seed, row)
        if not check <= REFERENCE_TOL:
            print(f"seed {seed}: the reference differs from "
                  f"gate.reference_row by {check:.1e}", file=sys.stderr)
            status = 1
    for kind, tol, tol_name in (("dJ", gate.CURRENT_TOL, "CURRENT_TOL"),
                                ("alpha", gate.ALPHA_RTOL, "ALPHA_RTOL")):
        gap, seed, row = overall[kind]
        print(f"{name} seeds {first}-{last}: max {kind} gap {gap:.3e} "
              f"(seed {seed}, row {row}), margin {1.0 - gap / tol:.1%} of "
              f"gate.{tol_name} = {tol:g}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
