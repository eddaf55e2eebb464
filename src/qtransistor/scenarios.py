"""Registry of canned sweep scenarios.

Each scenario bundles the model setup and grid behind one of the standard
plots (currents and derivatives versus the modulating temperature,
amplification versus time / coupling / temperature, detached-ancilla cases,
anharmonic-ancilla cases, memory measures, the qubit-ancilla variant, and
the two-qubit device).  A scenario computes one or more tables; writing
files and manifests is the caller's job.

Grids are chosen so every scenario completes on a laptop while still
resolving the structure it exists to show (collision-period jumps, the
divergence of alpha at the critical temperature, the sharp coupling peak).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import metrics, nonmarkov
from .model import ModelConfig
from .nonmarkov import SearchConfig
from .output import AXIS_UNITS, U_NONE, U_TIME, Table, sweep_table

__all__ = [
    "Scenario",
    "SCENARIOS",
    "RUN_OVERRIDE_KEYS",
    "scenario_names",
    "build_tables",
]


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    # (overrides, boundary, backflow search settings) -> tables
    build: Callable[[Dict, str, SearchConfig], List[Table]] = field(repr=False)


# run-level keys recognized in overrides; the rest go to the model config
RUN_OVERRIDE_KEYS = ("t", "t_max")


def _make_config(over: Dict, preset: Optional[str] = None,
                 **forced) -> ModelConfig:
    """Model config from the run's overrides plus scenario-forced values.

    A scenario's forced ``preset`` beats the user's ``preset``, and the
    user's beats "baseline".  The run keys t and t_max are not read.
    """
    model = {k: v for k, v in over.items() if k not in RUN_OVERRIDE_KEYS}
    user_preset = model.pop("preset", "baseline")
    return ModelConfig.default(preset or user_preset, **{**model, **forced})


def _time_grid(config: ModelConfig, t_max: float) -> np.ndarray:
    n = int(round(t_max / config.sample_dt))
    return np.round(np.arange(1, n + 1) * config.sample_dt, 12)


def _sweep_table(
    stem: str,
    sweeps: List[Tuple[str, metrics.SweepResult, str]],
) -> Table:
    """Merge sweeps sharing one grid into a column-per-curve table."""
    axis, grid = sweeps[0][1].axis, sweeps[0][1].grid
    columns = [(axis, AXIS_UNITS[axis])]
    columns += [(label, U_NONE) for label, _, _ in sweeps]
    rows = np.column_stack(
        [grid] + [res.alphas[x] for _, res, x in sweeps]).tolist()
    errors = ["; ".join(filter(None, errs))
              for errs in zip(*(res.errors for _, res, _ in sweeps))]
    return Table(stem=stem, columns=columns, rows=rows, errors=errors)


def _fig2(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cfg = _make_config(over)
    t = float(over.get("t", 1.0))
    grid = np.round(np.arange(4.0, 10.0 + 1e-9, 0.25), 10)
    res = metrics.sweep(cfg, "T_M", grid, terminals=(), t=t,
                        boundary=boundary)
    return [sweep_table(res, "fig2", cfg.modulating_terminal)]


def _fig3(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    t = float(over.get("t", 1.0))
    grid = np.round(np.arange(4.0, 10.0 + 1e-9, 0.25), 10)
    sweeps = []
    for g in (3.5, 4.0, 4.5):
        cfg = _make_config(over, g=g)
        res = metrics.sweep(cfg, "T_M", grid, t=t, boundary=boundary)
        sweeps.append((f"alpha_L[g={g}]", res, "L"))
    return [_sweep_table("fig3", sweeps)]


def _fig4(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cfg = _make_config(over)
    t_max = float(over.get("t_max", 5.0))
    grid = _time_grid(cfg, t_max)
    res = metrics.sweep(cfg, "t", grid, boundary=boundary)
    sweeps = [("alpha_L", res, "L"), ("alpha_R", res, "R")]
    return [_sweep_table("fig4", sweeps)]


def _fig5(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cfg = _make_config(over)
    t = float(over.get("t", 1.0))
    grid = np.round(np.arange(3.5, 4.5 + 1e-9, 0.01), 10)
    res = metrics.sweep(cfg, "g", grid, t=t, boundary=boundary)
    sweeps = [("alpha_L", res, "L"), ("alpha_R", res, "R")]
    return [_sweep_table("fig5", sweeps)]


def _detached_configs(over: Dict) -> Dict[str, ModelConfig]:
    base = dict(T_L=4.0, T_M=8.0, T_R=10.0)
    base.update(over)
    return {
        "right-detached": _make_config(base, attach_R=False),
        "left-detached": _make_config(base, attach_L=False),
    }


def _fig6(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    t_max = float(over.get("t_max", 3.0))
    sweeps = []
    for case, cfg in _detached_configs(over).items():
        grid = _time_grid(cfg, t_max)
        res = metrics.sweep(cfg, "t", grid, terminals=("L", "R"),
                            boundary=boundary)
        sweeps.append((f"alpha_L[{case}]", res, "L"))
        sweeps.append((f"alpha_R[{case}]", res, "R"))
    return [_sweep_table("fig6", sweeps)]


def _fig7(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    t = float(over.get("t", 0.7))
    grid = np.round(np.arange(3.5, 4.5 + 1e-9, 0.01), 10)
    sweeps = []
    for case, cfg in _detached_configs(over).items():
        res = metrics.sweep(cfg, "g", grid, terminals=("L", "R"), t=t,
                            boundary=boundary)
        sweeps.append((f"alpha_L[{case}]", res, "L"))
        sweeps.append((f"alpha_R[{case}]", res, "R"))
    return [_sweep_table("fig7", sweeps)]


def _fig8(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    t = float(over.get("t", 0.4))
    t_max = float(over.get("t_max", 3.0))
    temp_grid = np.round(np.arange(0.5, 12.0 + 1e-9, 0.25), 10)
    temp_sweeps, time_sweeps = [], []
    for preset in ("symmetric", "asymmetric"):
        cfg = _make_config(over, preset=preset)
        res_T = metrics.sweep(cfg, "T_M", temp_grid, t=t,
                              boundary=boundary)
        temp_sweeps.append((f"alpha_L[{preset}]", res_T, "L"))
        temp_sweeps.append((f"alpha_R[{preset}]", res_T, "R"))
        res_t = metrics.sweep(cfg, "t", _time_grid(cfg, t_max),
                              boundary=boundary)
        time_sweeps.append((f"alpha_L[{preset}]", res_t, "L"))
        time_sweeps.append((f"alpha_R[{preset}]", res_t, "R"))
    return [
        _sweep_table("fig8_temperature", temp_sweeps),
        _sweep_table("fig8_time", time_sweeps),
    ]


_EPSILONS_FIG9 = (0.0, 0.01, 0.03, 0.05, -0.01, -0.03, -0.05)


def _nonlinear_config(over: Dict, eps: float,
                      preset: Optional[str] = None) -> ModelConfig:
    kind = "qutrit-linear" if eps == 0.0 else "qutrit-nonlinear"
    return _make_config(over, preset, kind=kind, epsilon=eps)


def _eps_label(eps: float) -> str:
    return "alpha_L[linear]" if eps == 0.0 else f"alpha_L[eps={eps}]"


def _fig9(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    t = float(over.get("t", 1.0))
    grid = np.round(np.arange(4.0, 10.0 + 1e-9, 0.25), 10)
    sweeps = []
    for eps in _EPSILONS_FIG9:
        cfg = _nonlinear_config(over, eps)
        res = metrics.sweep(cfg, "T_M", grid, t=t, boundary=boundary)
        sweeps.append((_eps_label(eps), res, "L"))
    return [_sweep_table("fig9", sweeps)]


def _fig10(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    t_max = float(over.get("t_max", 3.0))
    sweeps = []
    for eps in (0.0, -0.01, 0.01):
        cfg = _nonlinear_config(over, eps)
        res = metrics.sweep(cfg, "t", _time_grid(cfg, t_max),
                            boundary=boundary)
        sweeps.append((_eps_label(eps), res, "L"))
    return [_sweep_table("fig10", sweeps)]


def _fig11(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    t = float(over.get("t", 0.4))
    grid = np.round(np.arange(0.5, 12.0 + 1e-9, 0.25), 10)
    tables = []
    for preset in ("symmetric", "asymmetric"):
        sweeps = []
        for eps in (0.0, -0.01, 0.01):
            cfg = _nonlinear_config(over, eps, preset=preset)
            res = metrics.sweep(cfg, "T_M", grid, t=t, boundary=boundary)
            sweeps.append((_eps_label(eps), res, "L"))
        tables.append(_sweep_table(f"fig11_{preset}", sweeps))
    return tables


def _fig12(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    t_max = float(over.get("t_max", 3.0))
    tables = []
    for preset in ("baseline", "symmetric", "asymmetric"):
        cfg = _make_config(over, preset=preset)
        # cutoffs about 0.1 apart, each on the sample grid
        step = max(1, round(0.1 / cfg.sample_dt)) * cfg.sample_dt
        cutoffs = np.round(np.arange(step, t_max + 1e-9, step), 10)
        series = nonmarkov.blp_series(cfg, cfg.system_terminals, cutoffs,
                                      search)
        columns = [("t", U_TIME)] + [(f"N_{x}", U_NONE)
                                     for x in cfg.system_terminals]
        rows = [[float(c)] + [float(v) for v in series[:, i]]
                for i, c in enumerate(cutoffs)]
        tables.append(Table(f"fig12_{preset}", columns, rows,
                            [""] * len(rows)))
    return tables


def _fig13(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cfg = _make_config({"kind": "qubit", **over})
    t_star = float(over.get("t", 9.7))
    t_max = float(over.get("t_max", 10.0))
    res_t = metrics.sweep(cfg, "t", _time_grid(cfg, t_max),
                          boundary=boundary)
    time_sweeps = [("alpha_L", res_t, "L"), ("alpha_R", res_t, "R")]
    temp_grid = np.round(np.arange(4.0, 12.0 + 1e-9, 0.25), 10)
    res_T = metrics.sweep(cfg, "T_M", temp_grid, t=t_star,
                          boundary=boundary)
    temp_sweeps = [("alpha_L", res_T, "L"), ("alpha_R", res_T, "R")]
    return [
        _sweep_table("fig13_time", time_sweeps),
        _sweep_table("fig13_temperature", temp_sweeps),
    ]


def _appendixA(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cfg = _make_config({"T_R": 4.0, **over}, preset="appendixA")
    t = float(over.get("t", 1.0))
    grid = np.round(np.arange(0.2, 4.0 + 1e-9, 0.05), 10)
    res = metrics.sweep(cfg, "T_M", grid, terminals=("R",), t=t,
                        boundary=boundary)
    table = sweep_table(res, "appendixA", cfg.modulating_terminal)
    table.columns[-1] = ("alpha", U_NONE)  # the device has one alpha
    return [table]


SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (
        Scenario("fig2", "currents and their T_M-derivatives at t = 1",
                 _fig2),
        Scenario("fig3", "alpha_L vs T_M for g in {3.5, 4, 4.5}", _fig3),
        Scenario("fig4", "alpha_L, alpha_R vs time at T_M = 10", _fig4),
        Scenario("fig5", "alpha vs coupling g at t = 1", _fig5),
        Scenario("fig6", "detached-ancilla amplification vs time", _fig6),
        Scenario("fig7", "detached-ancilla amplification vs g at t = 0.7",
                 _fig7),
        Scenario("fig8", "symmetric/asymmetric coupling: alpha vs T_M and t",
                 _fig8),
        Scenario("fig9", "anharmonic ancillas: alpha_L vs T_M at t = 1",
                 _fig9),
        Scenario("fig10", "anharmonic ancillas: alpha_L vs time at T_M = 10",
                 _fig10),
        Scenario("fig11", "symmetric/asymmetric with anharmonic ancillas",
                 _fig11),
        Scenario("fig12",
                 "trace-distance backflow measure per qubit vs cutoff",
                 _fig12),
        Scenario("fig13", "qubit ancillas: alpha vs time and vs T_M",
                 _fig13),
        Scenario("appendixA", "two-qubit device: alpha vs T_L at t = 1",
                 _appendixA),
    )
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def build_tables(
    name: str,
    overrides: Optional[Dict] = None,
    *,
    boundary: str = "left",
    search: Optional[SearchConfig] = None,
) -> List[Table]:
    if name not in SCENARIOS:
        known = ", ".join(SCENARIOS)
        raise ValueError(f"unknown scenario {name!r}; known: {known}")
    return SCENARIOS[name].build(overrides or {}, boundary,
                                 search or SearchConfig())
