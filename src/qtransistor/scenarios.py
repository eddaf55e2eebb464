"""Registry of canned sweep scenarios.

Each scenario bundles the model setup and grid behind one of the standard
plots (currents and derivatives versus the modulating temperature,
amplification versus time / coupling / temperature, detached-ancilla cases,
anharmonic-ancilla cases, memory measures, the qubit-ancilla variant, and
the two-qubit device).  A scenario computes one or more tables; writing
files and manifests is the caller's job.  Every alpha table but
appendixA's comes from ``_alpha_table``: one ``metrics.sweep`` per curve,
then one alpha column per terminal.

Some scenarios force model keys per curve: fig3 ``g``, fig6 and fig7
``attach_R`` / ``attach_L``, fig9-fig11 ``kind`` and ``epsilon``.  Overrides
that give such a key another value are refused before any sweep runs; a
scenario's ``preset`` (fig8, fig11, fig12, appendixA) beats the user's.

Grids are chosen so every scenario completes on a laptop while still
resolving the structure it exists to show (collision-period jumps, the
divergence of alpha at the critical temperature, the sharp coupling peak).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import metrics, nonmarkov
from .model import ModelConfig
from .nonmarkov import SearchConfig
from .output import AXIS_UNITS, U_NONE, U_TIME, Table, sweep_table

__all__ = ["Scenario", "SCENARIOS", "RUN_OVERRIDE_KEYS", "scenario_names",
           "build_tables"]


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
    user's beats "baseline".  Any other forced key that the overrides set
    to a different value raises ``ValueError`` naming the key, the user's
    value and the scenario's.  The run keys t and t_max are not read.
    """
    model = {k: v for k, v in over.items() if k not in RUN_OVERRIDE_KEYS}
    clashes = [f"{k} = {model[k]} conflicts with the scenario's {k} = {v}"
               for k, v in forced.items() if k in model and model[k] != v]
    if clashes:
        raise ValueError("; ".join(clashes))
    user_preset = model.pop("preset", "baseline")
    return ModelConfig.default(preset or user_preset, **{**model, **forced})


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    return np.round(np.arange(lo, hi + 1e-9, step), 10)


# the grids more than one scenario sweeps
_TM_GRID = _grid(4.0, 10.0, 0.25)
_TM_WIDE_GRID = _grid(0.5, 12.0, 0.25)
_G_GRID = _grid(3.5, 4.5, 0.01)

# one curve: its column label (may be empty) and the model it runs
_Case = Tuple[str, ModelConfig]


def _time_grid(config: ModelConfig, t_max: float) -> np.ndarray:
    n = int(round(t_max / config.sample_dt))
    return np.round(np.arange(1, n + 1) * config.sample_dt, 12)


def _alpha_table(stem: str, axis: str, grid: np.ndarray,
                 t: Optional[float], boundary: str, cases: List[_Case],
                 terminals: Sequence[str] = ("L", "R")) -> Table:
    """One ``metrics.sweep`` per case, then one ``alpha_X[label]`` column
    per terminal (``alpha_X`` for an empty label); a row's error joins
    the messages of its columns."""
    curves = []
    for label, cfg in cases:
        res = metrics.sweep(cfg, axis, grid, terminals, t=t,
                            boundary=boundary)
        tag = f"[{label}]" if label else ""
        curves += [(f"alpha_{x}{tag}", res.alphas[x], res.errors)
                   for x in terminals]
    columns = [(axis, AXIS_UNITS[axis])]
    columns += [(name, U_NONE) for name, _, _ in curves]
    rows = np.column_stack([grid] + [col for _, col, _ in curves]).tolist()
    errors = ["; ".join(filter(None, errs))
              for errs in zip(*(errs for _, _, errs in curves))]
    return Table(stem=stem, columns=columns, rows=rows, errors=errors)


def _fig2(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cfg = _make_config(over)
    res = metrics.sweep(cfg, "T_M", _TM_GRID, terminals=(),
                        t=float(over.get("t", 1.0)), boundary=boundary)
    return [sweep_table(res, "fig2", cfg.modulating_terminal)]


def _fig3(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cases = [(f"g={g}", _make_config(over, g=g)) for g in (3.5, 4.0, 4.5)]
    return [_alpha_table("fig3", "T_M", _TM_GRID, float(over.get("t", 1.0)),
                         boundary, cases, ("L",))]


def _fig4(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cfg = _make_config(over)
    grid = _time_grid(cfg, float(over.get("t_max", 5.0)))
    return [_alpha_table("fig4", "t", grid, None, boundary, [("", cfg)])]


def _fig5(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    return [_alpha_table("fig5", "g", _G_GRID, float(over.get("t", 1.0)),
                         boundary, [("", _make_config(over))])]


def _detached_cases(over: Dict) -> List[_Case]:
    base = {"T_L": 4.0, "T_M": 8.0, "T_R": 10.0, **over}
    return [("right-detached", _make_config(base, attach_R=False)),
            ("left-detached", _make_config(base, attach_L=False))]


def _fig6(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cases = _detached_cases(over)
    grid = _time_grid(cases[0][1], float(over.get("t_max", 3.0)))
    return [_alpha_table("fig6", "t", grid, None, boundary, cases)]


def _fig7(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    return [_alpha_table("fig7", "g", _G_GRID, float(over.get("t", 0.7)),
                         boundary, _detached_cases(over))]


def _fig8(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cases = [(preset, _make_config(over, preset=preset))
             for preset in ("symmetric", "asymmetric")]
    grid = _time_grid(cases[0][1], float(over.get("t_max", 3.0)))
    return [
        _alpha_table("fig8_temperature", "T_M", _TM_WIDE_GRID,
                     float(over.get("t", 0.4)), boundary, cases),
        _alpha_table("fig8_time", "t", grid, None, boundary, cases),
    ]


_EPSILONS_FIG9 = (0.0, 0.01, 0.03, 0.05, -0.01, -0.03, -0.05)
_EPSILONS = (0.0, -0.01, 0.01)


def _nonlinear_cases(over: Dict, epsilons: Sequence[float],
                     preset: Optional[str] = None) -> List[_Case]:
    """One case per epsilon: the linear qutrit at 0, else the nonlinear."""
    return [(f"eps={eps}" if eps else "linear", _make_config(
        over, preset, kind="qutrit-nonlinear" if eps else "qutrit-linear",
        epsilon=eps)) for eps in epsilons]


def _fig9(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    return [_alpha_table("fig9", "T_M", _TM_GRID, float(over.get("t", 1.0)),
                         boundary, _nonlinear_cases(over, _EPSILONS_FIG9),
                         ("L",))]


def _fig10(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cases = _nonlinear_cases(over, _EPSILONS)
    grid = _time_grid(cases[0][1], float(over.get("t_max", 3.0)))
    return [_alpha_table("fig10", "t", grid, None, boundary, cases, ("L",))]


def _fig11(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    t = float(over.get("t", 0.4))
    return [_alpha_table(f"fig11_{preset}", "T_M", _TM_WIDE_GRID, t, boundary,
                         _nonlinear_cases(over, _EPSILONS, preset), ("L",))
            for preset in ("symmetric", "asymmetric")]


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
        rows = np.column_stack([cutoffs, series.T]).tolist()
        tables.append(Table(f"fig12_{preset}", columns, rows,
                            [""] * len(rows)))
    return tables


def _fig13(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cases = [("", _make_config({"kind": "qubit", **over}))]
    grid = _time_grid(cases[0][1], float(over.get("t_max", 10.0)))
    return [
        _alpha_table("fig13_time", "t", grid, None, boundary, cases),
        _alpha_table("fig13_temperature", "T_M", _grid(4.0, 12.0, 0.25),
                     float(over.get("t", 9.7)), boundary, cases),
    ]


def _appendixA(over: Dict, boundary: str, search: SearchConfig) -> List[Table]:
    cfg = _make_config({"T_R": 4.0, **over}, preset="appendixA")
    t = float(over.get("t", 1.0))
    res = metrics.sweep(cfg, "T_M", _grid(0.2, 4.0, 0.05), terminals=("R",),
                        t=t, boundary=boundary)
    table = sweep_table(res, "appendixA", cfg.modulating_terminal)
    table.columns[-1] = ("alpha", U_NONE)  # the device has one alpha
    return [table]


SCENARIOS: Dict[str, Scenario] = {s.name: s for s in (
    Scenario("fig2", "currents and their T_M-derivatives at t = 1", _fig2),
    Scenario("fig3", "alpha_L vs T_M for g in {3.5, 4, 4.5}", _fig3),
    Scenario("fig4", "alpha_L, alpha_R vs time at T_M = 10", _fig4),
    Scenario("fig5", "alpha vs coupling g at t = 1", _fig5),
    Scenario("fig6", "detached-ancilla amplification vs time", _fig6),
    Scenario("fig7", "detached-ancilla amplification vs g at t = 0.7", _fig7),
    Scenario("fig8", "symmetric/asymmetric coupling: alpha vs T_M and t",
             _fig8),
    Scenario("fig9", "anharmonic ancillas: alpha_L vs T_M at t = 1", _fig9),
    Scenario("fig10", "anharmonic ancillas: alpha_L vs time at T_M = 10",
             _fig10),
    Scenario("fig11", "symmetric/asymmetric with anharmonic ancillas", _fig11),
    Scenario("fig12", "trace-distance backflow measure per qubit vs cutoff",
             _fig12),
    Scenario("fig13", "qubit ancillas: alpha vs time and vs T_M", _fig13),
    Scenario("appendixA", "two-qubit device: alpha vs T_L at t = 1",
             _appendixA),
)}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def build_tables(name: str, overrides: Optional[Dict] = None, *,
                 boundary: str = "left",
                 search: Optional[SearchConfig] = None) -> List[Table]:
    if name not in SCENARIOS:
        known = ", ".join(SCENARIOS)
        raise ValueError(f"unknown scenario {name!r}; known: {known}")
    return SCENARIOS[name].build(overrides or {}, boundary,
                                 search or SearchConfig())
