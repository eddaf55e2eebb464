"""Figures of merit for the simulated transistor.

Everything here reduces trajectories to scalar diagnostics: heat-current
derivatives with respect to the modulating bath temperature, the dynamical
amplification factor alpha_X = (dJ_X/dT) / (dJ_mod/dT), the critical
temperature where the modulating derivative vanishes, and one-axis parameter
sweeps that bundle those quantities per grid point.

Derivatives use the five-point central stencil

    f'(x) ~ [f(x-2h) - 8 f(x-h) + 8 f(x+h) - f(x+2h)] / (12 h)

with h = ``ModelConfig.stencil_h`` (0.05 by default, error O(h^4)).  The
five modulating temperatures share one H_tot, so one stencil is a single
``engine.sample_currents`` call, shared across terminals and, for time
sweeps, across every requested time; only the requested samples are
evaluated.  Every point of a T_M sweep shares that H_tot too, so the
whole sweep is one call over 5 configs per point, and each point gets
the values a call of its own would give.  An error raised inside that
call is recorded on every point of the sweep; a point whose stencil
leaves the physical domain is left out of the call and fails alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import sample_currents
from .model import ModelConfig

__all__ = [
    "DIVERGENCE_TOL",
    "AmplificationResult",
    "SweepPoint",
    "SweepResult",
    "five_point_derivative",
    "current_at",
    "amplification",
    "find_critical_TM",
    "sweep",
]

# |dJ_mod/dT| below this marks alpha as divergent (near-critical denominator).
DIVERGENCE_TOL = 1e-8

_STENCIL_OFFSETS = (-2.0, -1.0, 0.0, 1.0, 2.0)
_STENCIL_WEIGHTS = (1.0, -8.0, 0.0, 8.0, -1.0)  # divide by 12 h

SWEEP_AXES = ("T_M", "t", "g", "epsilon")


def five_point_derivative(f: Callable[[float], float], x0: float, h: float) -> float:
    """First derivative of ``f`` at ``x0`` via the five-point central stencil."""
    if h <= 0:
        raise ValueError(f"stencil step must be positive, got {h}")
    # paired antisymmetric differences: constants cancel exactly
    outer = f(x0 - 2.0 * h) - f(x0 + 2.0 * h)
    inner = f(x0 + h) - f(x0 - h)
    return (outer + 8.0 * inner) / (12.0 * h)


@dataclass(frozen=True)
class AmplificationResult:
    """Amplification at one (terminal, time) point.

    ``alpha`` is NaN with ``diverged=True`` when the modulating derivative is
    below the divergence tolerance; sweeps crossing the critical temperature
    then still produce complete tables.
    """

    terminal: str
    time: float
    alpha: float
    dJX_dTM: float
    dJM_dTM: float
    diverged: bool = False

    def __post_init__(self):
        if not self.diverged and math.isfinite(self.alpha):
            residual = abs(self.alpha * self.dJM_dTM - self.dJX_dTM)
            scale = max(abs(self.dJX_dTM), 1.0)
            if residual > 1e-9 * scale:
                raise ValueError("alpha inconsistent with stored derivatives")


@dataclass(frozen=True)
class SweepPoint:
    value: float
    currents: Dict[str, float]
    derivatives: Dict[str, float]
    alphas: Dict[str, AmplificationResult]
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepResult:
    """One record per grid point, and the terminals the sweep was asked
    for: currents and derivatives of ``current_terminals``, alpha of
    ``alpha_terminals``, whether or not any point succeeded."""

    axis: str
    grid: np.ndarray
    values: List[SweepPoint]
    current_terminals: Tuple[str, ...] = ()
    alpha_terminals: Tuple[str, ...] = ()

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("sweep grid must be a nonempty 1-D array")
        if np.any(np.diff(g) <= 0):
            raise ValueError("sweep grid must be strictly ascending")
        if len(self.values) != g.size:
            raise ValueError("one record per grid point required")


def _check_stencil_domain(config: ModelConfig) -> None:
    mod = config.modulating_terminal
    T0 = config.env.temperature(mod)
    if T0 - 2.0 * config.stencil_h <= 0.0:
        raise ValueError(
            f"stencil leaves the physical domain: T_{mod} - 2h = "
            f"{T0 - 2 * config.stencil_h}"
        )


def _stencil(
    configs: Sequence[ModelConfig], times: Sequence[float], boundary: str
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """(currents at centre, dJ/dT_mod) per terminal, each of shape
    (len(configs), len(times)).

    ``configs`` are centre configs that share one H_tot.  Each gets five
    runs with the modulating bath at T + k*h, k in -2..2 and h = its
    ``stencil_h``; all 5 * len(configs) runs are read at ``times`` in one
    ``sample_currents`` call, which gives each config the values it would
    get alone.
    """
    for config in configs:
        _check_stencil_domain(config)
    mod = configs[0].modulating_terminal
    runs = sample_currents(
        [c.with_temperature(mod, c.env.temperature(mod) + k * c.stencil_h)
         for c in configs for k in _STENCIL_OFFSETS],
        times, boundary)
    # (offset k, terminal, config, time)
    runs = runs.reshape(len(configs), len(_STENCIL_OFFSETS), len(times),
                        -1).transpose(1, 3, 0, 2)
    h = np.array([c.stencil_h for c in configs])[:, None]
    center, acc = {}, {}
    for k, w, run in zip(_STENCIL_OFFSETS, _STENCIL_WEIGHTS, runs):
        for x, series in zip(configs[0].system_terminals, run):
            if k == 0.0:
                center[x] = series
            else:
                acc[x] = acc.get(x, 0.0) + w * series
    return center, {x: a / (12.0 * h) for x, a in acc.items()}


def current_at(
    config: ModelConfig, t: float, terminal: str, *, boundary: str = "left"
) -> float:
    """J_X at time ``t`` (on the sample grid), from ``sample_currents``;
    this is ``evolve``'s value bit for bit."""
    if terminal not in config.system_terminals:
        raise ValueError(f"unknown terminal {terminal!r}")
    cur = sample_currents([config], [t], boundary)
    return float(cur[0, 0, config.system_terminals.index(terminal)])


def _alpha_from(
    terminal: str,
    t: float,
    dJX: float,
    dJM: float,
    divergence_tol: float,
) -> AmplificationResult:
    if abs(dJM) < divergence_tol:
        return AmplificationResult(
            terminal=terminal, time=t, alpha=math.nan, dJX_dTM=dJX, dJM_dTM=dJM,
            diverged=True,
        )
    return AmplificationResult(
        terminal=terminal, time=t, alpha=dJX / dJM, dJX_dTM=dJX, dJM_dTM=dJM,
    )


def amplification(
    config: ModelConfig,
    t: float,
    terminal: str,
    *,
    divergence_tol: float = DIVERGENCE_TOL,
    boundary: str = "left",
) -> AmplificationResult:
    """alpha_X(t) from five runs with the modulating bath at T + k*h."""
    if terminal not in config.system_terminals:
        raise ValueError(f"unknown terminal {terminal!r}")
    mod = config.modulating_terminal
    if terminal == mod:
        raise ValueError(f"terminal {terminal!r} is the modulating one")
    _, deriv = _stencil([config], [t], boundary)
    return _alpha_from(
        terminal, t, float(deriv[terminal][0, 0]), float(deriv[mod][0, 0]),
        divergence_tol,
    )


def find_critical_TM(
    config: ModelConfig,
    t: float,
    bracket: Tuple[float, float],
    *,
    tol: float = 1e-3,
    max_iter: int = 40,
    boundary: str = "left",
) -> float:
    """Temperature of the modulating bath where dJ_mod/dT crosses zero.

    Bisection on the stencil derivative; requires a sign change across the
    bracket and resolves the root to ``tol`` (absolute, in temperature units).
    Both bracket endpoints are read in one stencil call.
    """
    mod = config.modulating_terminal
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bad bracket {bracket}")

    def djm(*temps: float) -> List[float]:
        _, deriv = _stencil([config.with_temperature(mod, T) for T in temps],
                            [t], boundary)
        return [float(d) for d in deriv[mod][:, 0]]

    f_lo, f_hi = djm(lo, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise ValueError(
            "no sign change of the modulating-bath current derivative across "
            f"[{lo}, {hi}]: dJ({lo}) = {f_lo:.6e}, dJ({hi}) = {f_hi:.6e}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if 0.5 * (hi - lo) < tol:
            return mid
        f_mid, = djm(mid)
        if f_mid == 0.0:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def _point_config(config: ModelConfig, axis: str, value: float) -> ModelConfig:
    if axis == "T_M":
        return config.with_temperature(config.modulating_terminal, value)
    if axis == "g":
        return config.replace(g=value)
    if axis == "epsilon":
        if config.env.kind != "qutrit-nonlinear":
            raise ValueError("epsilon sweep requires qutrit-nonlinear ancillas")
        return config.replace(epsilon=value)
    raise ValueError(f"unknown sweep axis {axis!r}")


def _points(
    configs: Sequence[ModelConfig],
    times: Sequence[float],
    values: Sequence[float],
    terminals: Sequence[str],
    divergence_tol: float,
    boundary: str,
) -> List[SweepPoint]:
    """One point per (config, time) pair, config-major, all from one
    stencil; ``values`` holds the axis value of each pair."""
    mod = configs[0].modulating_terminal
    center, deriv = _stencil(configs, times, boundary)
    points = []
    pairs = np.ndindex(len(configs), len(times))
    for (c, i), value in zip(pairs, values):
        currents = {x: float(center[x][c, i]) for x in center}
        derivatives = {x: float(deriv[x][c, i]) for x in deriv}
        alphas = {
            x: _alpha_from(x, float(times[i]), derivatives[x],
                           derivatives[mod], divergence_tol)
            for x in terminals
        }
        points.append(SweepPoint(value=float(value), currents=currents,
                                 derivatives=derivatives, alphas=alphas))
    return points


def _failed(value: float, exc: Exception) -> SweepPoint:
    return SweepPoint(value=float(value), currents={}, derivatives={},
                      alphas={}, error=f"{type(exc).__name__}: {exc}")


def sweep(
    config: ModelConfig,
    axis: str,
    grid: Sequence[float],
    terminals: Optional[Sequence[str]] = None,
    *,
    t: Optional[float] = None,
    divergence_tol: float = DIVERGENCE_TOL,
    boundary: str = "left",
) -> SweepResult:
    """Amplification and currents along one parameter axis.

    ``axis`` is one of T_M / t / g / epsilon.  For every axis except ``t`` the
    evaluation time ``t`` is required.  Grid points run in series.
    Per-point failures are recorded on the point and do not abort the sweep;
    the points of a T_M sweep share one stencil call, so an error raised
    inside that call is recorded on each of them.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    grid = np.asarray(list(grid), dtype=float)
    if terminals is None:
        mod = config.modulating_terminal
        terminals = tuple(x for x in config.system_terminals if x != mod)
    else:
        terminals = tuple(terminals)
        bad = set(terminals) - set(config.system_terminals)
        if bad:
            raise ValueError(f"unknown terminals {sorted(bad)}")

    if axis == "t":
        sd = config.sample_dt
        off = np.abs(grid / sd - np.round(grid / sd))
        if np.any(off > 1e-9):
            raise ValueError("time grid points must be sample_dt multiples")
        # one stencil covers every requested time
        points = _points([config], grid, grid, terminals, divergence_tol,
                         boundary)
        return SweepResult(axis, grid, points, config.system_terminals,
                           terminals)

    if t is None:
        raise ValueError(f"axis {axis!r} needs an evaluation time t")

    points: List[Optional[SweepPoint]] = [None] * len(grid)
    valid = {}
    for i, value in enumerate(grid):
        try:
            cfg = _point_config(config, axis, float(value))
            _check_stencil_domain(cfg)
        except Exception as exc:  # recorded per point, sweep continues
            points[i] = _failed(value, exc)
        else:
            valid[i] = cfg
    # every T_M point has the same H_tot, so one stencil serves them all
    batches = [list(valid)] if axis == "T_M" and valid else \
        [[i] for i in valid]
    for batch in batches:
        try:
            done = _points([valid[i] for i in batch], [t], grid[batch],
                           terminals, divergence_tol, boundary)
        except Exception as exc:  # recorded per point, sweep continues
            done = [_failed(grid[i], exc) for i in batch]
        for i, point in zip(batch, done):
            points[i] = point
    return SweepResult(axis, grid, points, config.system_terminals, terminals)
