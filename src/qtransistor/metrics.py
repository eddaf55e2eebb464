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
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import evolve, sample_currents
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
    axis: str
    grid: np.ndarray
    values: List[SweepPoint]

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("sweep grid must be a nonempty 1-D array")
        if np.any(np.diff(g) <= 0):
            raise ValueError("sweep grid must be strictly ascending")
        if len(self.values) != g.size:
            raise ValueError("one record per grid point required")


def _collision_ceiling(config: ModelConfig, t: float) -> float:
    """Smallest whole-collision horizon covering time ``t``."""
    dt = config.dt_collision
    n = max(1, int(math.ceil(t / dt - 1e-9)))
    return n * dt


def _stencil(
    config: ModelConfig, times: Sequence[float], boundary: str
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """(currents at centre, dJ/dT_mod) per terminal, each over ``times``.

    Five runs with the modulating bath at T + k*h, k in -2..2 and
    h = ``config.stencil_h``, read at ``times`` in one ``sample_currents``.
    """
    mod = config.modulating_terminal
    h = config.stencil_h
    T0 = config.env.temperature(mod)
    if T0 - 2.0 * h <= 0.0:
        raise ValueError(
            f"stencil leaves the physical domain: T_{mod} - 2h = {T0 - 2 * h}"
        )
    runs = sample_currents(
        [config.with_temperature(mod, T0 + k * h) for k in _STENCIL_OFFSETS],
        times, boundary)
    center, acc = {}, {}
    for k, w, run in zip(_STENCIL_OFFSETS, _STENCIL_WEIGHTS, runs):
        for x, series in zip(config.system_terminals, run.T):
            if k == 0.0:
                center[x] = series
            else:
                acc[x] = acc.get(x, 0.0) + w * series
    return center, {x: a / (12.0 * h) for x, a in acc.items()}


def current_at(
    config: ModelConfig, t: float, terminal: str, *, boundary: str = "left"
) -> float:
    """J_X at time ``t`` (one full run; ``t`` on the sample grid).

    This is ``evolve``'s value bit for bit; the stencil's
    ``sample_currents`` agrees with it to round-off.
    """
    if terminal not in config.system_terminals:
        raise ValueError(f"unknown terminal {terminal!r}")
    traj = evolve(config, _collision_ceiling(config, t), boundary=boundary)
    return float(traj.currents[terminal][traj.index_at(t)])


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
    _, deriv = _stencil(config, [t], boundary)
    return _alpha_from(
        terminal, t, float(deriv[terminal][0]), float(deriv[mod][0]), divergence_tol
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
    """
    mod = config.modulating_terminal
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bad bracket {bracket}")

    def djm(T: float) -> float:
        _, deriv = _stencil(config.with_temperature(mod, T), [t], boundary)
        return float(deriv[mod][0])

    f_lo, f_hi = djm(lo), djm(hi)
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
        f_mid = djm(mid)
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
    config: ModelConfig,
    times: Sequence[float],
    values: Sequence[float],
    terminals: Sequence[str],
    divergence_tol: float,
    boundary: str,
) -> List[SweepPoint]:
    """One point per (time, axis value) pair, all from one stencil."""
    mod = config.modulating_terminal
    center, deriv = _stencil(config, times, boundary)
    points = []
    for i, (tv, value) in enumerate(zip(times, values)):
        currents = {x: float(center[x][i]) for x in center}
        derivatives = {x: float(deriv[x][i]) for x in deriv}
        alphas = {
            x: _alpha_from(x, float(tv), derivatives[x], derivatives[mod],
                           divergence_tol)
            for x in terminals
        }
        points.append(SweepPoint(value=float(value), currents=currents,
                                 derivatives=derivatives, alphas=alphas))
    return points


def sweep(
    config: ModelConfig,
    axis: str,
    grid: Sequence[float],
    terminals: Optional[Sequence[str]] = None,
    *,
    t: Optional[float] = None,
    divergence_tol: float = DIVERGENCE_TOL,
    boundary: str = "left",
    workers: int = 1,
) -> SweepResult:
    """Amplification and currents along one parameter axis.

    ``axis`` is one of T_M / t / g / epsilon.  For every axis except ``t`` the
    evaluation time ``t`` is required.  Grid points run in series, whatever
    ``workers`` says; the argument is kept for callers that record it.
    Per-point failures are recorded on the point and do not abort the sweep.
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
        points = _points(config, grid, grid, terminals, divergence_tol,
                         boundary)
        return SweepResult(axis=axis, grid=grid, values=points)

    if t is None:
        raise ValueError(f"axis {axis!r} needs an evaluation time t")

    points = []
    for value in grid:
        try:
            cfg = _point_config(config, axis, float(value))
            points += _points(cfg, [t], [value], terminals, divergence_tol,
                              boundary)
        except Exception as exc:  # recorded per point, sweep continues
            points.append(SweepPoint(value=float(value), currents={},
                                     derivatives={}, alphas={},
                                     error=f"{type(exc).__name__}: {exc}"))
    return SweepResult(axis=axis, grid=grid, values=points)
