"""Figures of merit for the simulated transistor.

Everything here reduces trajectories to scalar diagnostics: heat-current
derivatives with respect to the modulating bath temperature, the dynamical
amplification factor alpha_X = (dJ_X/dT) / (dJ_mod/dT), the critical
temperature where the modulating derivative vanishes, and one-axis parameter
sweeps that hold each of those quantities as one array over the grid.

Derivatives are exact: ``engine.sample_tangents`` carries dJ/dT_mod on
the population chain beside J, so one call reads both, shared across
terminals and, for time sweeps, across every requested time; only the
requested samples are evaluated.  Every point of a T_M sweep shares one
H_tot, so the whole sweep is one call over its points, and each point
gets the values a call of its own would give.  A sweep writes that
call's arrays straight into its columns.  An error raised inside the
call marks every point of the sweep with NaN and its message; a point
whose config is refused (T_M <= 0, say) is left out of the call and
fails alone.

``five_point_derivative`` is the finite-difference reference that the
tests and the benchmark's gate check these derivatives against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import sample_currents, sample_tangents
from .model import ModelConfig

__all__ = [
    "DIVERGENCE_TOL",
    "AmplificationResult",
    "SweepResult",
    "five_point_derivative",
    "current_at",
    "amplification",
    "find_critical_TM",
    "sweep",
]

# |dJ_mod/dT| below this marks alpha as divergent (near-critical denominator).
DIVERGENCE_TOL = 1e-8

# temperatures at which find_critical_TM reads its bracket, ends included
CRITICAL_SCAN_POINTS = 65

# bisection rounds find_critical_TM runs at most
CRITICAL_MAX_ITER = 40

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
class SweepResult:
    """One sweep as columns: one float array per quantity, one entry per
    grid point.

    ``currents`` and ``derivatives`` (dJ/dT_mod) map every system terminal,
    ``alphas`` the terminals the sweep was asked for, whether or not any
    point succeeded.  A failed point reads NaN in every column and its
    message in ``errors``, which holds "" where the point computed; a
    diverged alpha reads NaN with an empty error.
    """

    axis: str
    grid: np.ndarray
    currents: Dict[str, np.ndarray]
    derivatives: Dict[str, np.ndarray]
    alphas: Dict[str, np.ndarray]
    errors: List[str]

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("sweep grid must be a nonempty 1-D array")
        if np.any(np.diff(g) <= 0):
            raise ValueError("sweep grid must be strictly ascending")
        columns = (*self.currents.values(), *self.derivatives.values(),
                   *self.alphas.values())
        if len(self.errors) != g.size or \
                any(np.shape(c) != g.shape for c in columns):
            raise ValueError("one record per grid point required")


def current_at(
    config: ModelConfig, t: float, terminal: str, *, boundary: str = "left"
) -> float:
    """J_X at time ``t`` (on the sample grid), from ``sample_currents``;
    this is ``evolve``'s value bit for bit."""
    if terminal not in config.system_terminals:
        raise ValueError(f"unknown terminal {terminal!r}")
    cur = sample_currents([config], [t], boundary)
    return float(cur[0, 0, config.system_terminals.index(terminal)])


def _alpha(dJX, dJM) -> np.ndarray:
    """dJX / dJM elementwise, NaN where |dJM| < DIVERGENCE_TOL or a NaN."""
    dJX, dJM = np.asarray(dJX, dtype=float), np.asarray(dJM, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(dJM) < DIVERGENCE_TOL, np.nan, dJX / dJM)


def amplification(
    config: ModelConfig,
    t: float,
    terminal: str,
    *,
    boundary: str = "left",
) -> AmplificationResult:
    """alpha_X(t) from the exact derivatives dJ/dT_mod of one
    ``sample_tangents`` call."""
    if terminal not in config.system_terminals:
        raise ValueError(f"unknown terminal {terminal!r}")
    mod = config.modulating_terminal
    if terminal == mod:
        raise ValueError(f"terminal {terminal!r} is the modulating one")
    _, deriv = sample_tangents([config], [t], boundary)
    index = config.system_terminals.index
    dJX, dJM = (float(deriv[0, 0, index(x)]) for x in (terminal, mod))
    alpha = float(_alpha(dJX, dJM))
    return AmplificationResult(terminal, t, alpha, dJX, dJM, math.isnan(alpha))


def find_critical_TM(
    config: ModelConfig,
    t: float,
    bracket: Tuple[float, float],
    *,
    tol: float = 1e-3,
    boundary: str = "left",
) -> float:
    """Temperature of the modulating bath where dJ_mod/dT crosses zero.

    The exact derivative is read at ``CRITICAL_SCAN_POINTS`` evenly
    spaced temperatures across the bracket, both ends included, in one
    ``sample_tangents`` call.  A scan point where it is exactly 0 is a
    root, and every sign change between neighbouring points is bisected
    to ``tol`` (absolute, in temperature units), all of them together.
    Exactly one root is returned; with none the error gives the
    derivative at both ends, and with several it names each root.
    """
    mod = config.modulating_terminal
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bad bracket {bracket}")

    def djm(temps) -> np.ndarray:
        _, deriv = sample_tangents(
            [config.with_temperature(mod, float(T)) for T in temps], [t],
            boundary)
        return deriv[:, 0, config.system_terminals.index(mod)]

    grid = np.linspace(lo, hi, CRITICAL_SCAN_POINTS)
    f = djm(grid)
    sign = np.sign(f)
    change = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    a, b, f_a = grid[change], grid[change + 1], f[change]
    for _ in range(CRITICAL_MAX_ITER):
        if not change.size or 0.5 * np.max(b - a) < tol:
            break
        mid = 0.5 * (a + b)
        f_mid = djm(mid)
        # an exact zero closes its bracket on itself
        zero = f_mid == 0.0
        up = ~zero & (np.sign(f_mid) == np.sign(f_a))
        a, b = np.where(up | zero, mid, a), np.where(up, b, mid)
        f_a = np.where(up, f_mid, f_a)
    roots = sorted(np.concatenate([grid[sign == 0], 0.5 * (a + b)]).tolist())
    if not roots:
        raise ValueError(
            "no sign change of the modulating-bath current derivative across "
            f"[{lo}, {hi}]: dJ({lo}) = {f[0]:.6e}, dJ({hi}) = {f[-1]:.6e}"
        )
    if len(roots) > 1:
        raise ValueError(
            f"{len(roots)} roots of the modulating-bath current derivative "
            f"across [{lo}, {hi}], at T = "
            + ", ".join(f"{r:.6g}" for r in roots))
    return roots[0]


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


def sweep(
    config: ModelConfig,
    axis: str,
    grid: Sequence[float],
    terminals: Optional[Sequence[str]] = None,
    *,
    t: Optional[float] = None,
    boundary: str = "left",
) -> SweepResult:
    """Amplification and currents along one parameter axis.

    ``axis`` is one of T_M / t / g / epsilon.  For every axis except ``t`` the
    evaluation time ``t`` is required.  ``terminals`` (default: all but the
    modulating one) get alpha columns.  Grid points run in series.
    Per-point failures are recorded on the point and do not abort the sweep;
    the points of a T_M sweep share one ``sample_tangents`` call, so an
    error raised inside that call is recorded on each of them.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    grid = np.asarray(list(grid), dtype=float)
    mod = config.modulating_terminal
    if terminals is None:
        terminals = tuple(x for x in config.system_terminals if x != mod)
    else:
        terminals = tuple(terminals)
        bad = set(terminals) - set(config.system_terminals)
        if bad:
            raise ValueError(f"unknown terminals {sorted(bad)}")
        if mod in terminals:
            raise ValueError(f"terminal {mod!r} is the modulating one")
    if axis != "t" and t is None:
        raise ValueError(f"axis {axis!r} needs an evaluation time t")

    n = len(grid)
    errors = [""] * n
    currents = {x: np.full(n, np.nan) for x in config.system_terminals}
    derivatives = {x: np.full(n, np.nan) for x in config.system_terminals}

    def fill(rows: List[int], configs: List[ModelConfig], times) -> None:
        cur, deriv = sample_tangents(configs, times, boundary)
        for i, x in enumerate(config.system_terminals):
            currents[x][rows] = cur[..., i].ravel()
            derivatives[x][rows] = deriv[..., i].ravel()

    if axis == "t":
        sd = config.sample_dt
        off = np.abs(grid / sd - np.round(grid / sd))
        if np.any(off > 1e-9):
            raise ValueError("time grid points must be sample_dt multiples")
        # one call covers every requested time
        fill(list(range(n)), [config], grid)
    else:
        valid = {}
        for i, value in enumerate(grid):
            try:
                valid[i] = _point_config(config, axis, float(value))
            except Exception as exc:  # recorded per point, sweep continues
                errors[i] = f"{type(exc).__name__}: {exc}"
        # every T_M point has the same H_tot, so one call serves them all
        batches = [list(valid)] if axis == "T_M" and valid else \
            [[i] for i in valid]
        for batch in batches:
            try:
                fill(batch, [valid[i] for i in batch], [t])
            except Exception as exc:  # recorded per point, sweep continues
                for i in batch:
                    errors[i] = f"{type(exc).__name__}: {exc}"

    alphas = {x: _alpha(derivatives[x], derivatives[mod]) for x in terminals}
    return SweepResult(axis, grid, currents, derivatives, alphas, errors)
