"""Distinguishability-based memory detection for the reduced qubit dynamics.

The collisional evolution of a single working-substance qubit (the other
qubits fixed in |0> and every ancilla thermal) defines a linear map on the
probe qubit's initial state.  Trace distance between two evolved probes can
only decrease under memoryless dynamics, so any increase witnesses
information backflow.  The measure computed here accumulates those increases,

    N = max_pair  sum_k  max(0, D(t_{k+1}) - D(t_k)),

maximized over pure initial pairs.  The primary search walks antipodal pairs
(theta, phi) on a grid with local refinement; a general four-angle mode is
available behind a flag to guard the antipodal assumption.

Evaluation trick: the reduced dynamics is linear in the input Bloch vector,
so four basis evolutions (|0>, |1>, |+>, |+i>) determine the marginal of any
initial state; a candidate pair then costs a closed-form 2x2 trace distance
per sample time instead of a fresh simulation.  The reported optimum is
re-evaluated with direct simulations before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import linalg as la
from .engine import evolve
from .metrics import _collision_ceiling
from .model import ModelConfig

__all__ = [
    "BlochState",
    "SearchConfig",
    "BLPResult",
    "qubit_reduced_dynamics",
    "distance_series",
    "growth_windows",
    "blp_measure",
    "blp_series",
]


@dataclass(frozen=True)
class BlochState:
    """Pure qubit state by Bloch angles, theta in [0, pi], phi in [0, 2 pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"theta out of range: {self.theta}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    @property
    def bloch_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([
            st * math.cos(self.phi),
            st * math.sin(self.phi),
            math.cos(self.theta),
        ])

    def density_matrix(self) -> np.ndarray:
        rx, ry, rz = self.bloch_vector
        return 0.5 * np.array([
            [1.0 + rz, rx - 1j * ry],
            [rx + 1j * ry, 1.0 - rz],
        ])

    def antipode(self) -> "BlochState":
        return BlochState(math.pi - self.theta, self.phi + math.pi)


@dataclass(frozen=True)
class SearchConfig:
    grid_theta: int = 24
    grid_phi: int = 48
    refine_tol: float = 1e-3
    general_pairs: bool = False

    def __post_init__(self):
        if self.grid_theta < 2 or self.grid_phi < 2:
            raise ValueError("search grid too small")
        if self.refine_tol <= 0:
            raise ValueError("refine_tol must be positive")


@dataclass(frozen=True)
class BLPResult:
    terminal: str
    value: float
    optimal_pair: Tuple[BlochState, BlochState]
    times: np.ndarray
    distance_series: np.ndarray
    growth_windows: List[Tuple[float, float]]


def _full_initial(config: ModelConfig, terminal: str, probe: np.ndarray) -> np.ndarray:
    ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    factors = [
        probe if x == terminal else ground for x in config.system_terminals
    ]
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def qubit_reduced_dynamics(
    config: ModelConfig,
    terminal: str,
    initial: BlochState,
    t_max: float,
    *,
    boundary: str = "left",
) -> np.ndarray:
    """Probe-qubit marginal at every sample time, shape (n_times, 2, 2)."""
    if terminal not in config.system_terminals:
        raise ValueError(f"unknown terminal {terminal!r}")
    rho0 = _full_initial(config, terminal, initial.density_matrix())
    traj = evolve(config, t_max, marginal_terminal=terminal, boundary=boundary,
                  initial=rho0)
    return traj.qubit_states[terminal]


class _ReducedMap:
    """Linear map r -> marginal series, from four basis evolutions.

    Marginals of 1/2 (I + r.sigma) decompose as E0 + rx Ex + ry Ey + rz Ez;
    since every marginal has unit trace the E_i are traceless, and the
    difference of two evolved probes is [[a, b], [conj(b), -a]] with trace
    distance sqrt(a^2 + |b|^2) per sample time.
    """

    def __init__(self, config: ModelConfig, terminal: str, t_max: float,
                 boundary: str = "left"):
        basis = {
            "z+": BlochState(0.0, 0.0),
            "z-": BlochState(math.pi, 0.0),
            "x+": BlochState(math.pi / 2, 0.0),
            "y+": BlochState(math.pi / 2, math.pi / 2),
        }
        out = {}
        for name, state in basis.items():
            rho0 = _full_initial(config, terminal, state.density_matrix())
            traj = evolve(config, t_max, marginal_terminal=terminal,
                          boundary=boundary, initial=rho0)
            out[name] = traj.qubit_states[terminal]
        self.times = traj.times
        self.index_at = traj.index_at
        e0 = 0.5 * (out["z+"] + out["z-"])
        self._comp = np.stack([
            out["x+"] - e0,          # Ex
            out["y+"] - e0,          # Ey
            0.5 * (out["z+"] - out["z-"]),  # Ez
        ])  # (3, n_times, 2, 2)

    def pair_distance(self, delta_r: np.ndarray) -> np.ndarray:
        """Trace-distance series for a pair with Bloch difference ``delta_r``."""
        m = np.tensordot(delta_r, self._comp, axes=(0, 0))  # (n_times, 2, 2)
        a = m[:, 0, 0].real
        b = m[:, 0, 1]
        return np.sqrt(a * a + np.abs(b) ** 2)


def distance_series(
    config: ModelConfig,
    terminal: str,
    pair: Tuple[BlochState, BlochState],
    t_max: float,
    *,
    boundary: str = "left",
) -> np.ndarray:
    """D(t_k) between the two evolved probe marginals (direct simulation)."""
    s1 = qubit_reduced_dynamics(config, terminal, pair[0], t_max,
                                boundary=boundary)
    s2 = qubit_reduced_dynamics(config, terminal, pair[1], t_max,
                                boundary=boundary)
    return np.array([la.trace_distance(a, b) for a, b in zip(s1, s2)])


def growth_windows(
    times: np.ndarray, series: np.ndarray, min_increment: float = 0.0
) -> List[Tuple[float, float]]:
    """Maximal [t_start, t_end] intervals over which the series increases."""
    inc = np.diff(series) > min_increment
    windows: List[Tuple[float, float]] = []
    start = None
    for i, up in enumerate(inc):
        if up and start is None:
            start = times[i]
        elif not up and start is not None:
            windows.append((float(start), float(times[i])))
            start = None
    if start is not None:
        windows.append((float(start), float(times[-1])))
    return windows


def _positive_sum(series: np.ndarray) -> float:
    d = np.diff(series)
    return float(d[d > 0.0].sum())


def _cumulative_positive(series: np.ndarray) -> np.ndarray:
    d = np.clip(np.diff(series), 0.0, None)
    return np.concatenate([[0.0], np.cumsum(d)])


def _antipodal_delta(s: BlochState) -> np.ndarray:
    return 2.0 * s.bloch_vector


def _refine_antipodal(
    score,
    start: Tuple[float, float],
    step0: Tuple[float, float],
    tol: float,
) -> Tuple[float, Tuple[float, float]]:
    # coordinate descent with shrinking steps; deterministic given the start
    theta, phi = start
    best = score(theta, phi)
    step_t, step_p = step0
    while max(step_t, step_p) > tol:
        improved = False
        for dt_, dp_ in ((step_t, 0.0), (-step_t, 0.0), (0.0, step_p),
                         (0.0, -step_p)):
            th = min(max(theta + dt_, 0.0), math.pi)
            ph = (phi + dp_) % (2.0 * math.pi)
            val = score(th, ph)
            if val > best + 1e-15:
                theta, phi, best = th, ph, val
                improved = True
        if not improved:
            step_t *= 0.5
            step_p *= 0.5
    return best, (theta, phi)


def blp_measure(
    config: ModelConfig,
    terminal: str,
    t_max: float = 3.0,
    search: SearchConfig = SearchConfig(),
    *,
    boundary: str = "left",
) -> BLPResult:
    """Maximal accumulated trace-distance backflow for one probe qubit.

    Grid search over antipodal pure pairs with coordinate-descent refinement;
    ties break toward the lowest theta, then the lowest phi.  The winning
    pair is re-simulated directly and the reported value, series, and growth
    windows come from that independent evaluation.
    """
    if terminal not in config.system_terminals:
        raise ValueError(f"unknown terminal {terminal!r}")
    rmap = _ReducedMap(config, terminal, t_max, boundary)

    def score_antipodal(theta: float, phi: float) -> float:
        delta = _antipodal_delta(BlochState(theta, phi))
        return _positive_sum(rmap.pair_distance(delta))

    thetas = np.linspace(0.0, math.pi, search.grid_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, search.grid_phi, endpoint=False)
    best_val, best_ang = -1.0, (0.0, 0.0)
    for th in thetas:
        for ph in phis:
            val = score_antipodal(th, ph)
            if val > best_val + 1e-12:
                best_val, best_ang = val, (float(th), float(ph))
    step0 = (float(thetas[1] - thetas[0]) / 2.0, float(phis[1] - phis[0]) / 2.0)
    best_val, best_ang = _refine_antipodal(
        score_antipodal, best_ang, step0, search.refine_tol
    )
    s1 = BlochState(*best_ang)
    s2 = s1.antipode()

    if search.general_pairs:
        # guard pass: both states free (coarser grid, same refinement idea)
        th_g = np.linspace(0.0, math.pi, max(6, search.grid_theta // 2))
        ph_g = np.linspace(0.0, 2.0 * math.pi, max(8, search.grid_phi // 2),
                           endpoint=False)
        gen_best, gen_pair = -1.0, None
        for t1 in th_g:
            for p1 in ph_g:
                r1 = BlochState(t1, p1).bloch_vector
                for t2 in th_g:
                    for p2 in ph_g:
                        delta = r1 - BlochState(t2, p2).bloch_vector
                        val = _positive_sum(rmap.pair_distance(delta))
                        if val > gen_best + 1e-12:
                            gen_best = val
                            gen_pair = (BlochState(t1, p1), BlochState(t2, p2))
        if gen_best > best_val + 1e-12:
            s1, s2 = gen_pair
            best_val = gen_best

    series = distance_series(config, terminal, (s1, s2), t_max,
                             boundary=boundary)
    times = rmap.times
    return BLPResult(
        terminal=terminal,
        value=_positive_sum(series),
        optimal_pair=(s1, s2),
        times=times,
        distance_series=series,
        growth_windows=growth_windows(times, series),
    )


def blp_series(
    config: ModelConfig,
    terminal: str,
    cutoffs: Sequence[float],
    search: SearchConfig = SearchConfig(),
    *,
    boundary: str = "left",
) -> np.ndarray:
    """N per cutoff time: backflow accumulated up to each cutoff, maximized
    over antipodal pairs independently at every cutoff.  Cutoffs must lie
    on the sample grid; the run ends at the first window edge reaching
    the last one."""
    cutoffs = np.asarray(list(cutoffs), dtype=float)
    if cutoffs.size == 0 or np.any(np.diff(cutoffs) <= 0):
        raise ValueError("cutoffs must be strictly ascending and nonempty")
    horizon = _collision_ceiling(config, float(cutoffs[-1]))
    rmap = _ReducedMap(config, terminal, horizon, boundary)
    idx = [rmap.index_at(c) for c in cutoffs]

    thetas = np.linspace(0.0, math.pi, search.grid_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, search.grid_phi, endpoint=False)
    cums = []
    for th in thetas:
        for ph in phis:
            delta = _antipodal_delta(BlochState(th, ph))
            cums.append(_cumulative_positive(rmap.pair_distance(delta)))
    cums = np.stack(cums)  # (n_pairs, n_times)
    out = cums[:, idx].max(axis=0)

    # refine each cutoff from the best grid pair for that cutoff
    flat_angles = [(th, ph) for th in thetas for ph in phis]
    for j, i_cut in enumerate(idx):
        k = int(np.argmax(cums[:, i_cut]))

        def score(theta: float, phi: float, _i=i_cut) -> float:
            delta = _antipodal_delta(BlochState(theta, phi))
            return _cumulative_positive(rmap.pair_distance(delta))[_i]

        step0 = (float(thetas[1] - thetas[0]) / 2.0,
                 float(phis[1] - phis[0]) / 2.0)
        val, _ = _refine_antipodal(score, flat_angles[k], step0,
                                   search.refine_tol)
        out[j] = max(out[j], val)
    return out
