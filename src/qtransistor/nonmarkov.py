"""Distinguishability-based memory detection for the reduced qubit dynamics.

The collisional evolution of a single working-substance qubit (the other
qubits fixed in |0> and every ancilla thermal) defines a linear map on the
probe qubit's initial state.  Trace distance between two evolved probes can
only decrease under memoryless dynamics, so any increase witnesses
information backflow.  The measure computed here accumulates those increases,

    N = max_pair  sum_k  max(0, D(t_{k+1}) - D(t_k)),

maximized over pure initial pairs.  For a qubit the optimal pairs are
orthogonal, that is antipodal on the Bloch sphere (Wissmann et al., PRA 86,
062108 (2012)), so the one search scores antipodal pairs (theta, phi) on a
grid and refines the best by coordinate descent.

Evaluation trick: the reduced dynamics is linear in the input Bloch vector,
so four basis evolutions (|0>, |1>, |+>, |+i>) determine the marginal of any
initial state; the whole grid then costs one contraction and a closed-form
2x2 trace distance per pair and sample time.  Every marginal is taken from
the system states of ``engine.sample_states``.  A probe state
probe (x) |0...0> occupies at most two difference blocks
rho[a, a ^ delta] of the system state, the populations (delta = 0) and
the probed qubit's coherences (delta its bit), and ``sample_states``
carries just those, each on its own 2^n x 2^n map.  The reported optimum
is re-evaluated by evolving the pair itself before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import linalg as la
from .engine import _batched_qubit_marginal, _sample_index, sample_states
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


def _collision_ceiling(config: ModelConfig, t: float) -> float:
    """Smallest whole-collision horizon covering time ``t``."""
    dt = config.dt_collision
    n = max(1, int(math.ceil(t / dt - 1e-9)))
    return n * dt


def _full_initial(config: ModelConfig, terminal: str, probe: np.ndarray) -> np.ndarray:
    ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return la.kron(*[probe if x == terminal else ground
                     for x in config.system_terminals])


def _probe_marginals(config: ModelConfig, terminal: str,
                     probes: Sequence[BlochState],
                     t_max: float) -> np.ndarray:
    """Probe-qubit marginal at every sample time for each probe state,
    shape (len(probes), n_times, 2, 2), from one ``sample_states`` call."""
    if terminal not in config.system_terminals:
        raise ValueError(f"unknown terminal {terminal!r}")
    initials = [_full_initial(config, terminal, s.density_matrix())
                for s in probes]
    states = sample_states(config, initials, t_max)
    n_probes, n_times, d, _ = states.shape
    return _batched_qubit_marginal(
        states.reshape(-1, d, d), config.n_qubits,
        config.system_terminals.index(terminal)).reshape(
        n_probes, n_times, 2, 2)


def qubit_reduced_dynamics(
    config: ModelConfig,
    terminal: str,
    initial: BlochState,
    t_max: float,
) -> np.ndarray:
    """Probe-qubit marginal at every sample time, shape (n_times, 2, 2)."""
    return _probe_marginals(config, terminal, [initial], t_max)[0]


class _ReducedMap:
    """Linear map r -> marginal series, from four basis evolutions.

    Marginals of 1/2 (I + r.sigma) decompose as E0 + rx Ex + ry Ey + rz Ez;
    since every marginal has unit trace the E_i are traceless, and the
    difference of two evolved probes is [[a, b], [conj(b), -a]] with trace
    distance sqrt(a^2 + |b|^2) per sample time.  Only the (0, 0) and (0, 1)
    entries of the E_i are kept.
    """

    def __init__(self, config: ModelConfig, terminal: str, t_max: float):
        z_plus, z_minus, x_plus, y_plus = _probe_marginals(
            config, terminal,
            [BlochState(0.0, 0.0), BlochState(math.pi, 0.0),
             BlochState(math.pi / 2, 0.0),
             BlochState(math.pi / 2, math.pi / 2)], t_max)
        self.times = config.sample_dt * np.arange(len(z_plus))
        e0 = 0.5 * (z_plus + z_minus)
        self._comp = np.stack([
            x_plus - e0,                 # Ex
            y_plus - e0,                 # Ey
            0.5 * (z_plus - z_minus),    # Ez
        ])[:, :, 0, :]  # (3, n_times, 2)

    def pair_distance(self, delta_r: np.ndarray) -> np.ndarray:
        """Trace-distance series for pairs with Bloch differences
        ``delta_r`` of shape (..., 3); returns shape (..., n_times)."""
        m = np.tensordot(delta_r, self._comp, axes=(-1, 0))
        a = m[..., 0].real
        b = m[..., 1]
        return np.sqrt(a * a + np.abs(b) ** 2)


def distance_series(
    config: ModelConfig,
    terminal: str,
    pair: Tuple[BlochState, BlochState],
    t_max: float,
) -> np.ndarray:
    """D(t_k) between the two evolved probe marginals (direct simulation)."""
    s1, s2 = _probe_marginals(config, terminal, pair, t_max)
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


def _cumulative_positive(series: np.ndarray) -> np.ndarray:
    """Backflow accumulated up to each sample, along the last axis."""
    d = np.clip(np.diff(series), 0.0, None)
    zero = np.zeros(series.shape[:-1] + (1,))
    return np.concatenate([zero, np.cumsum(d, axis=-1)], axis=-1)


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


def _antipodal_search(
    rmap: _ReducedMap, cut: Sequence[int], search: SearchConfig
) -> List[Tuple[float, Tuple[float, float]]]:
    """Best antipodal pair for the backflow up to each sample index in
    ``cut``, as (value, (theta, phi)).

    The whole theta x phi grid is scored at once; the first maximum (the
    lowest theta, then the lowest phi) starts the refinement.
    """
    thetas = np.linspace(0.0, math.pi, search.grid_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, search.grid_phi, endpoint=False)
    angles = [(float(th), float(ph)) for th in thetas for ph in phis]
    deltas = np.stack([_antipodal_delta(BlochState(*a)) for a in angles])
    cums = _cumulative_positive(rmap.pair_distance(deltas))[:, cut]
    step0 = (float(thetas[1] - thetas[0]) / 2.0,
             float(phis[1] - phis[0]) / 2.0)
    found = []
    for j, i_cut in enumerate(cut):

        def score(theta: float, phi: float, _i=i_cut) -> float:
            delta = _antipodal_delta(BlochState(theta, phi))
            return _cumulative_positive(rmap.pair_distance(delta))[_i]

        start = angles[int(np.argmax(cums[:, j]))]
        found.append(_refine_antipodal(score, start, step0,
                                       search.refine_tol))
    return found


def blp_measure(
    config: ModelConfig,
    terminal: str,
    t_max: float = 3.0,
    search: SearchConfig = SearchConfig(),
) -> BLPResult:
    """Maximal accumulated trace-distance backflow for one probe qubit.

    Grid search over antipodal pure pairs with coordinate-descent refinement;
    ties break toward the lowest theta, then the lowest phi.  The winning
    pair is re-simulated directly and the reported value, series, and growth
    windows come from that independent evaluation.
    """
    rmap = _ReducedMap(config, terminal, t_max)
    [(_, best_ang)] = _antipodal_search(rmap, [len(rmap.times) - 1], search)
    s1 = BlochState(*best_ang)
    s2 = s1.antipode()
    series = distance_series(config, terminal, (s1, s2), t_max)
    return BLPResult(
        terminal=terminal,
        value=float(_cumulative_positive(series)[-1]),
        optimal_pair=(s1, s2),
        times=rmap.times,
        distance_series=series,
        growth_windows=growth_windows(rmap.times, series),
    )


def blp_series(
    config: ModelConfig,
    terminal: str,
    cutoffs: Sequence[float],
    search: SearchConfig = SearchConfig(),
) -> np.ndarray:
    """N per cutoff time: backflow accumulated up to each cutoff, maximized
    over antipodal pairs independently at every cutoff.  Cutoffs must lie
    on the sample grid; the run ends at the first window edge reaching
    the last one."""
    cutoffs = np.asarray(list(cutoffs), dtype=float)
    if cutoffs.size == 0 or np.any(np.diff(cutoffs) <= 0):
        raise ValueError("cutoffs must be strictly ascending and nonempty")
    cut = _sample_index(cutoffs, config.sample_dt)
    horizon = _collision_ceiling(config, float(cutoffs[-1]))
    rmap = _ReducedMap(config, terminal, horizon)
    return np.array([val for val, _ in _antipodal_search(rmap, cut, search)])
