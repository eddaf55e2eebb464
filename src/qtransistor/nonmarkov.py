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
initial state, and the squared trace distance of a pair whose Bloch vectors
differ by delta is a quadratic form delta^T Q(t) delta with a real
symmetric 3 x 3 Q(t) per sample time.  Six real series then score any pair
with a few elementwise products, with no complex arithmetic.  The grid is
scored in one call, and the coordinate descents of all cutoffs run in
lockstep: every move scores each cutoff still refining in one call, while
each cutoff follows its own descent.  Every marginal is taken from the
system states of ``engine.sample_states``; the probes of several terminals
share one call.  A probe state probe (x) |0...0> occupies at most two
difference blocks rho[a, a ^ delta] of the system state, the populations
(delta = 0) and the probed qubit's coherences (delta its bit), and
``sample_states`` carries just those, each on its own 2^n x 2^n map.  The
reported optimum of ``blp_measure`` is re-evaluated by evolving the pair
itself before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

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


_BASIS = (BlochState(0.0, 0.0), BlochState(math.pi, 0.0),
          BlochState(math.pi / 2, 0.0), BlochState(math.pi / 2, math.pi / 2))


def _probe_marginals(config: ModelConfig,
                     probes: Sequence[Tuple[str, BlochState]],
                     t_max: float) -> np.ndarray:
    """Marginal of the probed qubit at every sample time for each
    (terminal, state) in ``probes``, shape (len(probes), n_times, 2, 2),
    from one ``sample_states`` call."""
    for terminal, _ in probes:
        if terminal not in config.system_terminals:
            raise ValueError(f"unknown terminal {terminal!r}")
    initials = [_full_initial(config, x, s.density_matrix())
                for x, s in probes]
    states = sample_states(config, initials, t_max)
    return np.stack([
        _batched_qubit_marginal(series, config.n_qubits,
                                config.system_terminals.index(x))
        for (x, _), series in zip(probes, states)])


def qubit_reduced_dynamics(
    config: ModelConfig,
    terminal: str,
    initial: BlochState,
    t_max: float,
) -> np.ndarray:
    """Probe-qubit marginal at every sample time, shape (n_times, 2, 2)."""
    return _probe_marginals(config, [(terminal, initial)], t_max)[0]


class _ReducedMap:
    """Trace distance of any probe pair, from four basis evolutions.

    Marginals of 1/2 (I + r.sigma) decompose as E0 + rx Ex + ry Ey + rz Ez;
    since every marginal has unit trace the E_i are traceless, and two
    evolved probes whose Bloch vectors differ by delta differ by
    [[a, b], [conj(b), -a]], with a = delta.A and b = delta.B for A_i the
    real (0, 0) entry of E_i and B_i its (0, 1) entry.  Their trace
    distance is sqrt(a^2 + |b|^2) = sqrt(delta^T Q delta) per sample time,
    with the real symmetric positive semidefinite

        Q = A A^T + Re B Re B^T + Im B Im B^T,

    kept as ``q`` of shape (3, 3, n_times).  ``marginals`` are the four
    basis marginals (``_BASIS`` order) if they are already evolved.
    """

    def __init__(self, config: ModelConfig, terminal: str, t_max: float,
                 marginals: Optional[np.ndarray] = None):
        if marginals is None:
            marginals = _probe_marginals(
                config, [(terminal, s) for s in _BASIS], t_max)
        z_plus, z_minus, x_plus, y_plus = marginals
        self.times = config.sample_dt * np.arange(len(z_plus))
        e0 = 0.5 * (z_plus + z_minus)
        comp = np.stack([
            x_plus - e0,                 # Ex
            y_plus - e0,                 # Ey
            0.5 * (z_plus - z_minus),    # Ez
        ])[:, :, 0, :]  # (3, n_times, 2)
        parts = (comp[..., 0].real, comp[..., 1].real, comp[..., 1].imag)
        self.q = np.empty((3, 3, len(self.times)))
        for i in range(3):
            for j in range(i + 1):
                self.q[i, j] = self.q[j, i] = sum(
                    p[i] * p[j] for p in parts)

    def pair_distance(self, delta_r: np.ndarray) -> np.ndarray:
        """Trace-distance series for pairs with Bloch differences
        ``delta_r`` of shape (..., 3); returns shape (..., n_times)."""
        x, y, z = np.moveaxis(np.asarray(delta_r, dtype=float), -1, 0)
        x, y, z = x[..., None], y[..., None], z[..., None]
        q = self.q
        d2 = x * x * q[0, 0] + y * y * q[1, 1] + z * z * q[2, 2] \
            + 2.0 * (x * y * q[0, 1] + x * z * q[0, 2] + y * z * q[1, 2])
        return np.sqrt(np.maximum(d2, 0.0))


def distance_series(
    config: ModelConfig,
    terminal: str,
    pair: Tuple[BlochState, BlochState],
    t_max: float,
) -> np.ndarray:
    """D(t_k) between the two evolved probe marginals (direct simulation)."""
    s1, s2 = _probe_marginals(config, [(terminal, s) for s in pair], t_max)
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


def _antipodal_backflow(rmap: _ReducedMap, theta: np.ndarray,
                        phi: np.ndarray) -> np.ndarray:
    """Backflow accumulated up to each sample for the antipodal pairs at
    Bloch angles ``theta``, ``phi`` (arrays of one shape), shape
    (..., n_times)."""
    st = np.sin(theta)
    delta = 2.0 * np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    return _cumulative_positive(rmap.pair_distance(delta))


# coordinate-descent moves in units of the (theta, phi) steps, in order
_MOVES = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


def _antipodal_search(
    rmap: _ReducedMap, cut: Sequence[int], search: SearchConfig
) -> List[Tuple[float, Tuple[float, float]]]:
    """Best antipodal pair for the backflow up to each sample index in
    ``cut``, as (value, (theta, phi)).

    The whole theta x phi grid is scored at once; the first maximum (the
    lowest theta, then the lowest phi) starts a coordinate descent per
    cutoff.  Each sweep tries the moves of ``_MOVES`` in turn, keeping one
    that gains more than 1e-15, and a sweep without a gain halves both
    steps; a cutoff is done once both steps are within ``refine_tol``.
    The descents run in lockstep, every unfinished cutoff scored in one
    call per move.
    """
    cut = np.asarray(cut)
    thetas = np.linspace(0.0, math.pi, search.grid_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, search.grid_phi, endpoint=False)
    grid = _antipodal_backflow(
        rmap, *np.meshgrid(thetas, phis, indexing="ij"))[..., cut]
    first = np.argmax(grid.reshape(-1, len(cut)), axis=0)
    theta = thetas[first // len(phis)]
    phi = phis[first % len(phis)]
    step = np.array([thetas[1] - thetas[0], phis[1] - phis[0]]) / 2.0
    scale = np.ones(len(cut))  # halvings so far, as 2**-k

    def score(k: np.ndarray, th: np.ndarray, ph: np.ndarray) -> np.ndarray:
        return _antipodal_backflow(rmap, th, ph)[np.arange(len(k)), cut[k]]

    best = score(np.arange(len(cut)), theta, phi)
    while True:
        k = np.flatnonzero(step.max() * scale > search.refine_tol)
        if not k.size:
            break
        improved = np.zeros(k.size, dtype=bool)
        for move_t, move_p in _MOVES:
            th = np.minimum(np.maximum(
                theta[k] + move_t * step[0] * scale[k], 0.0), math.pi)
            ph = (phi[k] + move_p * step[1] * scale[k]) % (2.0 * math.pi)
            val = score(k, th, ph)
            up = val > best[k] + 1e-15
            theta[k[up]], phi[k[up]], best[k[up]] = th[up], ph[up], val[up]
            improved |= up
        scale[k[~improved]] *= 0.5
    return [(float(v), (float(th), float(ph)))
            for v, th, ph in zip(best, theta, phi)]


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
    terminal: Union[str, Sequence[str]],
    cutoffs: Sequence[float],
    search: SearchConfig = SearchConfig(),
) -> np.ndarray:
    """N per cutoff time: backflow accumulated up to each cutoff, maximized
    over antipodal pairs independently at every cutoff.  Cutoffs must lie
    on the sample grid; the run ends at the first window edge reaching
    the last one.

    ``terminal`` is one terminal name, giving shape (len(cutoffs),), or a
    sequence of them, giving one row per terminal; the probes of every
    terminal are then evolved in one ``sample_states`` call."""
    cutoffs = np.asarray(list(cutoffs), dtype=float)
    if cutoffs.size == 0 or np.any(np.diff(cutoffs) <= 0):
        raise ValueError("cutoffs must be strictly ascending and nonempty")
    terminals = [terminal] if isinstance(terminal, str) else list(terminal)
    cut = _sample_index(cutoffs, config.sample_dt)
    horizon = _collision_ceiling(config, float(cutoffs[-1]))
    marginals = _probe_marginals(
        config, [(x, s) for x in terminals for s in _BASIS], horizon)
    series = np.array([
        [val for val, _ in _antipodal_search(
            _ReducedMap(config, x, horizon, marginals[4 * i:4 * i + 4]),
            cut, search)]
        for i, x in enumerate(terminals)])
    return series[0] if isinstance(terminal, str) else series
