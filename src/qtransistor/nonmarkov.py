"""Distinguishability-based memory detection for the reduced qubit dynamics.

The collisional evolution of a single working-substance qubit (the other
qubits fixed in |0> and every ancilla thermal) defines a linear map on the
probe qubit's initial state.  Trace distance between two evolved probes can
only decrease under memoryless dynamics, so any increase witnesses
information backflow.  The measure computed here accumulates those increases,

    N = max_pair  sum_k  max(0, D(t_{k+1}) - D(t_k)),

maximized over pure initial pairs.  For a qubit the optimal pairs are
orthogonal, that is antipodal on the Bloch sphere (Wissmann et al., PRA 86,
062108 (2012)), so the one search scores antipodal pairs (theta, phi): a
global scan, then a short local polish.

Evaluation trick: the reduced dynamics is linear in the input Bloch vector,
so four basis evolutions (|0>, |1>, |+>, |+i>) determine the marginal of any
initial state, and the squared trace distance of a pair whose Bloch vectors
differ by delta is a quadratic form delta^T Q(t) delta with a real
symmetric 3 x 3 Q(t) per sample time.  Any set of directions is then scored
by real products, their monomials [x^2, y^2, z^2, 2xy, 2xz, 2yz] times
the six distinct series of Q, with no complex arithmetic.  The scan scores
the pole, a few coarse rows in theta over the whole turn in phi, and the
equator sampled finely over phi in [0, pi); each cutoff reads the
backflow up to its own sample and takes its best scan point.  The polish
scores shrinking 5 x 5 patches in (theta, phi) around every cutoff's
point.  Every cutoff is last scored at the optimum of each earlier cutoff
too, which makes N non-decreasing along the cutoffs.  All three score
their directions in blocks whose distance table stays under 128 KiB
(``_antipodal_rises``), so the search's memory does not grow with the
directions times the samples.

Every marginal comes from ``engine.sample_marginals``, out of the
difference blocks rho[a, a ^ delta] of the system state that the engine
carries from window to window; the probes of several terminals share one
call.  A probe state probe (x) |0...0> occupies at most two of them, the
populations (delta = 0) and the probed qubit's coherences (delta its
bit); only those are carried, each on its own 2^n x 2^n map, and each
sample step's states are reduced by the engine's one marginal rule, so
no state history is held.  The reported optimum of ``blp_measure`` is
re-evaluated by evolving the pair itself before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import linalg as la
from .engine import _sample_index, sample_marginals
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
    """Settings of the antipodal search (``_antipodal_search``).

    ``grid_theta`` rows in theta run from the pole to the equator, both
    included, 90 / (grid_theta - 1) degrees apart; each row strictly
    between them holds ``grid_phi`` points over the whole turn in phi.  The
    equator is always scanned at ``_EQUATOR_SAMPLES`` points over the half
    turn.  ``refine_tol`` is the patch spacing in theta and phi, in
    radians, at which the polish of a cutoff may end.
    """

    grid_theta: int = 7
    grid_phi: int = 24
    refine_tol: float = 1e-4

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
    from one ``sample_marginals`` call."""
    for terminal, _ in probes:
        if terminal not in config.system_terminals:
            raise ValueError(f"unknown terminal {terminal!r}")
    initials = [_full_initial(config, x, s.density_matrix())
                for x, s in probes]
    sites = [config.system_terminals.index(x) for x, _ in probes]
    return sample_marginals(config, initials, sites, t_max)


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
        return _quadratic_distance(self.q, delta_r)


# the six distinct entries of a symmetric 3 x 3 Q, matching _monomials
_Q_ROWS, _Q_COLS = (0, 1, 2, 0, 0, 1), (0, 1, 2, 1, 2, 2)


def _monomials(v: np.ndarray) -> np.ndarray:
    """[x^2, y^2, z^2, 2xy, 2xz, 2yz] of vectors ``v`` (..., 3), so that
    v^T Q v is their product with the six distinct entries of Q."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    return np.stack([x * x, y * y, z * z, 2.0 * x * y, 2.0 * x * z,
                     2.0 * y * z], axis=-1)


def _quadratic_distance(q: np.ndarray, delta_r: np.ndarray) -> np.ndarray:
    """sqrt(delta^T Q(t) delta) for ``delta_r`` (..., 3) and ``q``
    (3, 3, n_times), shape (..., n_times): one product of the monomials
    with the six distinct series of Q."""
    return _distance(_monomials(delta_r), q[_Q_ROWS, _Q_COLS])


def _distance(monomials: np.ndarray, q6: np.ndarray) -> np.ndarray:
    """sqrt(max(0, m . Q)) for monomials m (..., 6) and the six distinct
    series ``q6`` (6, n_times) of Q, shape (..., n_times)."""
    d2 = monomials @ q6
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


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


def _accumulated(rise: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Backflow accumulated up to each sample index of ``cut``, from the
    rises between samples along the last axis: their running sums, taken
    in place in ``rise``, shape rise.shape[:-1] + cut.shape."""
    flow = np.cumsum(rise, axis=-1, out=rise)
    return np.where(cut > 0, flow[..., cut - 1], 0.0)


# a distance table stays under glibc's mmap threshold (README "Memory")
_TABLE_BYTES = 128 * 1024


def _antipodal_rises(q: np.ndarray, theta: np.ndarray, phi: np.ndarray):
    """Score the antipodal pairs at Bloch angles ``theta``, ``phi``, shape
    (n_items, n_directions), a block at a time.

    Yields ``(items, directions, rise)``: the slices of a block and
    max(0, D(t_{k+1}) - D(t_k)) of each of its pairs, shape (block
    items, block directions, n_times - 1).  A block holds whole items,
    or one item's directions, as many as keep its distance table under
    ``_TABLE_BYTES``.  Each item's directions take one product with the
    six series of ``q``, so a pair's bits do not depend on the rest of
    its block.
    """
    n_items, n_dirs = theta.shape
    st = np.sin(theta)
    monomials = _monomials(2.0 * np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1))
    q6 = q[_Q_ROWS, _Q_COLS]
    rows = max(1, (_TABLE_BYTES - 1) // (8 * q.shape[-1]))
    group, block = (rows // n_dirs, n_dirs) if n_dirs <= rows else (1, rows)
    for i in range(0, n_items, group):
        for j in range(0, n_dirs, block):
            items, dirs = slice(i, i + group), slice(j, j + block)
            dist = _distance(monomials[items, dirs], q6)
            rise = np.subtract(dist[..., 1:], dist[..., :-1])
            del dist  # the caller holds one table
            yield items, dirs, np.maximum(rise, 0.0, out=rise)


# phi samples of the equator scan, over the half turn [0, pi) since phi and
# phi + pi are the two members of one pair there; at 180 samples the scan
# picks a wrong phi basin on some preset maps (N low by up to 1.2e-6)
_EQUATOR_SAMPLES = 360
# a polish patch in units of its (theta, phi) spacing, centre first so that
# a patch moves its cutoff only on a strict gain
_PATCH = np.array([(0, 0)] + [(a, b) for a in range(-2, 3)
                               for b in range(-2, 3) if a or b], dtype=float)
_SHRINK = 4.0


def _scan_directions(
        search: SearchConfig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scan (theta, phi) in scan order, and the (theta, phi) spacing of a
    first polish patch from each: half the row spacing, and half the phi
    spacing of the point's row.  The scan holds the pole, the
    ``grid_theta`` - 2 rows between it and the equator with ``grid_phi``
    samples over the whole turn, and the equator's ``_EQUATOR_SAMPLES``;
    every antipodal pair has a member on this closed upper hemisphere."""
    rows = np.linspace(0.0, math.pi / 2, search.grid_theta)[1:-1]
    ring = np.linspace(0.0, 2.0 * math.pi, search.grid_phi, endpoint=False)
    equator = np.linspace(0.0, math.pi, _EQUATOR_SAMPLES, endpoint=False)
    theta = np.concatenate([[0.0], np.repeat(rows, len(ring)),
                            np.full(len(equator), math.pi / 2)])
    phi = np.concatenate([[0.0], np.tile(ring, len(rows)), equator])
    half_row = math.pi / 4 / (search.grid_theta - 1)
    spacing = np.empty((len(theta), 2))
    spacing[:-len(equator)] = (half_row, ring[1] / 2)
    spacing[-len(equator):] = (half_row, equator[1] / 2)
    return theta, phi, spacing


def _antipodal_search(
    rmap: _ReducedMap, cut: Sequence[int], search: SearchConfig
) -> List[Tuple[float, Tuple[float, float]]]:
    """Best antipodal pair for the backflow up to each sample index in
    ``cut`` (ascending), as (value, (theta, phi)).

    Every pair is scored through ``_antipodal_rises``, a block of
    directions at a time.  A scan scores every direction of
    ``_scan_directions``, each cutoff reading the backflow up to its own
    sample as a running sum, and each cutoff starts from its first best
    scan point.  A polish then scores 5 x 5 patches around every cutoff's
    point, each patch's backflow up to its cutoff as one weighted sum
    whose 0/1 weights are made per block, for its cutoffs only, and
    moves the point to the patch's best (the centre on ties).  A best
    point inside the patch shrinks the next patch 4x; one on its edge
    moves the patch at the same spacing.  A cutoff is done after a patch
    at most ``refine_tol`` apart in theta and phi whose best point lies
    inside it.  Last, every cutoff is scored at
    the optimum of each cutoff up to it and keeps the best, its own on
    ties: a pair's backflow never falls as its cutoff grows, so N is
    non-decreasing along ``cut``.
    """
    cut = np.asarray(cut)
    q = rmap.q
    theta, phi, spacing = _scan_directions(search)
    flow = np.empty((len(theta), len(cut)))
    for _, dirs, rise in _antipodal_rises(q, theta[None], phi[None]):
        flow[dirs] = _accumulated(rise[0], cut)
    first = np.argmax(flow, axis=0)
    theta, phi, spacing = theta[first], phi[first], spacing[first]

    steps = np.arange(q.shape[-1] - 1)
    todo = np.arange(len(cut))
    while todo.size:
        th = np.clip(theta[todo, None] + spacing[todo, :1] * _PATCH[:, 0],
                     0.0, math.pi)
        ph = phi[todo, None] + spacing[todo, 1:] * _PATCH[:, 1]
        val = np.empty(th.shape)
        for items, _, rise in _antipodal_rises(q, th, ph):
            upto = (steps < cut[todo[items], None]).astype(float)
            val[items] = (rise @ upto[..., None])[..., 0]
        pick = np.argmax(val, axis=1)
        theta[todo] = th[np.arange(todo.size), pick]
        phi[todo] = ph[np.arange(todo.size), pick] % (2.0 * math.pi)
        inside = np.abs(_PATCH[pick]).max(axis=1) < 2
        done = inside & (spacing[todo].max(axis=1) <= search.refine_tol)
        spacing[todo[inside]] /= _SHRINK
        todo = todo[~done]

    # values[j, k]: cutoff k at cutoff j's optimum, for j <= k; the argmax
    # over reversed rows takes a cutoff's own optimum on ties
    values = np.empty((len(cut), len(cut)))
    for items, _, rise in _antipodal_rises(q, theta[:, None],
                                           phi[:, None]):
        values[items] = _accumulated(rise[:, 0], cut)
    values[np.tril_indices(len(cut), -1)] = -np.inf
    pick = len(cut) - 1 - np.argmax(values[::-1], axis=0)
    return [(float(values[j, k]), (float(theta[j]), float(phi[j])))
            for k, j in enumerate(pick)]


def blp_measure(
    config: ModelConfig,
    terminal: str,
    t_max: float = 3.0,
    search: SearchConfig = SearchConfig(),
) -> BLPResult:
    """Maximal accumulated trace-distance backflow for one probe qubit.

    Scan-and-polish search over antipodal pure pairs
    (``_antipodal_search``); ties break toward the first scan direction
    (the pole, then the rows by rising theta and phi, then the equator by
    rising phi), and a polish patch moves only on a strict gain.  The
    winning pair is re-simulated directly and the reported value, series,
    and growth windows come from that independent evaluation.
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
    terminal are then evolved in one ``sample_marginals`` call."""
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
