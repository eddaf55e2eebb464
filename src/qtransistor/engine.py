"""Repeated-collision propagation of the transistor working substance.

Every collision window follows the same pattern: fresh thermal ancillas
are attached to their terminals, the joint state evolves unitarily under
the total Hamiltonian for one window, intra-window samples are recorded,
and the ancillas are traced out and discarded.  Windows are back to
back; there is no free evolution between them.

Each qubit X couples only to its own ancilla, through sx (x) Sx, and
every other term of the total Hamiltonian is diagonal, so every local
parity P_X = sz_X (x) (-1)^m_X (``model.local_parities``) commutes with
H_tot.  H_tot splits into the 2^n sectors of their joint eigenvalues,
all of one size: 8 sectors of 27 at the default 216 joint dimensions.
The sector blocks are filled straight from the real entries of H_tot
(``model.hamiltonian_entries``) and all diagonalized in one call, to
eigenvalues w and eigenvectors V: a core, built by each chain or carry
that reads it and freed with it.  A core refuses an entry with an
imaginary part, so w and V are real and the engine runs on real
arithmetic: the window unitary at tau is

    U = V diag(exp(-i tau w)) V^T = C - i S,
    C = V diag(cos tau w) V^T,   S = V diag(sin tau w) V^T,

from real products, and |U|^2 = C^2 + S^2.  No joint-space matrix is
formed: everything else is read off the d_env x d_env sector stacks by
the code that needs it.

Heat currents come from the conserved-commutator form

    J_X = -Tr(rhodot_X H_X),   rhodot_X = Tr_rest(-i [H_tot, rho]),

with the sign chosen so that heat leaving qubit X is positive.

Currents run on a population chain.  The fresh ancilla state diag(p) is
diagonal, and each current generator K_X = i [H_X, H_tot] commutes with
every P_Y, so a current reads only the 2^n system populations pi,
whatever coherences the system state carries, and the populations evolve
among themselves.  Window to window the transistor is a Markov chain

    pi_{n+1} = T pi_n,   T = sum_e p_e T_e,
    T_e[b, a] = sum_f |U[(b, f), (a, e)]|^2,   U = exp(-i dt H_tot),

with T column-stochastic.  The current at phase row s of window n,
tau_s = s * sample_dt after the attach, is

    J_X = sum_{a, e} pi_n[a] p_e c_s^X[(a, e)],
    c_s^X[i] = <i| U_s^dagger K_X U_s |i>,

a diagonal functional.  In the sector eigenbasis the generator is
K_X' = i G_X with G_X real and antisymmetric, formed by the
``Propagator`` that reads it, and each sector gives

    c_s^X = -2 rowsum((B_s G_X) o A_s),
    A_s = V diag(cos tau_s w),   B_s = V diag(sin tau_s w),

the real part of rowsum((W_s K_X') o conj(W_s)) with W_s = A_s + i B_s,
whose imaginary part vanishes.  T and c are linear in p, and bath
temperatures enter only through p, so one core serves every temperature.
A detached X has G_X = 0 exactly, and its current is an exact zero.

The same linearity gives exact derivatives in the modulating bath's
temperature T_mod.  Only the modulating ancilla's Boltzmann factor
depends on it, so p' = dp/dT_mod = p o (E_mod - <E_mod>) / T_mod^2, with
E_mod its level energies (p' = 0 when it is detached), and

    dpi_{n+1} = T(p) dpi_n + T(p') pi_n,   dpi_0 = 0,
    dJ_X = F(p) . dpi_n + F(p') . pi_n.

p and p' are rows of one stack, so the sector products are taken once.

Every current takes one route.  ``_window_rows`` maps a sample to its
window n and row s, the one place an edge is given to a side.  A
``Propagator`` holds T and the functionals at the rows read for configs
that share H_tot, and ``collision`` steps them all one window, with
their derivatives.  ``sample_tangents`` starts each chain at |0...0>
and reads J and dJ/dT_mod, ``sample_currents`` its J, and ``evolve``
starts at the diagonal of its initial state.  Every product is taken per config, so a
config reads the same bits alone or in a batch, at any subset of times.

System states, coherences included, come from one carry.  The window
channel

    rho_{n+1} = sum_{f,e} p_e U_fe rho_n U_fe^dagger,

with U_fe the system blocks of U, is covariant under every local parity,
so it moves each difference block x_delta[a] = rho[a, a ^ delta] (XOR of
the system labels) on its own 2^n x 2^n map M_delta, read off the sector
unitaries by real products of their elementwise summands; M_0 is T.  A
state is carried from window to window as the blocks its initial state
occupies: the populations and the probed qubit's coherences for a BLP
probe, all 2^n blocks for a general rho.  The sample at row s of a
window is the maps at tau_s applied to the blocks at the window's start
(``_carried_blocks``), summed elementwise (``_apply``).  Both readers
scatter the carried blocks into whole states (``_whole_states``):
``sample_states`` keeps them for ``evolve(store_states=True)``, and
``sample_marginals`` reduces each yield by ``evolve``'s qubit marginal
(``_batched_qubit_marginal``) to the 2 x 2 marginals that the backflow
search reads, so it holds no state history.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import hermitian_eig, partial_trace
from .model import (ModelConfig, SpinOps, build_env_local_hamiltonian,
                    hamiltonian_entries, local_parities)

BOUNDARY_SIDES = ("left", "right")


def initial_state(n_qubits: int = 3) -> np.ndarray:
    """|0...0><0...0| on the system qubits (each local sz = +1)."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    d = 2 ** n_qubits
    rho = np.zeros((d, d), dtype=np.complex128)
    rho[0, 0] = 1.0
    return rho


class _Core:
    """Spectral data of one H_tot, held by the ``Propagator`` or the
    carry (``_carried_blocks``) that builds it, for every window, config
    and phase row that reads it.

    H_tot commutes with each local parity P_X (``model.local_parities``),
    so it is diagonalized in the 2^n sectors of their joint eigenvalues.
    A qubit and its ancilla's levels split evenly between P_X = +1 and
    -1, so every sector holds d_env joint states, and the spectral data
    are stacked over the sectors: ``index`` (ascending joint indices) and
    ``w`` of shape (d_sys, d_env), ``v`` of (d_sys, d_env, d_env), all
    sectors diagonalized in one ``hermitian_eig`` call.  The joint-space
    matrix is never formed (``_sector_hamiltonian``).  H_tot is real: a
    block with a nonzero imaginary entry is refused, and the real blocks
    give real ``w`` and ``v``.
    """

    def __init__(self, config: ModelConfig):
        self.d = int(np.prod(config.joint_dims()))
        self.d_sys = 2 ** config.n_qubits
        self.terminals = config.system_terminals
        self.index, blocks = _sector_hamiltonian(config)
        # the .imag of a real array is a fresh array of zeros
        if np.iscomplexobj(blocks) and np.any(blocks.imag):
            raise ValueError(
                "H_tot has an entry with a nonzero imaginary part; the "
                "engine runs on real spectra")
        self.w, self.v = hermitian_eig(blocks.real)


def _sector_hamiltonian(config: ModelConfig):
    """H_tot's parity-sector blocks, filled straight from
    ``model.hamiltonian_entries``: ``(index, blocks)`` with ``index[s]``
    the ascending joint indices of sector s, shape (d_sys, d_env), and
    ``blocks[s] = H_tot[np.ix_(index[s], index[s])]``, of the entries'
    dtype (float64 for the model's).

    A coupling entry whose two indices lie in different sectors would
    mix them, and is refused.
    """
    diag, rows, cols, values = hamiltonian_entries(config)
    # sector label: bit X is set where P_X = -1
    label = 2 ** np.arange(config.n_qubits) @ \
        (local_parities(config) < 0).astype(int)
    if np.any(label[rows] != label[cols]):
        raise ValueError("H_tot does not commute with every local parity")
    index = np.argsort(label, kind="stable").reshape(2 ** config.n_qubits, -1)
    position = np.empty(len(label), dtype=int)
    position[index] = np.arange(index.shape[1])
    # the sectors are sorted by label, so sector s holds label s
    blocks = np.zeros(index.shape + index.shape[1:],
                      dtype=np.result_type(diag, values))
    blocks[label, position, position] = diag
    blocks[label[rows], position[rows], position[cols]] = values
    return index, blocks


def _current_generators(core: _Core, config: ModelConfig) -> list:
    """Current generator of each terminal in the sector eigenbases, as
    the real G_X with K_X' = i G_X, one (d_sys, d_env, d_env) stack per
    terminal.

    K_X = i [H_X, H_tot], and H_X = -(omega_X / 2) sz_X is diagonal,
    sz_X = 1 - 2 m_X for qubit X's level m_X, so (G_X)_jk = (H_X')_jk
    (w_k - w_j) with H_X' = V^T H_X V real symmetric, and G_X is
    antisymmetric.  A detached X has no coupling, so H_X commutes with
    H_tot and G_X = 0.
    """
    levels = np.indices(config.joint_dims()).reshape(-1, core.d)
    gap = core.w[:, None, :] - core.w[:, :, None]
    v_t = core.v.swapaxes(1, 2)
    out = []
    for i, t in enumerate(core.terminals):
        if not config.env.is_attached(t):
            out.append(np.zeros_like(core.v))
            continue
        h_x = -(config.splitting(t) / 2.0) * (1.0 - 2.0 * levels[i])
        out.append((v_t @ (h_x[core.index][..., None] * core.v)) * gap)
    return out


def _without_temperatures(config: ModelConfig) -> ModelConfig:
    env = dataclasses.replace(config.env, T_L=1.0, T_M=1.0, T_R=1.0)
    return dataclasses.replace(config, env=env)


def _mix(pieces: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_e p[c, e] pieces[..., e] for each row c of ``p``, shape
    (len(p),) + pieces.shape[:-1].

    One product per config, so that a config reads the same bits
    whatever else shares the call.
    """
    flat = pieces.reshape(-1, pieces.shape[-1])
    return (flat @ p[:, :, None]).reshape(p.shape[:1] + pieces.shape[:-1])


def _transfer(core: _Core, tau: float, p: np.ndarray) -> np.ndarray:
    """Population map T over ``tau`` for each row of ``p``, shape
    (len(p), d_sys, d_sys), with T_e[b, a] = sum_f |U[(b, f), (a, e)]|^2.

    Read off the sector unitaries U = C - i S, |U|^2 = C^2 + S^2:
    ``np.add.at`` adds the rows (b, f) of a sector into row b one at a
    time, in ascending joint index, so the sum over f runs in ascending
    order.
    """
    u = _sector_unitaries(core, tau)
    n_sectors, d_env = core.index.shape
    total = np.zeros((n_sectors, core.d_sys, d_env))
    np.add.at(total, (np.arange(n_sectors)[:, None],
                      core.index // (core.d // core.d_sys)),
              u.real ** 2 + u.imag ** 2)
    # column (a, e) of a sector is joint index a * d_anc + e
    pieces = np.empty((core.d_sys, core.d))
    pieces[:, core.index] = total.transpose(1, 0, 2)
    return _mix(pieces.reshape(core.d_sys, core.d_sys, -1), p)


def _functionals(core: _Core, generators: list, tau: float,
                 p: np.ndarray) -> np.ndarray:
    """Current functionals at ``tau`` into a window for each row of ``p``,
    shape (len(p), n_terminals, d_sys): J_X = F[c, X] . pi for config c
    whose window started at the populations pi.  ``generators`` are the
    terminals' ``_current_generators`` G_X.

    With A = V diag(cos tau w) and B = V diag(sin tau w), W = A + i B and
    K_X' = i G_X, the real part of rowsum((W K_X') o conj(W)) is
    rowsum((A G_X) o B) - rowsum((B G_X) o A), and its imaginary part
    vanishes; G_X is antisymmetric, so both terms are equal and
    c = -2 rowsum((B G_X) o A)."""
    phase = tau * core.w[:, None, :]
    cos_part, sin_part = core.v * np.cos(phase), core.v * np.sin(phase)
    # one terminal at a time, so that no temporary outgrows one sector
    # stack: glibc maps fresh pages for every block of 128 KiB or more
    c = np.stack([-2.0 * np.sum((sin_part @ g) * cos_part, axis=-1)
                  for g in generators])
    joint = np.empty((len(generators), core.d))
    joint[:, core.index] = c
    return _mix(joint.reshape(len(generators), core.d_sys, -1), p)


class Propagator:
    """Population chain of a batch of configs that share one H_tot: each
    config's window map T and its current functionals at the phase rows
    ``rows`` of a window, row s at tau_s = s * sample_dt (row 0 is the
    attach instant), and beside them their T_mod derivatives
    ``dtransfer`` and ``dfunctionals``."""

    def __init__(self, configs, rows):
        configs = list(configs)
        shared = _without_temperatures(configs[0])
        if any(_without_temperatures(c) != shared for c in configs[1:]):
            raise ValueError(
                "the configs of one chain must differ only in bath "
                "temperatures")
        self.core = _Core(shared)
        self.terminals = self.core.terminals
        # the fresh ancillas' populations (their state is diag(p)), then p'
        p = _populations(configs)
        self.transfer, self.dtransfer = np.split(
            _transfer(self.core, shared.dt_collision, p), 2)
        generators = _current_generators(self.core, shared)
        functionals = np.empty((len(p), len(rows), len(self.terminals),
                                self.core.d_sys))
        for i, s in enumerate(rows):
            functionals[:, i] = _functionals(
                self.core, generators, shared.sample_dt * s, p)
        self.functionals, self.dfunctionals = np.split(functionals, 2)

    def collision(self, pi: np.ndarray, dpi: np.ndarray):
        """One window from the populations ``pi`` and their derivatives
        ``dpi``, each of shape (n_configs, d_sys): both at its end, then
        its currents F . pi at each of ``rows``, shape (n_configs, n_rows,
        n_terminals), and their derivatives F' . pi + F . dpi.  Each dot
        product is taken elementwise and summed, so each value has the
        same bits whatever shape the batch has."""
        col, dcol = pi[..., None], dpi[..., None]
        row, drow = pi[:, None, None], dpi[:, None, None]
        f, df = self.functionals, self.dfunctionals
        return (self.transfer @ col)[..., 0], \
            (self.transfer @ dcol + self.dtransfer @ col)[..., 0], \
            np.sum(f * row, axis=-1), np.sum(f * drow + df * row, axis=-1)


@dataclass
class Trajectory:
    """Sampled history of one repeated-collision run."""

    config: ModelConfig
    boundary: str
    times: np.ndarray
    currents: dict  # terminal -> (n_samples,)
    collision_index: np.ndarray
    system_states: Optional[np.ndarray] = None  # (n_samples, d, d)
    qubit_states: Optional[dict] = None  # terminal -> (n_samples, 2, 2)

    def index_at(self, t: float) -> int:
        dt = self.config.sample_dt
        i = int(_sample_index([t], dt)[0])
        if i >= len(self.times):
            raise ValueError(
                f"t = {t} is not on the sample grid [0, "
                f"{self.times[-1]:g}] with spacing {dt}")
        return i

    def current(self, terminal: str, t: float) -> float:
        return float(self.currents[terminal][self.index_at(t)])


def _batched_qubit_marginal(states: np.ndarray, n_qubits: int,
                            site: int) -> np.ndarray:
    shape = (states.shape[0],) + (2,) * (2 * n_qubits)
    arr = states.reshape(shape)
    row = list(range(1, n_qubits + 1))
    col = [i if i - 1 != site else i + n_qubits for i in row]
    out = [0, 1 + site, 1 + site + n_qubits]
    return np.einsum(arr, [0] + row + col, out)


def _whole_windows(config: ModelConfig, t_max: float) -> int:
    """Number of collision windows in ``t_max``, which must be whole."""
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    n_col = t_max / config.dt_collision
    if abs(n_col - round(n_col)) > 1e-9 * max(1.0, abs(n_col)):
        raise ValueError(
            f"t_max = {t_max} is not a whole number of collision windows "
            f"of length {config.dt_collision}")
    return int(round(n_col))


def _system_initial(config: ModelConfig,
                    initial: Optional[np.ndarray]) -> np.ndarray:
    """A copy of ``initial`` (|0...0> if None), checked for its shape."""
    d_sys = 2 ** config.n_qubits
    rho = initial_state(config.n_qubits) if initial is None \
        else np.asarray(initial, dtype=np.complex128).copy()
    if rho.shape != (d_sys, d_sys):
        raise ValueError(
            f"initial state must be {d_sys}x{d_sys}, got {rho.shape}")
    return rho


def evolve(config: ModelConfig, t_max: float, *,
           store_states: bool = False,
           boundary: str = "left",
           initial: Optional[np.ndarray] = None) -> Trajectory:
    """Run repeated collisions from t = 0 to t = t_max.

    ``t_max`` must be a whole number of collision windows.  ``boundary``
    picks which one-sided limit is reported exactly at window edges:
    "left" keeps the end-of-window currents, "right" the fresh-ancilla
    values (the reduced states agree from both sides).  Currents come
    from the population chain, which reads only the diagonal of
    ``initial``: the ``sample_currents`` route, started there.  Full
    system snapshots, from one ``sample_states`` call, and every qubit's
    marginal are stored when ``store_states`` is set.
    """
    n_col = _whole_windows(config, t_max)
    index = np.arange(n_col * config.samples_per_collision + 1)
    window, row = _window_rows(index, config, boundary)
    pi = np.diagonal(_system_initial(config, initial)).real.copy()
    currents = _chain_currents([config], window, row, pi[None])[0][0]
    # the collision that owns each sample; 0 before the first
    collision_index = window + ((row > 0) | (boundary == "right"))

    sys_states = qubit_states = None
    if store_states:
        sys_states = sample_states(config, [initial], t_max)[0]
        qubit_states = {
            t: _batched_qubit_marginal(sys_states, config.n_qubits, i)
            for i, t in enumerate(config.system_terminals)}

    return Trajectory(
        config=config, boundary=boundary, times=config.sample_dt * index,
        currents={t: np.ascontiguousarray(currents[:, i])
                  for i, t in enumerate(config.system_terminals)},
        collision_index=collision_index,
        system_states=sys_states, qubit_states=qubit_states)


def _sample_index(times, dt: float) -> np.ndarray:
    """Sample-grid index of each of ``times``, which must lie on the grid."""
    times = np.asarray(times, dtype=float)
    index = np.rint(times / dt).astype(int)
    off = np.flatnonzero((index < 0) | (np.abs(times - index * dt) > 1e-9))
    if len(off):
        raise ValueError(
            f"t = {times[off[0]]} is not on the sample grid [0, inf) with "
            f"spacing {dt}")
    return index


def _window_rows(index: np.ndarray, config: ModelConfig, boundary: str):
    """(window n, phase row s) of each sample index, by the edge rule:
    "left" reads an edge at the end of the window before it, "right" at
    the start of the window after it; t = 0 is row 0 of window 0 either
    way."""
    if boundary not in BOUNDARY_SIDES:
        raise ValueError(f"boundary must be one of {BOUNDARY_SIDES}")
    steps = config.samples_per_collision
    if boundary == "left":
        window = np.maximum(index - 1, 0) // steps
    else:
        window = index // steps
    return window, index - window * steps


def _chain_currents(configs, window: np.ndarray, row: np.ndarray,
                    pi: np.ndarray):
    """Currents at row ``row[i]`` of window ``window[i]`` for each config,
    and their derivatives dJ/dT_mod: two arrays of shape (len(configs),
    len(window), n_terminals), each chain started at its populations in
    ``pi``, which do not depend on T_mod.  One ``Propagator`` steps every
    config window by window up to the last one read, at the distinct rows
    read.
    """
    rows, column = np.unique(row, return_inverse=True)
    prop = Propagator(configs, rows)
    cur, dcur = np.empty((2, len(pi), len(window), len(prop.terminals)))
    dpi = np.zeros_like(pi)
    for n in range(int(window.max(initial=-1)) + 1):
        at = np.flatnonzero(window == n)
        pi, dpi, read, dread = prop.collision(pi, dpi)
        cur[:, at] = read[:, column[at]]
        dcur[:, at] = dread[:, column[at]]
    return cur, dcur


def _sector_unitaries(core: _Core, tau: float) -> np.ndarray:
    """U_sigma = V diag(exp(-i tau w)) V^T = C - i S on each sector, with
    C = V diag(cos tau w) V^T and S = V diag(sin tau w) V^T; shape
    (n_sectors, d_env, d_env), rows and columns in ``index`` order.

    C and -S come interleaved from one real product per sector: V times
    diag(cos tau w) V^T and -diag(sin tau w) V^T, column by column, read
    as complex."""
    phase = tau * core.w[:, :, None]
    v_t = core.v.swapaxes(1, 2)
    right = np.empty(v_t.shape + (2,))
    np.multiply(v_t, np.cos(phase), out=right[..., 0])
    np.multiply(v_t, -np.sin(phase), out=right[..., 1])
    return (core.v @ right.reshape(v_t.shape[:2] + (-1,))).view(np.complex128)


class _DifferenceMaps:
    """The window channel on the difference blocks of the system state.

    Each local parity commutes with H_tot and the fresh ancilla state is
    diagonal, so the channel takes rho[b, b'] into rho[a, a'] only when
    a ^ a' = b ^ b' (XOR of the system labels).  The block
    x_delta[a] = rho[a, a ^ delta] then moves on its own d_sys x d_sys map

        M_delta[a, b] = sum_{f,e} p_e U[(a, f), (b, e)]
                                  conj(U[(a ^ delta, f), (b ^ delta, e)]),

    and M_0 is the population map T.  Flipping the qubits of delta takes
    row (a, f) of a sector to a fixed row of one partner sector, so
    M_delta is U_sigma o conj(U_partner[perm, perm]) summed over the
    sectors, its rows gathered by a and its columns by b with weights p_e.
    Both gathers are real, and each takes the real and imaginary parts of
    the summand in one product.
    """

    def __init__(self, core: _Core, deltas: np.ndarray, p: np.ndarray):
        n_sectors, d_env = core.index.shape
        position = np.empty(core.d, dtype=int)
        sector = np.empty(core.d, dtype=int)
        position[core.index] = np.arange(d_env)
        sector[core.index] = np.arange(n_sectors)[:, None]
        system, ancilla = np.divmod(core.index, d_env)
        flipped = (system ^ deltas[:, None, None]) * d_env + ancilla
        partner = sector[flipped[..., :1, None]]  # one per delta, sector
        perm = position[flipped]  # (n_deltas, n_sectors, d_env)
        # U_partner[perm, perm] as flat indices into the stacked sector
        # unitaries, one (n_sectors, d_env, d_env) table per delta, so
        # that no table outgrows one sector stack (see ``_functionals``)
        self.mate = [(k * d_env + j[:, :, None]) * d_env + j[:, None, :]
                     for k, j in zip(partner, perm)]
        self.core = core
        gather = (system[:, None, :] == np.arange(core.d_sys)[:, None]
                  ).astype(float)  # (n_sectors, d_sys, d_env)
        # each real column gather twice, (k, part) -> (b, part), so that
        # one real product per sector contracts the real and imaginary
        # parts of a complex summand seen as interleaved reals
        self.cols = np.kron(gather.swapaxes(1, 2) * p[ancilla][..., None],
                            np.eye(2))
        self.rows = gather.transpose(1, 0, 2).reshape(core.d_sys, -1)

    def at(self, tau: float) -> np.ndarray:
        """M_delta over ``tau`` for each delta, shape (n_deltas, d_sys,
        d_sys).

        The summand U o conj(U_partner) is formed elementwise; its real
        and imaginary parts then take one real product with the column
        gather per sector, and one with the row gather, so no complex
        BLAS kernel runs."""
        u = _sector_unitaries(self.core, tau)
        d_sys = self.core.d_sys
        out = np.empty((len(self.mate), d_sys, d_sys), dtype=np.complex128)
        # one delta at a time, for the reason given in ``_functionals``
        for i, mate in enumerate(self.mate):
            summand = np.take(u, mate)
            np.multiply(u, np.conjugate(summand, out=summand), out=summand)
            out[i].view(float)[:] = self.rows @ (
                summand.view(float) @ self.cols).reshape(-1, 2 * d_sys)
        return out


def _boltzmann_weights(e: np.ndarray, temperature: float):
    """Populations q of a fresh ancilla of level energies ``e`` at
    temperature T, and their derivative dq/dT = q o (e - <e>) / T^2.

    Normalized with the sum taken in ascending-energy order, these are
    the diagonal ``model.ancilla_thermal_state`` finds through ``eigh``,
    bit for bit.
    """
    order = np.argsort(e, kind="stable")
    weights = np.exp(-(1.0 / temperature) * (e[order] - e.min()))
    p = np.empty_like(weights)
    p[order] = weights / weights.sum()
    return p, p * (e - p @ e) / temperature ** 2


def _populations(configs) -> np.ndarray:
    """Fresh-ancilla populations p_e of each config, then their
    derivatives p'_e with respect to its modulating bath's temperature:
    one stack of shape (2 * len(configs), d_env).

    The configs share H_tot, so the ancilla Hamiltonian is read once and
    one set of weights is made per distinct temperature.  They are
    multiplied in ``attached_terminals`` order, so each row of p is the
    diagonal of the kron product of the fresh ancilla states, bit for bit.
    p' follows by the product rule, in which only the modulating factor
    has a derivative; it is 0 when that terminal is detached.
    """
    h = build_env_local_hamiltonian(configs[0].env)
    e = np.diag(h)
    if np.count_nonzero(h - np.diag(e)):
        raise ValueError("ancilla Hamiltonian is not diagonal")
    diagonals = {}
    rows, tangents = [], []
    for config in configs:
        p, dp = np.ones(1), np.zeros(1)
        for t in config.attached_terminals:
            temperature = config.env.temperature(t)
            if temperature not in diagonals:
                diagonals[temperature] = _boltzmann_weights(e, temperature)
            q, dq = diagonals[temperature]
            # dp is still 0 when the modulating factor comes
            dp = np.multiply.outer(p, dq) \
                if t == config.modulating_terminal \
                else np.multiply.outer(dp, q)
            dp, p = dp.ravel(), np.multiply.outer(p, q).ravel()
        rows.append(p)
        tangents.append(dp)
    return np.stack(rows + tangents)


def _occupied_deltas(rho: np.ndarray) -> np.ndarray:
    """The differences delta, ascending, of the blocks rho[a, a ^ delta]
    that some state of the stack ``rho`` occupies."""
    a = np.arange(rho.shape[-1])
    return np.flatnonzero([np.any(rho[:, a, a ^ delta]) for delta in a])


def _apply(maps: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """M_delta x_delta for the maps ``maps`` (n_deltas, d, d) and blocks
    of shape (..., n_deltas, d), summed elementwise rather than by a
    complex BLAS product."""
    return np.einsum("kab,...kb->...ka", maps, blocks)


def _carried_blocks(config: ModelConfig, rho: np.ndarray,
                    deltas: np.ndarray, n_col: int):
    """The one window-to-window carry of the states ``rho``, on their
    difference blocks ``deltas``.

    Yields ``(samples, blocks)``: a slice of the sample axis, and the
    blocks x_delta[a] = rho[a, a ^ delta] of every state at those
    samples, shape (len(rho), n_read, len(deltas), d).  The blocks are
    those of the Hermitian part (rho + rho^dagger) / 2, so every state
    read is Hermitian and a window starts from Hermitian blocks.  The
    window starts come first, t = 0 included, then each row s of every
    window: the maps at tau_s = s * sample_dt applied to the blocks at
    the window's start.
    """
    steps, d_sys = config.samples_per_collision, rho.shape[-1]
    # block entry x_delta[a] = rho[a, a ^ delta] is the conjugate-transpose
    # partner of entry a ^ delta of the same block
    block = np.arange(len(deltas))[:, None]
    column = np.arange(d_sys) ^ deltas[:, None]

    def hermitized(blocks: np.ndarray) -> np.ndarray:
        # (x_delta[a] + conj(x_delta[a ^ delta])) / 2
        return (blocks + blocks[..., block, column].conj()) / 2.0

    starts = np.empty((len(rho), n_col + 1, len(deltas), d_sys),
                      dtype=np.complex128)
    starts[:, 0] = hermitized(rho[:, np.arange(d_sys), column])
    if n_col:
        maps = _DifferenceMaps(_Core(config), deltas,
                               _populations([config])[0])
        step = maps.at(config.dt_collision)
        for n in range(n_col):
            starts[:, n + 1] = hermitized(_apply(step, starts[:, n]))
    yield slice(None, None, steps), starts
    if not n_col:
        return
    for s in range(1, steps):
        yield slice(s, None, steps), hermitized(
            _apply(maps.at(config.sample_dt * s), starts[:, :-1]))


def _whole_states(blocks: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """The states whose difference blocks ``deltas`` are ``blocks`` (as
    ``_carried_blocks`` yields them), shape blocks.shape[:-2] + (d, d):
    rho[a, a ^ delta] = x_delta[a], and every block not carried is
    exactly 0."""
    d_sys = blocks.shape[-1]
    a = np.arange(d_sys)
    out = np.zeros(blocks.shape[:-2] + (d_sys, d_sys), dtype=np.complex128)
    out[..., a, a ^ deltas[:, None]] = blocks
    return out


def _sampled_initials(config: ModelConfig, initials, t_max: float):
    """(checked initial states stacked, number of windows, number of
    samples) of a run of ``initials`` up to ``t_max``."""
    n_col = _whole_windows(config, t_max)
    rho = np.stack([_system_initial(config, r) for r in initials])
    return rho, n_col, n_col * config.samples_per_collision + 1


def sample_states(config: ModelConfig, initials,
                  t_max: float) -> np.ndarray:
    """System state at every sample up to ``t_max``, from each initial.

    Returns shape (len(initials), n_samples, d, d), on the sample grid of
    ``evolve(config, t_max)``; ``t_max`` must be a whole number of
    windows.  Each state is carried from window to window as its
    difference blocks x_delta[a] = rho[a, a ^ delta], each on its own
    d x d map (``_DifferenceMaps``), and the sample at row s of a window
    is the maps at tau_s = s * sample_dt applied to the blocks at the
    window's start (``_carried_blocks``).  Only the blocks that some
    initial state occupies are carried; every other entry stays exactly
    0.  Each state is the Hermitian part of the carried one.
    """
    rho, n_col, n_samples = _sampled_initials(config, initials, t_max)
    d_sys = rho.shape[-1]
    deltas = _occupied_deltas(rho)
    out = np.empty((len(rho), n_samples, d_sys, d_sys), dtype=np.complex128)
    for samples, blocks in _carried_blocks(config, rho, deltas, n_col):
        out[:, samples] = _whole_states(blocks, deltas)
    return out


def sample_marginals(config: ModelConfig, initials, sites,
                     t_max: float) -> np.ndarray:
    """Marginal of qubit ``sites[i]`` of the system state that
    ``sample_states`` gives from ``initials[i]``, at every sample up to
    ``t_max``: shape (len(initials), n_samples, 2, 2).

    Each yield of the carry (``_carried_blocks``) is scattered into whole
    states one site's probes at a time, and reduced by the marginal that
    ``evolve`` stores (``_batched_qubit_marginal``), so the marginals are
    those of the states bit for bit and no whole state history is held.
    """
    rho, n_col, n_samples = _sampled_initials(config, initials, t_max)
    d_sys = rho.shape[-1]
    deltas = _occupied_deltas(rho)
    sites = np.asarray(sites, dtype=int)
    if sites.shape != (len(rho),) or np.any(sites < 0) or \
            np.any(sites >= config.n_qubits):
        raise ValueError(
            f"need one site in [0, {config.n_qubits}) per initial state")
    # one site's probes at a time, so that the scattered states stay small
    groups = [np.flatnonzero(sites == site) for site in range(config.n_qubits)]
    out = np.empty((len(rho), n_samples, 2, 2), dtype=np.complex128)
    for samples, blocks in _carried_blocks(config, rho, deltas, n_col):
        for site, mine in enumerate(groups):
            states = _whole_states(blocks[mine], deltas)
            out[mine, samples] = _batched_qubit_marginal(
                states.reshape(-1, d_sys, d_sys), config.n_qubits,
                site).reshape(states.shape[:2] + (2, 2))
    return out


def sample_currents(configs, times, boundary: str = "left") -> np.ndarray:
    """J_X at ``times`` for configs that differ only in bath temperatures.

    Returns shape (len(configs), len(times), n_terminals), terminals in
    ``system_terminals`` order, with the values ``evolve`` reports at
    those times for the same ``boundary``, bit for bit, read off
    ``sample_tangents``.
    """
    return sample_tangents(configs, times, boundary)[0]


def sample_tangents(configs, times, boundary: str = "left"):
    """The currents of ``sample_currents`` and their exact derivatives
    dJ_X/dT_mod, two arrays of that shape; every chain starts from
    |0...0> (see ``_chain_currents``)."""
    configs = list(configs)
    if not configs:
        raise ValueError("sample_tangents needs at least one config")
    first = configs[0]
    window, row = _window_rows(_sample_index(times, first.sample_dt),
                               first, boundary)
    pi = np.repeat(np.eye(2 ** first.n_qubits)[:1], len(configs), axis=0)
    return _chain_currents(configs, window, row, pi)


def local_heat_current(joint_state: np.ndarray, h_total: np.ndarray,
                       terminal: str, config: ModelConfig) -> float:
    """Reference heat current J_X = -Tr(rhodot_X H_X) from a joint state.

    Positive values mean energy leaving qubit X.  This is the direct
    commutator-plus-partial-trace evaluation on the joint state; the
    engine computes the same quantity on the population chain.
    """
    if terminal not in config.system_terminals:
        raise ValueError(
            f"terminal {terminal!r} not in {config.system_terminals}")
    dims = config.joint_dims()
    d = int(np.prod(dims))
    if joint_state.shape != (d, d) or h_total.shape != (d, d):
        raise ValueError(
            f"joint state and H must be {d}x{d} for dims {dims}")
    site = config.system_terminals.index(terminal)
    rhodot = -1j * (h_total @ joint_state - joint_state @ h_total)
    rhodot_x = partial_trace(rhodot, dims, [site])
    h_x = -(config.splitting(terminal) / 2.0) * SpinOps.sz_half
    val = complex(np.trace(rhodot_x @ h_x))
    if abs(val.imag) > 1e-10:
        raise FloatingPointError(
            f"current has imaginary residue {abs(val.imag):.3e}")
    return -val.real
