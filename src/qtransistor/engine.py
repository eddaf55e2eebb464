"""Repeated-collision propagation of the transistor working substance.

Every collision window follows the same pattern: fresh thermal ancillas
are attached to their terminals, the joint state evolves unitarily under
the total Hamiltonian for one window, intra-window samples are recorded,
and the ancillas are traced out and discarded.  Windows are back to
back; there is no free evolution between them.

Each qubit couples to its ancilla through sx (x) Sx and every other term
of the total Hamiltonian is diagonal, so H_tot commutes with the parity
P = prod_qubits sz (x) prod_ancillas (-1)^m (``model.parity_diagonal``)
and splits into two equal blocks, 108 + 108 at the default 216 joint
dimensions.  Each block is diagonalized once per parameter set and cached
(eigenvalues w, eigenvectors V per sector); a sample at tau into a window
is then fixed by the phase vectors u = exp(-i tau w).  Nothing is lost:
the window unitary U is block-diagonal, and each current generator
K_X = i [H_X, H_tot] commutes with P because H_X is diagonal, so
Tr(rho K_X) reads only the sector blocks of any state rho, the BLP probe
states included.  Every product with the eigenvectors runs per sector;
U and the row functionals' V diag(u) are scattered into d x d matrices
only where their consumers read them whole.

The system state moves only on the window channel below, in
``sample_states``, ``sample_currents`` and ``evolve`` alike.  ``evolve``
(``metrics.current_at``'s route) keeps the sector eigenbases for its
dense current rows alone: each current at every sample of a window is
one contraction per sector of the attach-time eigenbasis state with u,
so one basis change per window serves all of them.  Building row
functionals (as ``sample_currents`` does) for all 50 rows of a window
costs about twenty times a whole ``evolve`` over two windows: 0.19 s
against 8.6 ms on a 2-vCPU Xeon with OpenBLAS.

Heat currents come from the conserved-commutator form

    J_X = -Tr(rhodot_X H_X),   rhodot_X = Tr_rest(-i [H_tot, rho]),

with the sign chosen so that heat leaving qubit X is positive.

``sample_currents`` reads currents at chosen times only, from the window
channel.  The fresh ancilla state sigma = diag(p) is diagonal, so one
window maps the system state rho_n to

    rho_{n+1} = sum_{f,e} p_e U_fe rho_n U_fe^dagger,

with U_fe the system blocks of U = exp(-i dt H_tot).  The channel is
linear in p, S = sum_e p_e S_e with pieces S_e = sum_f U_fe (x)
conj(U_fe), and bath temperatures enter only through p, so one H_tot
serves every temperature.  A call builds the d_env pieces once, as one
batched GEMM, and mixes each config's 64x64 channel from them one config
at a time; stacking every config's channel would hold 64 KB per config.
p comes from the Boltzmann weights of the diagonal ancilla Hamiltonian,
once per distinct (terminal, temperature) in the call.  A current at
phase row s of window n is a linear functional of rho_n:

    J_X = sum_e p_e <C_{s,e}, rho_n>,

where C_{s,e} is the e-diagonal block of
conj(V) diag(u_s) K_X'^T diag(conj(u_s)) V^T.  One C per phase row
serves every config and window.  Each config goes through the same
operations whatever else shares the call, so it reads the same bits alone
or in a batch.  These currents agree with ``evolve``'s to round-off, not
bit for bit: the two sum in different orders.

``sample_states`` returns the system state at every sample, for the
backflow search.  Each initial state is carried from window to window by
the same channel, and the sample at row s of a window is the channel at
tau_s = s * sample_dt applied to the state at the window's start.  It has
one p and a channel per row offset, so it contracts p inside one GEMM
over (f, e) per channel instead of building pieces for each tau, which
would make every channel dearer.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import hermitian_eig, partial_trace
from .model import (ModelConfig, SpinOps, build_env_local_hamiltonian,
                    build_total_hamiltonian, parity_diagonal)

BOUNDARY_SIDES = ("left", "right")

# currents are real observables; larger residues indicate a broken state
_IMAG_TOL = 1e-8


def initial_state(n_qubits: int = 3) -> np.ndarray:
    """|0...0><0...0| on the system qubits (each local sz = +1)."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    d = 2 ** n_qubits
    rho = np.zeros((d, d), dtype=np.complex128)
    rho[0, 0] = 1.0
    return rho


class _Sector(NamedTuple):
    """Spectral data of H_tot on one parity sector."""

    index: np.ndarray  # joint-space indices of the sector
    w: np.ndarray  # eigenvalues
    v: np.ndarray  # eigenvectors, rows in ``index`` order
    current_ops: np.ndarray  # K_X'^T per terminal, in this eigenbasis


class _Core:
    """Spectral data shared by every run with the same H_tot.

    H_tot commutes with the parity P (``model.parity_diagonal``), so it is
    diagonalized in the two sectors P = +1 and P = -1 separately.
    """

    def __init__(self, config: ModelConfig):
        dims = config.joint_dims()
        self.d = int(np.prod(dims))
        self.d_sys = 2 ** config.n_qubits
        self.terminals = config.system_terminals

        h_tot = build_total_hamiltonian(config)
        parity = parity_diagonal(config)
        even, odd = np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)
        if np.any(h_tot[np.ix_(even, odd)]) or \
                np.any(h_tot[np.ix_(odd, even)]):
            raise ValueError("H_tot does not commute with the parity")

        # H_X = -(omega_X / 2) sz_X is diagonal, sz_X = 1 - 2 m_X for
        # qubit X's level m_X; the current generators
        # K_X = i [H_X, H_tot] in a sector eigenbasis are
        # K'_jk = i (H_X')_jk (w_k - w_j), so J_X = Tr(rho' K_X')
        levels = np.indices(dims).reshape(len(dims), -1)
        h_x = [-(config.splitting(t) / 2.0) * (1.0 - 2.0 * levels[i])
               for i, t in enumerate(self.terminals)]
        self.sectors = []
        for index in (even, odd):
            w, v = hermitian_eig(h_tot[np.ix_(index, index)])
            gap = w[None, :] - w[:, None]
            ops = [(1j * (v.conj().T @ (h[index, None] * v)) * gap).T
                   for h in h_x]
            self.sectors.append(_Sector(index, w, v, np.stack(ops)))


def _block_diagonal(core: _Core, blocks) -> np.ndarray:
    """The d x d matrix holding ``blocks[b]`` on parity sector b's indices
    (rows and columns) and zeros elsewhere."""
    out = np.zeros((core.d, core.d), dtype=np.complex128)
    for sec, block in zip(core.sectors, blocks):
        out[np.ix_(sec.index, sec.index)] = block
    return out


def _expectations(a: np.ndarray, ops_t: np.ndarray,
                  phases: np.ndarray) -> np.ndarray:
    """Tr(rho'(tau_s) O), shape (len(phases), len(ops_t)), for the
    eigenbasis attach state ``a`` and operators given as transposes.

    rho'(tau_s)_jk = a_jk u_sj conj(u_sk), so the trace is one batched
    GEMM over k followed by a row-wise contraction over j.
    """
    half = (a[None] * ops_t) @ phases.conj().T  # (n_ops, d, n_rows)
    return np.einsum("sj,mjs->sm", phases, half)


def _real_currents(cur: np.ndarray) -> np.ndarray:
    """Real part of computed currents, after the imaginary-residue check."""
    worst = float(np.max(np.abs(cur.imag), initial=0.0))
    if worst > _IMAG_TOL:
        raise FloatingPointError(
            f"current has imaginary residue {worst:.3e}")
    return np.ascontiguousarray(cur.real)


@functools.lru_cache(maxsize=8)
def _cached_core(key: ModelConfig) -> _Core:
    return _Core(key)


def _without_temperatures(config: ModelConfig) -> ModelConfig:
    env = dataclasses.replace(config.env, T_L=1.0, T_M=1.0, T_R=1.0)
    return dataclasses.replace(config, env=env, stencil_h=1.0)


def _core_for(config: ModelConfig) -> _Core:
    """Shared core; temperatures and grids do not enter H_tot.

    Those fields are pinned to fixed values in the cache key, so configs
    that differ only there share one core, and any other difference is a
    cache miss.
    """
    key = dataclasses.replace(_without_temperatures(config),
                              dt_collision=1.0, sample_dt=1.0)
    return _cached_core(key)


class Propagator:
    """Collision machinery bound to one ModelConfig."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.core = _core_for(config)
        self.n_steps = config.samples_per_collision
        # row s holds exp(-i tau_s w) at tau_s = s * sample_dt; row 0 is
        # the attach instant, where every phase is 1
        taus = config.sample_dt * np.arange(self.n_steps + 1)
        self.phases = [np.exp(-1j * np.multiply.outer(taus, sec.w))
                       for sec in self.core.sectors]
        # the fresh ancillas' populations; their state is diag(p)
        self.p = _populations([config])[0]
        self.channel = _channel(self.core, config.dt_collision, self.p)
        self.terminals = self.core.terminals

    def _to_eigenbasis(self, rho_sys: np.ndarray) -> list:
        """Each sector's block of the attach state kron(rho_sys, diag(p)),
        in that sector's eigenbasis."""
        out = []
        for sec in self.core.sectors:
            a, f = np.divmod(sec.index, len(self.p))
            joint = rho_sys[np.ix_(a, a)] * np.where(
                f[:, None] == f, self.p[f], 0.0)
            out.append(sec.v.conj().T @ joint @ sec.v)
        return out

    def _currents(self, blocks: list, rows: slice) -> np.ndarray:
        """J_X for each phase row in ``rows``, shape (n_rows, n_terminals).

        K_X commutes with the parity, so only the sector blocks of the
        attach state contribute, and J_X is the sum over the sectors.
        """
        return _real_currents(sum(
            _expectations(a, sec.current_ops, ph[rows])
            for a, sec, ph in zip(blocks, self.core.sectors, self.phases)))

    def currents_at_attach(self, rho_sys: np.ndarray) -> np.ndarray:
        """J_X the instant fresh ancillas are attached (tau = 0+)."""
        return self._currents(self._to_eigenbasis(rho_sys),
                              slice(0, 1))[0]

    def collision(self, rho_sys: np.ndarray):
        """Evolve one window from ``rho_sys``.

        Returns (rho_sys_end, currents, attach_currents): the system state
        at the window's end, from the window channel; the currents, shape
        (n_steps, n_terminals), sampled at tau = sample_dt .. window; and
        the tau = 0 row.
        """
        cur = self._currents(self._to_eigenbasis(rho_sys), slice(None))
        rho_end = _hermitized((self.channel @ rho_sys.reshape(-1)).reshape(
            rho_sys.shape))
        return rho_end, cur[1:], cur[0]


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
    values (the reduced states agree from both sides).  Full system
    snapshots, from one ``sample_states`` call, and every qubit's
    marginal are stored when ``store_states`` is set.
    """
    if boundary not in BOUNDARY_SIDES:
        raise ValueError(f"boundary must be one of {BOUNDARY_SIDES}")
    n_col = _whole_windows(config, t_max)

    prop = Propagator(config)
    steps = prop.n_steps
    n_samples = n_col * steps + 1
    rho = _system_initial(config, initial)

    currents = np.empty((n_samples, len(prop.terminals)))
    times = config.sample_dt * np.arange(n_samples)
    for k in range(n_col):
        rho, block_cur, attach = prop.collision(rho)
        lo = k * steps + 1
        currents[lo:lo + steps] = block_cur
        if k == 0:
            currents[0] = attach
        elif boundary == "right":
            currents[lo - 1] = attach
    if n_col == 0:
        currents[0] = prop.currents_at_attach(rho)
    elif boundary == "right":
        currents[-1] = prop.currents_at_attach(rho)

    if boundary == "left":
        collision_index = (np.arange(n_samples) + steps - 1) // steps
    else:
        collision_index = np.arange(n_samples) // steps + 1

    sys_states = qubit_states = None
    if store_states:
        sys_states = sample_states(config, [initial], t_max)[0]
        qubit_states = {
            t: _batched_qubit_marginal(sys_states, config.n_qubits, i)
            for i, t in enumerate(config.system_terminals)}

    return Trajectory(
        config=config, boundary=boundary, times=times,
        currents={t: np.ascontiguousarray(currents[:, i])
                  for i, t in enumerate(prop.terminals)},
        collision_index=collision_index,
        system_states=sys_states, qubit_states=qubit_states)


def _sample_index(times, dt: float) -> np.ndarray:
    """Sample-grid index of each of ``times``, which must lie on the grid."""
    index = np.rint(np.asarray(times, dtype=float) / dt).astype(int)
    for t, i in zip(times, index):
        if i < 0 or abs(t - i * dt) > 1e-9:
            raise ValueError(
                f"t = {t} is not on the sample grid [0, inf) with "
                f"spacing {dt}")
    return index


def _window_unitary(core: _Core, tau: float) -> np.ndarray:
    """U = exp(-i tau H_tot) split as U[a, f, b, e]: system indices a, b
    and ancilla indices f, e, so U_fe = U[:, f, :, e]."""
    d_sys = core.d_sys
    d_env = core.d // d_sys
    u = _block_diagonal(core, [(sec.v * np.exp(-1j * tau * sec.w))
                               @ sec.v.conj().T for sec in core.sectors])
    return u.reshape(d_sys, d_env, d_sys, d_env)


def _vec_channel(m: np.ndarray, d_sys: int) -> np.ndarray:
    """A channel from GEMM layout [(a, b), (a', b')] to the matrix that
    acts on row-major vec(rho), [(a, a'), (b, b')]."""
    return m.reshape((d_sys,) * 4).transpose(0, 2, 1, 3).reshape(
        d_sys * d_sys, -1)


def _channel(core: _Core, tau: float, p: np.ndarray) -> np.ndarray:
    """Channel S = sum_{f,e} p_e U_fe (x) conj(U_fe) on row-major vec(rho)
    for the ancilla populations ``p``, as one GEMM over (f, e)."""
    d_sys = core.d_sys
    kraus = _window_unitary(core, tau).transpose(0, 2, 1, 3).reshape(
        d_sys * d_sys, -1)  # [(a, b), (f, e)]
    return _vec_channel((kraus * np.tile(p, len(p))) @ kraus.conj().T,
                        d_sys)


def _channel_pieces(core: _Core, tau: float) -> np.ndarray:
    """Pieces S_e = sum_f U_fe (x) conj(U_fe), one per ancilla level e, so
    that the channel for populations p is _vec_channel(sum_e p_e S_e).

    Shape (d_env, d_sys**2, d_sys**2) in GEMM layout [e, (a, b), (a', b')],
    built as one batched GEMM over e.
    """
    d_sys = core.d_sys
    u = _window_unitary(core, tau)
    kraus = u.transpose(3, 0, 2, 1).reshape(u.shape[3], d_sys * d_sys, -1)
    return kraus @ kraus.conj().swapaxes(1, 2)


def _boltzmann_weights(config: ModelConfig, terminal: str) -> np.ndarray:
    """Populations of one fresh ancilla at its terminal's temperature.

    The ancilla Hamiltonian is diagonal, so these are Boltzmann weights of
    its diagonal, normalized with the sum taken in ascending-energy order;
    that is the diagonal ``model.ancilla_thermal_state`` finds through
    ``eigh``, bit for bit.
    """
    h = build_env_local_hamiltonian(config.env)
    e = np.diag(h).real
    if np.count_nonzero(h - np.diag(e)):
        raise ValueError("ancilla Hamiltonian is not diagonal")
    order = np.argsort(e, kind="stable")
    weights = np.exp(-(1.0 / config.env.temperature(terminal))
                     * (e[order] - e.min()))
    p = np.empty_like(weights)
    p[order] = weights / weights.sum()
    return p


def _populations(configs) -> np.ndarray:
    """Fresh-ancilla populations p_e, shape (len(configs), d_env).

    One set of weights per distinct (terminal, temperature); they are
    multiplied in ``attached_terminals`` order, so each row is the
    diagonal of the kron product of the fresh ancilla states, bit for bit.
    """
    diagonals = {}
    rows = []
    for config in configs:
        p = np.ones(1)
        for t in config.attached_terminals:
            key = (t, config.env.temperature(t))
            if key not in diagonals:
                diagonals[key] = _boltzmann_weights(config, t)
            p = np.multiply.outer(p, diagonals[key]).ravel()
        rows.append(p)
    return np.stack(rows)


def _hermitized(states: np.ndarray) -> np.ndarray:
    return (states + states.conj().swapaxes(-1, -2)) / 2.0


def sample_states(config: ModelConfig, initials,
                  t_max: float) -> np.ndarray:
    """System state at every sample up to ``t_max``, from each initial.

    Returns shape (len(initials), n_samples, d, d), on the sample grid of
    ``evolve(config, t_max)``; ``t_max`` must be a whole number of
    windows.  Each state is carried from window to window by the window
    channel, and the sample at row s of a window is the channel at
    tau_s = s * sample_dt applied to the state at the window's start.
    """
    n_col = _whole_windows(config, t_max)
    rho = np.stack([_system_initial(config, r) for r in initials])
    core = _core_for(config)
    steps, d_sys = config.samples_per_collision, core.d_sys
    p = _populations([config])[0]
    out = np.empty((len(rho), n_col * steps + 1, d_sys, d_sys),
                   dtype=np.complex128)
    out[:, 0] = rho
    if not n_col:
        return out
    chan = _channel(core, config.dt_collision, p)
    for n in range(1, n_col + 1):
        rho = _hermitized((rho.reshape(len(rho), -1) @ chan.T).reshape(
            rho.shape))
        out[:, n * steps] = rho
    starts = out[:, :-1:steps].reshape(-1, d_sys * d_sys)
    for s in range(1, steps):
        chan = _channel(core, config.sample_dt * s, p)
        out[:, s::steps] = _hermitized((starts @ chan.T).reshape(
            len(rho), n_col, d_sys, d_sys))
    return out


def sample_currents(configs, times, boundary: str = "left") -> np.ndarray:
    """J_X at ``times`` for configs that differ only in bath temperatures.

    Returns shape (len(configs), len(times), n_terminals), terminals in
    ``system_terminals`` order, with the values ``evolve`` reports at
    those times for the same ``boundary``.  The system state is carried
    from window to window by each config's window channel, and only the
    requested samples are evaluated (see the module docstring).
    """
    configs = list(configs)
    if boundary not in BOUNDARY_SIDES:
        raise ValueError(f"boundary must be one of {BOUNDARY_SIDES}")
    if not configs:
        raise ValueError("sample_currents needs at least one config")
    shared = _without_temperatures(configs[0])
    if any(_without_temperatures(c) != shared for c in configs[1:]):
        raise ValueError(
            "sample_currents needs configs that differ only in bath "
            "temperatures")
    core = _core_for(shared)
    dt, steps = shared.sample_dt, shared.samples_per_collision
    d_sys = core.d_sys
    d_env = core.d // d_sys

    # time -> (window n, phase row s) by evolve's edge rule: "left" reads
    # an edge at the end of the window before it, "right" at the start of
    # the window after it; t = 0 is row 0 of window 0 either way
    index = _sample_index(times, dt)
    if boundary == "left":
        window = np.maximum(index - 1, 0) // steps
    else:
        window = index // steps
    row = index - window * steps
    p = _populations(configs)

    # rho_n at each window read, carried through each config's channel,
    # which is mixed from the pieces when its config's turn comes
    windows, slot = np.unique(window, return_inverse=True)
    pieces = _channel_pieces(core, shared.dt_collision).reshape(
        d_env, -1) if window.max(initial=0) else None
    states = np.empty((len(configs), len(windows), d_sys * d_sys),
                      dtype=np.complex128)
    for c, pc in enumerate(p):
        if pieces is not None:
            chan = _vec_channel(pc @ pieces, d_sys)
        rho, done = initial_state(shared.n_qubits), 0
        for i, n in enumerate(windows):
            for _ in range(n - done):
                rho = _hermitized((chan @ rho.reshape(-1)).reshape(
                    rho.shape))
            done = n
            states[c, i] = rho.reshape(-1)

    # per row s and terminal, C[e] = e-diagonal block of conj(P) K'^T P^T
    # with P = V diag(conj(u_s)), where V and K' are block-diagonal over
    # the parity sectors; then J = sum_e p_e <C[e], rho_n>
    cur = np.empty((len(configs), len(index), len(core.terminals)),
                   dtype=np.complex128)
    for s in np.unique(row):
        ph = [sec.v * np.exp(-1j * (dt * s) * sec.w).conj()
              for sec in core.sectors]
        ph_conj = _block_diagonal(core, ph).conj().reshape(
            d_sys, d_env, -1).transpose(1, 0, 2)
        blocks = []
        for x in range(len(core.terminals)):
            # P K_X', one GEMM per parity sector
            pk = _block_diagonal(core, [b @ sec.current_ops[x].T
                                        for b, sec in zip(ph, core.sectors)])
            blocks.append(ph_conj @ pk.reshape(d_sys, d_env, -1).transpose(
                1, 2, 0))
        blocks = np.stack(blocks)
        # one small product per config, so that a config reads the same
        # bits whatever else shares the call
        func = p[:, None] @ blocks.swapaxes(0, 1).reshape(d_env, -1)
        func = func.reshape(len(configs), len(blocks), -1)  # (c, x, q)
        at = np.flatnonzero(row == s)
        cur[:, at] = np.einsum("cxq,cjq->cjx", func, states[:, slot[at]])
    return _real_currents(cur)


def local_heat_current(joint_state: np.ndarray, h_total: np.ndarray,
                       terminal: str, config: ModelConfig) -> float:
    """Reference heat current J_X = -Tr(rhodot_X H_X) from a joint state.

    Positive values mean energy leaving qubit X.  This is the direct
    commutator-plus-partial-trace evaluation; the propagator computes
    the same quantity through the cached sector eigenbases.
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
