"""Hamiltonians and configuration for the three-qubit thermal transistor.

The working substance is a chain of sigma_z - sigma_z coupled qubits
(L, M, R; a two-qubit variant drops M).  Each terminal may be attached
to its own stream of thermal ancillas; an ancilla is either a spin-1
qutrit (optionally with an anharmonic middle level) or a qubit, and it
couples to its terminal through sigma_x tensor sigma_x.

Units: hbar = k_B = 1; energies in units of the reference splitting,
temperatures in the matching reduced units.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .linalg import thermal_state

TERMINALS = ("L", "M", "R")

ENV_KINDS = ("qutrit-linear", "qutrit-nonlinear", "qubit")

COUPLING_PRESETS = ("baseline", "symmetric", "asymmetric", "appendixA")


class SpinOps:
    """Spin operators used by the builders (2x2 Pauli, 3x3 spin-1), all
    real."""

    sx_half = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz_half = np.array([[1.0, 0.0], [0.0, -1.0]])
    # spin-1 ladder gives the 1/sqrt(2) off-diagonals
    sx_one = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2.0)
    sz_one = np.diag([1.0, 0.0, -1.0])


for _m in (SpinOps.sx_half, SpinOps.sz_half, SpinOps.sx_one, SpinOps.sz_one):
    _m.setflags(write=False)


@dataclass(frozen=True)
class CouplingConfig:
    """Qubit splittings omega_X and pair couplings omega_XY."""

    omega_L: float
    omega_M: float
    omega_R: float
    omega_ML: float
    omega_MR: float
    omega_LR: float

    @staticmethod
    def preset(name: str, delta: float = 3.0,
               detuning: float = 0.1) -> "CouplingConfig":
        """Named coupling sets.

        baseline    every splitting = delta, chain couplings = delta,
                    no direct L-R coupling
        symmetric   baseline plus omega_LR = delta
        asymmetric  symmetric with omega_MR and omega_LR detuned by
                    +/- detuning
        appendixA   two-qubit variant: unequal splittings 1 and 2,
                    direct coupling delta, no middle qubit
        """
        if name == "baseline":
            return CouplingConfig(delta, delta, delta, delta, delta, 0.0)
        if name == "symmetric":
            return CouplingConfig(delta, delta, delta, delta, delta, delta)
        if name == "asymmetric":
            return CouplingConfig(delta, delta, delta, delta,
                                  delta + detuning, delta - detuning)
        if name == "appendixA":
            return CouplingConfig(1.0, 0.0, 2.0, 0.0, 0.0, delta)
        raise ValueError(
            f"unknown coupling preset {name!r}, expected one of "
            f"{COUPLING_PRESETS}")


@dataclass(frozen=True)
class EnvSpec:
    """Ancilla species, level spacing, temperatures, and attachment."""

    kind: str = "qutrit-linear"
    delta: float = 3.0
    epsilon: float = 0.0  # middle-level shift, qutrit-nonlinear only
    T_L: float = 4.0
    T_M: float = 10.0
    T_R: float = 10.0
    attach_L: bool = True
    attach_M: bool = True
    attach_R: bool = True

    def __post_init__(self):
        if self.kind not in ENV_KINDS:
            raise ValueError(
                f"unknown environment kind {self.kind!r}, expected one of "
                f"{ENV_KINDS}")
        for term in TERMINALS:
            if self.is_attached(term) and self.temperature(term) <= 0:
                raise ValueError(
                    f"T_{term} must be positive for an attached terminal, "
                    f"got {self.temperature(term)}")

    @property
    def ancilla_dim(self) -> int:
        return 2 if self.kind == "qubit" else 3

    def temperature(self, terminal: str) -> float:
        return {"L": self.T_L, "M": self.T_M, "R": self.T_R}[terminal]

    def is_attached(self, terminal: str) -> bool:
        return {"L": self.attach_L, "M": self.attach_M,
                "R": self.attach_R}[terminal]


@dataclass(frozen=True)
class ModelConfig:
    """Full simulation setup: couplings, environment, collision grid."""

    # not a setting: derivatives are exact, and finite-difference checks
    # of them (``metrics.five_point_derivative``) take this step
    stencil_h: ClassVar[float] = 0.05
    coupling: CouplingConfig
    env: EnvSpec
    g: float = 4.0
    dt_collision: float = 0.5
    sample_dt: float = 0.01
    n_qubits: int = 3

    def __post_init__(self):
        if self.n_qubits not in (2, 3):
            raise ValueError(f"n_qubits must be 2 or 3, got {self.n_qubits}")
        if self.dt_collision <= 0:
            raise ValueError(
                f"dt_collision must be positive, got {self.dt_collision}")
        if self.sample_dt <= 0:
            raise ValueError(
                f"sample_dt must be positive, got {self.sample_dt}")
        steps = self.dt_collision / self.sample_dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"sample_dt {self.sample_dt} does not divide the collision "
                f"window {self.dt_collision}")

    @staticmethod
    def default(preset: str = "baseline", **overrides) -> "ModelConfig":
        """Reference setup: delta = 3 (5 on appendixA), g = 4, T_L = 4,
        T_M = T_R = 10."""
        delta = overrides.pop("delta",
                              5.0 if preset == "appendixA" else 3.0)
        env_keys = {f.name for f in dataclasses.fields(EnvSpec)}
        env_over = {k: overrides.pop(k) for k in list(overrides)
                    if k in env_keys}
        n = overrides.pop("n_qubits", 3)
        if preset == "appendixA":
            n = 2
            env_over.setdefault("attach_M", False)
        env = EnvSpec(delta=delta, **env_over)
        coupling = CouplingConfig.preset(preset, delta=delta)
        return ModelConfig(coupling=coupling, env=env, n_qubits=n,
                           **overrides)

    @property
    def system_terminals(self) -> tuple:
        return ("L", "R") if self.n_qubits == 2 else TERMINALS

    @property
    def attached_terminals(self) -> tuple:
        return tuple(t for t in self.system_terminals
                     if self.env.is_attached(t))

    @property
    def modulating_terminal(self) -> str:
        # the gate terminal whose temperature is swept
        return "M" if self.n_qubits == 3 else "L"

    @property
    def samples_per_collision(self) -> int:
        return int(round(self.dt_collision / self.sample_dt))

    def joint_dims(self) -> list:
        """Local dimensions, system qubits first then attached ancillas."""
        return [2] * self.n_qubits + \
            [self.env.ancilla_dim] * len(self.attached_terminals)

    def splitting(self, terminal: str) -> float:
        return {"L": self.coupling.omega_L, "M": self.coupling.omega_M,
                "R": self.coupling.omega_R}[terminal]

    def with_temperature(self, terminal: str, T: float) -> "ModelConfig":
        env = dataclasses.replace(self.env, **{f"T_{terminal}": T})
        return dataclasses.replace(self, env=env)

    def replace(self, **kwargs) -> "ModelConfig":
        env_keys = {f.name for f in dataclasses.fields(EnvSpec)}
        env_over = {k: kwargs.pop(k) for k in list(kwargs) if k in env_keys}
        cfg = self
        if env_over:
            cfg = dataclasses.replace(
                cfg, env=dataclasses.replace(cfg.env, **env_over))
        return dataclasses.replace(cfg, **kwargs) if kwargs else cfg


def system_energies(coupling: CouplingConfig,
                    n_qubits: int = 3) -> np.ndarray:
    """Diagonal of the working-substance Hamiltonian on the bare qubits.

    H = -sum_i (omega_i / 2) sz_i  -  sum_pairs omega_ij sz_i sz_j
    with one term per unordered pair.  H is diagonal in the product
    basis, so each term is read off the qubits' sz = +/-1 levels; the
    terms are subtracted in the order above, which gives the diagonal of
    the sum of ``embed`` products in the tests
    (``embed_system_hamiltonian``) bit for bit.
    """
    if n_qubits == 3:
        order = ("L", "M", "R")
        pairs = [("M", "L", coupling.omega_ML),
                 ("M", "R", coupling.omega_MR),
                 ("L", "R", coupling.omega_LR)]
        splittings = (coupling.omega_L, coupling.omega_M, coupling.omega_R)
    elif n_qubits == 2:
        order = ("L", "R")
        pairs = [("L", "R", coupling.omega_LR)]
        splittings = (coupling.omega_L, coupling.omega_R)
    else:
        raise ValueError(f"n_qubits must be 2 or 3, got {n_qubits}")

    idx = {t: i for i, t in enumerate(order)}
    sz = 1.0 - 2.0 * np.indices([2] * n_qubits).reshape(n_qubits, -1)
    e = np.zeros(2 ** n_qubits)
    for t, omega in zip(order, splittings):
        e -= (omega / 2.0) * sz[idx[t]]
    for a, b, omega in pairs:
        e -= omega * (sz[idx[a]] * sz[idx[b]])
    return e


def build_system_hamiltonian(coupling: CouplingConfig,
                             n_qubits: int = 3) -> np.ndarray:
    """Working-substance Hamiltonian on the bare qubits, a diagonal
    matrix; see ``system_energies``."""
    return np.diag(system_energies(coupling, n_qubits))


def build_env_local_hamiltonian(env: EnvSpec) -> np.ndarray:
    """Hamiltonian of one fresh ancilla.

    qutrit-linear      -delta * sz  (spin-1)
    qutrit-nonlinear   -diag(delta, epsilon, -delta); epsilon < 0 bends
                       the spectrum like a transmon, epsilon > 0 like a
                       Kerr oscillator
    qubit              -delta * sz  (spin-1/2)
    """
    if env.kind == "qutrit-linear":
        return -env.delta * SpinOps.sz_one
    if env.kind == "qutrit-nonlinear":
        return -np.diag([env.delta, env.epsilon, -env.delta])
    if env.kind == "qubit":
        return -env.delta * SpinOps.sz_half
    raise ValueError(f"unknown environment kind {env.kind!r}")


def ancilla_thermal_state(env: EnvSpec, terminal: str) -> np.ndarray:
    """Fresh ancilla for one terminal at its bath temperature."""
    T = env.temperature(terminal)
    if T <= 0:
        raise ValueError(f"T_{terminal} must be positive, got {T}")
    return thermal_state(build_env_local_hamiltonian(env), 1.0 / T)


def local_parities(config: ModelConfig) -> np.ndarray:
    """Diagonals of the local parities P_X = sz_X (x) (-1)^m_X, shape
    (n_qubits, d), one row per qubit in ``system_terminals`` order.

    m_X is the level index of X's ancilla; a detached X has P_X = sz_X.
    Each qubit's sx (x) Sx coupling flips the parity of both its factors
    and every other term of H_tot is diagonal, so H_tot commutes with
    every P_X.
    """
    dims = config.joint_dims()
    signs = (-1.0) ** np.indices(dims).reshape(len(dims), -1)
    out = signs[:config.n_qubits].copy()
    for k, t in enumerate(config.attached_terminals):
        out[config.system_terminals.index(t)] *= signs[config.n_qubits + k]
    return out


def hamiltonian_entries(config: ModelConfig):
    """H_sys + sum of ancilla Hamiltonians + interaction, as the real
    entries of H_tot on the joint space: ``(diagonal, rows, cols,
    values)``.

    The diagonal is H_sys's diagonal plus each ancilla's level energy,
    read off the levels of each joint index.  Every other entry is one
    -g sx (x) Sx term, placed by index arithmetic: H_tot[rows[i],
    cols[i]] = values[i], each position once.  The sums run in the order
    of kron(H_sys, I) + sum embed(h_env) + H_int, the kron reference in
    the tests (``kron_total_hamiltonian``, with ``embed`` and H_int from
    their ``build_interaction_hamiltonian``), so the entries are that sum's,
    element for element.
    """
    n = config.n_qubits
    dims = config.joint_dims()
    d = int(np.prod(dims))
    levels = np.indices(dims).reshape(len(dims), -1)
    strides = d // np.cumprod(dims)
    diag = np.repeat(system_energies(config.coupling, n), d // 2 ** n)
    e_env = np.diagonal(build_env_local_hamiltonian(config.env))
    for k in range(len(config.attached_terminals)):
        diag += e_env[levels[n + k]]

    sx_env = SpinOps.sx_half if config.env.kind == "qubit" \
        else SpinOps.sx_one
    rows, cols = [np.zeros(0, int)], [np.zeros(0, int)]
    values = [np.zeros(0)]
    for k, t in enumerate(config.attached_terminals):
        q, slot = config.system_terminals.index(t), n + k
        # sx flips qubit q; Sx takes the ancilla from level m to m2
        flip = strides[q] * (1 - 2 * levels[q])
        for m, m2 in zip(*np.nonzero(sx_env)):
            r = np.flatnonzero(levels[slot] == m)
            rows.append(r)
            cols.append(r + flip[r] + strides[slot] * (m2 - m))
            # 0 - g sx Sx: the entry a sum started from zero holds,
            # signed zeros included
            values.append(np.full(len(r), 0.0 - config.g * sx_env[m, m2]))
    return diag, np.concatenate(rows), np.concatenate(cols), \
        np.concatenate(values)


def build_total_hamiltonian(config: ModelConfig) -> np.ndarray:
    """H_tot as a dense d x d matrix, assembled from
    ``hamiltonian_entries``."""
    diag, rows, cols, values = hamiltonian_entries(config)
    d = len(diag)
    h = np.zeros((d, d))
    h[np.arange(d), np.arange(d)] = diag
    h[rows, cols] = values
    return h
