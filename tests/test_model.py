"""Hamiltonian builders and configuration plumbing."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransistor import linalg as la
from qtransistor.model import (COUPLING_PRESETS, ENV_KINDS, TERMINALS,
                               CouplingConfig, EnvSpec, ModelConfig, SpinOps,
                               ancilla_thermal_state,
                               build_env_local_hamiltonian,
                               build_system_hamiltonian,
                               build_total_hamiltonian,
                               local_parities, system_energies)
from test_engine import small_models


def swap_LR_3q():
    """Permutation matrix exchanging qubits L and R (M untouched)."""
    p = np.zeros((8, 8))
    for i in range(8):
        l, m, r = (i >> 2) & 1, (i >> 1) & 1, i & 1
        p[(r << 2) | (m << 1) | l, i] = 1.0
    return p


def test_spin_ops_match_definitions():
    assert np.allclose(SpinOps.sx_one * np.sqrt(2),
                       [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.allclose(SpinOps.sz_one, np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(SpinOps.sx_half @ SpinOps.sx_half, np.eye(2))
    assert np.allclose(SpinOps.sz_half @ SpinOps.sz_half, np.eye(2))


def test_system_hamiltonian_zero_couplings():
    coupling = CouplingConfig(0, 0, 0, 0, 0, 0)
    assert np.count_nonzero(build_system_hamiltonian(coupling)) == 0


def test_system_hamiltonian_ground_diagonal():
    h = build_system_hamiltonian(CouplingConfig.preset("baseline"))
    # all spins up: -(3/2)*3 from splittings, -3 -3 from the two pair terms
    assert h[0, 0].real == pytest.approx(-10.5)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0  # diagonal
    assert la.hermiticity_defect(h) < 1e-12


def test_symmetric_preset_swap_invariance():
    h = build_system_hamiltonian(CouplingConfig.preset("symmetric"))
    p = swap_LR_3q()
    assert np.max(np.abs(p @ h @ p.T - h)) < 1e-12


def test_asymmetric_preset_breaks_swap_symmetry():
    h = build_system_hamiltonian(CouplingConfig.preset("asymmetric"))
    p = swap_LR_3q()
    assert np.max(np.abs(p @ h @ p.T - h)) > 0.1


def embed_system_hamiltonian(coupling, n_qubits):
    """H_sys as a sum of embedded sz and sz sz products, term by term."""
    order = ("L", "M", "R") if n_qubits == 3 else ("L", "R")
    pairs = [("M", "L"), ("M", "R"), ("L", "R")] if n_qubits == 3 \
        else [("L", "R")]
    omega = {"L": coupling.omega_L, "M": coupling.omega_M,
             "R": coupling.omega_R, "ML": coupling.omega_ML,
             "MR": coupling.omega_MR, "LR": coupling.omega_LR}
    dims, sz = [2] * n_qubits, SpinOps.sz_half
    h = np.zeros((2 ** n_qubits,) * 2, dtype=np.complex128)
    for i, t in enumerate(order):
        h -= (omega[t] / 2.0) * embed(sz, i, dims)
    for a, b in pairs:
        h -= omega[a + b] * embed_pair(sz, order.index(a), sz,
                                       order.index(b), dims)
    return h


@pytest.mark.parametrize("n_qubits", (2, 3))
@pytest.mark.parametrize("preset", COUPLING_PRESETS)
def test_system_hamiltonian_equals_its_embed_form(preset, n_qubits):
    coupling = CouplingConfig.preset(preset)
    h = build_system_hamiltonian(coupling, n_qubits)
    assert np.array_equal(h, embed_system_hamiltonian(coupling, n_qubits))
    assert np.array_equal(system_energies(coupling, n_qubits),
                          np.diagonal(h).real)


def test_baseline_preset_values():
    c = CouplingConfig.preset("baseline")
    assert (c.omega_L, c.omega_M, c.omega_R) == (3.0, 3.0, 3.0)
    assert (c.omega_ML, c.omega_MR, c.omega_LR) == (3.0, 3.0, 0.0)
    s = CouplingConfig.preset("symmetric")
    assert s.omega_LR == 3.0
    a = CouplingConfig.preset("asymmetric")
    assert (a.omega_MR, a.omega_LR) == (3.1, 2.9)
    two = CouplingConfig.preset("appendixA", delta=5.0)
    assert (two.omega_L, two.omega_R, two.omega_LR) == (1.0, 2.0, 5.0)
    with pytest.raises(ValueError):
        CouplingConfig.preset("nope")


def test_env_hamiltonian_kinds():
    lin = build_env_local_hamiltonian(EnvSpec(kind="qutrit-linear", delta=3))
    assert np.allclose(lin, np.diag([-3.0, 0.0, 3.0]))
    non0 = build_env_local_hamiltonian(
        EnvSpec(kind="qutrit-nonlinear", delta=3, epsilon=0.0))
    assert np.allclose(non0, lin)
    qb = build_env_local_hamiltonian(EnvSpec(kind="qubit", delta=3))
    assert np.allclose(qb, np.diag([-3.0, 3.0]))


def test_nonlinear_only_shifts_middle_level():
    lin = build_env_local_hamiltonian(EnvSpec(kind="qutrit-linear", delta=3))
    for eps in (0.01, -0.01, 0.05, -0.05):
        non = build_env_local_hamiltonian(
            EnvSpec(kind="qutrit-nonlinear", delta=3, epsilon=eps))
        diff = non - lin
        assert diff[1, 1] == pytest.approx(-eps)
        diff[1, 1] = 0
        assert np.count_nonzero(diff) == 0


def test_interaction_zero_coupling():
    h = build_interaction_hamiltonian(0.0, EnvSpec())
    assert np.count_nonzero(h) == 0


def test_interaction_single_terminal_entries():
    env = EnvSpec(attach_M=False, attach_R=False)
    h = build_interaction_hamiltonian(4.0, env)
    vals = np.unique(np.round(np.abs(h[h != 0]), 12))
    assert np.allclose(vals, [4.0 / np.sqrt(2)])
    assert la.hermiticity_defect(h) < 1e-12


def test_interaction_norm_qubit_ancillas():
    env = EnvSpec(kind="qubit")
    h = build_interaction_hamiltonian(4.0, env)
    assert h.shape == (64, 64)
    w = np.linalg.eigvalsh(h)
    # three commuting-support sigma_x x sigma_x terms, each of norm g
    assert abs(max(abs(w[0]), abs(w[-1])) - 12.0) < 1e-10


def test_total_hamiltonian_shapes_and_blocks():
    cfg = ModelConfig.default()
    h = build_total_hamiltonian(cfg)
    assert h.shape == (216, 216)
    assert la.hermiticity_defect(h) < 1e-12

    detached = ModelConfig.default(attach_L=False, attach_M=False,
                                   attach_R=False)
    h0 = build_total_hamiltonian(detached)
    assert np.allclose(h0, build_system_hamiltonian(cfg.coupling))

    free = ModelConfig.default(g=0.0)
    hf = build_total_hamiltonian(free)
    hs = la.kron(build_system_hamiltonian(free.coupling), np.eye(27))
    assert np.max(np.abs(hf @ hs - hs @ hf)) < 1e-12  # block-commutes


def test_embed_roundtrip_through_partial_trace():
    dims = [2, 2, 3]
    op = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    big = embed(op, 1, dims)
    # tracing out the identity spectators scales by their dimensions
    reduced = la.partial_trace(big, dims, [1])
    assert np.allclose(reduced, op * 6.0)
    with pytest.raises(ValueError):
        embed(op, 2, dims)  # 2x2 into a 3-dim slot
    with pytest.raises(ValueError):
        embed_pair(op, 0, op, 0, dims)


def test_ancilla_thermal_state_matches_direct_formula():
    env = EnvSpec(kind="qutrit-linear", delta=3.0, T_L=4.0)
    rho = ancilla_thermal_state(env, "L")
    h = build_env_local_hamiltonian(env)
    z = np.trace(np.diag(np.exp(-np.diag(h).real / 4.0)))
    expect = np.diag(np.exp(-np.diag(h).real / 4.0)) / z
    assert np.allclose(rho, expect)
    assert la.is_density_matrix(rho)


def test_env_spec_validation():
    with pytest.raises(ValueError):
        EnvSpec(kind="laser")
    with pytest.raises(ValueError):
        EnvSpec(T_M=-1.0)
    # detached terminals may carry any placeholder temperature
    spec = EnvSpec(T_M=-1.0, attach_M=False)
    assert not spec.is_attached("M")


def test_model_config_grid_validation():
    with pytest.raises(ValueError):
        ModelConfig.default(sample_dt=0.3)   # does not divide 0.5
    with pytest.raises(ValueError):
        ModelConfig.default(dt_collision=-0.5)
    with pytest.raises(ValueError):
        ModelConfig.default(n_qubits=4)
    cfg = ModelConfig.default(sample_dt=0.1)
    assert cfg.samples_per_collision == 5


def test_model_config_defaults_and_helpers():
    cfg = ModelConfig.default()
    assert (cfg.env.T_L, cfg.env.T_M, cfg.env.T_R) == (4.0, 10.0, 10.0)
    assert (cfg.g, cfg.dt_collision, cfg.sample_dt, cfg.stencil_h) == \
        (4.0, 0.5, 0.01, 0.05)
    assert cfg.system_terminals == ("L", "M", "R")
    assert cfg.modulating_terminal == "M"
    assert cfg.joint_dims() == [2, 2, 2, 3, 3, 3]

    warm = cfg.with_temperature("M", 6.0)
    assert warm.env.T_M == 6.0 and cfg.env.T_M == 10.0

    kerr = cfg.replace(kind="qutrit-nonlinear", epsilon=0.05, g=3.9)
    assert kerr.env.epsilon == 0.05 and kerr.g == 3.9


def test_two_qubit_variant():
    cfg = ModelConfig.default("appendixA")
    assert cfg.n_qubits == 2
    assert cfg.system_terminals == ("L", "R")
    assert cfg.modulating_terminal == "L"
    assert not cfg.env.is_attached("M")
    assert cfg.coupling.omega_LR == 5.0
    h = build_system_hamiltonian(cfg.coupling, 2)
    # <00| -omega_L/2 sz - omega_R/2 sz - omega_LR sz sz |00>
    assert h[0, 0].real == pytest.approx(-0.5 - 1.0 - 5.0)
    assert build_total_hamiltonian(cfg).shape == (36, 36)
    # delta sets the device's scale, 5 unless given
    scaled = ModelConfig.default("appendixA", delta=4.0)
    assert scaled.coupling.omega_LR == 4.0 and scaled.env.delta == 4.0
    assert cfg.env.delta == 5.0


@pytest.mark.parametrize("n_qubits", (2, 3))
@pytest.mark.parametrize("kind", ENV_KINDS)
@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=9, max_size=9))
def test_total_hamiltonian_commutes_exactly_with_the_parity(
        kind, n_qubits, values):
    g, epsilon, env_delta, *omegas = values
    coupling = CouplingConfig(*omegas)
    for attach in itertools.product((True, False), repeat=3):
        env = EnvSpec(kind=kind, delta=env_delta, epsilon=epsilon,
                      **dict(zip(("attach_L", "attach_M", "attach_R"),
                                 attach)))
        cfg = ModelConfig(coupling=coupling, env=env, g=g,
                          n_qubits=n_qubits)
        h = build_total_hamiltonian(cfg)
        parities = local_parities(cfg)
        assert parities.shape == (n_qubits, h.shape[0])
        # each local parity P_X, and so every product of them
        for p in parities:
            assert set(p) == {1.0, -1.0}
            # H diag(P) - diag(P) H, elementwise
            assert np.count_nonzero(h * p - p[:, None] * h) == 0


def embed(op: np.ndarray, site: int, dims: list) -> np.ndarray:
    """Place a local operator at tensor slot ``site``, identity elsewhere."""
    factors = [np.eye(d, dtype=np.complex128) for d in dims]
    if op.shape != (dims[site], dims[site]):
        raise ValueError(
            f"operator shape {op.shape} does not fit slot {site} of {dims}")
    factors[site] = op
    return la.kron(*factors)


def embed_pair(op1: np.ndarray, site1: int, op2: np.ndarray, site2: int,
               dims: list) -> np.ndarray:
    """Product of two local operators at distinct slots."""
    if site1 == site2:
        raise ValueError("sites must differ")
    factors = [np.eye(d, dtype=np.complex128) for d in dims]
    factors[site1] = op1
    factors[site2] = op2
    return la.kron(*factors)


def build_interaction_hamiltonian(g: float, env: EnvSpec,
                                  n_qubits: int = 3) -> np.ndarray:
    """System-ancilla coupling on the joint space, one kron product per
    attached terminal; the reference for ``hamiltonian_entries``.

    H_int = -g sum over attached terminals of sx_qubit sx_ancilla,
    with ancilla slots ordered like their terminals.
    """
    order = TERMINALS if n_qubits == 3 else ("L", "R")
    attached = [t for t in order if env.is_attached(t)]
    dims = [2] * n_qubits + [env.ancilla_dim] * len(attached)
    d = int(np.prod(dims))
    h = np.zeros((d, d), dtype=np.complex128)
    sx_env = SpinOps.sx_half if env.kind == "qubit" else SpinOps.sx_one
    idx = {t: i for i, t in enumerate(order)}
    for k, t in enumerate(attached):
        h -= g * embed_pair(SpinOps.sx_half, idx[t], sx_env,
                            n_qubits + k, dims)
    return h


def kron_total_hamiltonian(cfg):
    """kron(H_sys, I) + sum embed(h_env) + H_int, term by term."""
    n, dims = cfg.n_qubits, cfg.joint_dims()
    d_env = int(np.prod(dims[n:]))
    h = la.kron(build_system_hamiltonian(cfg.coupling, n),
                np.eye(d_env, dtype=np.complex128))
    for k in range(len(cfg.attached_terminals)):
        h += embed(build_env_local_hamiltonian(cfg.env), n + k, dims)
    return h + build_interaction_hamiltonian(cfg.g, cfg.env, n)


KRON_MODELS = {
    "baseline": ModelConfig.default(),
    "symmetric": ModelConfig.default("symmetric"),
    "asymmetric": ModelConfig.default("asymmetric", g=3.7),
    "nonlinear": ModelConfig.default(kind="qutrit-nonlinear", epsilon=-0.03),
    "qubit": ModelConfig.default(kind="qubit"),
    "appendixA": ModelConfig.default("appendixA"),
    "no_R": ModelConfig.default(attach_R=False),
}


@pytest.mark.parametrize("name", sorted(KRON_MODELS))
def test_total_hamiltonian_equals_its_kron_form(name):
    cfg = KRON_MODELS[name]
    assert np.array_equal(build_total_hamiltonian(cfg),
                          kron_total_hamiltonian(cfg))


@settings(max_examples=30, deadline=None)
@given(small_models())
def test_total_hamiltonian_equals_its_kron_form_for_any_model(cfg):
    assert np.array_equal(build_total_hamiltonian(cfg),
                          kron_total_hamiltonian(cfg))
