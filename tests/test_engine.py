"""Collision propagation against brute-force references."""

import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransistor import engine
from qtransistor import linalg as la
from qtransistor import model
from qtransistor.engine import (Propagator, Trajectory, _Core,
                                _current_generators, _populations,
                                _sector_hamiltonian, _sector_unitaries,
                                _transfer, evolve, initial_state,
                                local_heat_current, sample_currents,
                                sample_states)
from qtransistor.metrics import sweep
from qtransistor.model import (ENV_KINDS, ModelConfig, SpinOps,
                               ancilla_thermal_state,
                               build_total_hamiltonian)


def coarse(**over):
    return ModelConfig.default(sample_dt=0.1, **over)


def random_state(rng, d):
    """A random density matrix of random rank, coherences included."""
    rank = rng.integers(1, d + 1)
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def env_product(cfg):
    parts = [ancilla_thermal_state(cfg.env, t)
             for t in cfg.attached_terminals]
    return la.kron(*parts) if parts else np.eye(1, dtype=complex)


def test_initial_state_projector():
    for n in (2, 3):
        rho = initial_state(n)
        assert rho.shape == (2 ** n, 2 ** n)
        assert rho[0, 0] == 1.0 and np.count_nonzero(rho) == 1
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        initial_state(0)


def test_free_system_is_stationary():
    traj = evolve(coarse(g=0.0), 2.0)
    for x in ("L", "M", "R"):
        assert np.max(np.abs(traj.currents[x])) < 1e-12
    full = evolve(coarse(g=0.0), 1.0, store_states=True)
    assert np.max(np.abs(full.system_states - full.system_states[0])) < 1e-12


def test_detached_all_is_constant():
    cfg = coarse(attach_L=False, attach_M=False, attach_R=False)
    traj = evolve(cfg, 1.0, store_states=True)
    assert np.max(np.abs(traj.system_states - traj.system_states[0])) < 1e-12
    for x in ("L", "M", "R"):  # diagonal H_sys drives no local current
        assert np.max(np.abs(traj.currents[x])) < 1e-12


def test_first_collision_changes_the_state():
    traj = evolve(coarse(), 0.5, store_states=True)
    d = la.trace_distance(traj.system_states[0], traj.system_states[-1])
    assert d > 0.01


def test_step_collision_matches_evolve():
    cfg = coarse()
    steps = cfg.samples_per_collision
    prop = Propagator([cfg], np.arange(steps + 1))
    pi = np.diagonal(initial_state(3)).real[None]
    pi, dpi, cur1, _ = prop.collision(pi, np.zeros_like(pi))
    pi, dpi, cur2, _ = prop.collision(pi, dpi)

    traj = evolve(cfg, 1.0, store_states=True)
    # rows 1..steps of each window; row 0 of the first is the attach
    stitched = np.concatenate([cur1[0, 1:], cur2[0, 1:]])
    for i, x in enumerate(("L", "M", "R")):
        assert np.allclose(stitched[:, i], traj.currents[x][1:], atol=1e-12)
        assert cur1[0, 0, i] == pytest.approx(traj.currents[x][0], abs=1e-12)
    # the population step against the diagonal of the channel's state
    assert np.max(np.abs(pi[0] - np.diagonal(traj.system_states[-1]))) < 1e-12


def test_evolve_against_brute_force_unitary():
    # independent integration: dense exp(-iHt), explicit partial traces
    cfg = ModelConfig.default(sample_dt=0.25)
    traj = evolve(cfg, 1.0, store_states=True)

    h = build_total_hamiltonian(cfg)
    dims = cfg.joint_dims()
    rho_sys = initial_state(3)
    k = 0
    for _ in range(2):  # collisions
        joint0 = la.kron(rho_sys, env_product(cfg))
        for s in (1, 2):
            u = la.unitary_exp(h, s * cfg.sample_dt)
            joint = u @ joint0 @ u.conj().T
            k += 1
            ref_state = la.partial_trace(joint, dims, [0, 1, 2])
            assert np.max(np.abs(ref_state - traj.system_states[k])) < 1e-12
            for x in ("L", "M", "R"):
                ref_j = local_heat_current(joint, h, x, cfg)
                assert abs(ref_j - traj.currents[x][k]) < 1e-10
        rho_sys = ref_state


def test_commutator_current_matches_finite_difference():
    cfg = ModelConfig.default(sample_dt=0.25)
    h = build_total_hamiltonian(cfg)
    dims = cfg.joint_dims()
    joint0 = la.kron(initial_state(3), env_product(cfg))
    delta = 1e-4
    for tau in (0.25, 0.4):
        u0 = la.unitary_exp(h, tau)
        joint = u0 @ joint0 @ u0.conj().T
        for i, x in enumerate(("L", "M", "R")):
            h_x = -(cfg.splitting(x) / 2.0) * np.diag([1.0, -1.0])
            vals = []
            for s in (+1, -1):
                u = la.unitary_exp(h, tau + s * delta)
                jt = u @ joint0 @ u.conj().T
                red = la.partial_trace(jt, dims, [i])
                vals.append(np.trace(red @ h_x).real)
            fd = -(vals[0] - vals[1]) / (2 * delta)
            assert abs(fd - local_heat_current(joint, h, x, cfg)) < 1e-5


def test_currents_initially_negative():
    traj = evolve(ModelConfig.default(), 1.0)
    idx = traj.index_at(0.2)
    for x in ("L", "M", "R"):
        assert traj.currents[x][idx] < 0.0


def test_density_matrix_invariants_over_many_collisions():
    traj = evolve(coarse(), 20.0, store_states=True)
    for rho in traj.system_states[::10]:
        herm, tr, lo = la.density_matrix_defects(rho)
        assert herm < 1e-10 and tr < 1e-9 and lo > -1e-8
        assert np.trace(rho @ rho).real <= 1.0 + 1e-9


def test_qubit_marginals_consistent_with_full_states():
    cfg = coarse()
    full = evolve(cfg, 1.0, store_states=True)
    for i, x in enumerate(("L", "M", "R")):
        ref = np.stack([la.partial_trace(r, [2, 2, 2], [i])
                        for r in full.system_states])
        assert np.max(np.abs(ref - full.qubit_states[x])) < 1e-12


def test_left_right_temperature_swap_symmetry():
    base = coarse()
    traj = evolve(base, 2.0)
    swapped = evolve(base.replace(T_L=base.env.T_R, T_R=base.env.T_L), 2.0)
    assert np.max(np.abs(traj.currents["L"] - swapped.currents["R"])) < 1e-9
    assert np.max(np.abs(traj.currents["R"] - swapped.currents["L"])) < 1e-9
    assert np.max(np.abs(traj.currents["M"] - swapped.currents["M"])) < 1e-9


def test_boundary_conventions_share_interiors():
    cfg = coarse()
    left = evolve(cfg, 1.5, boundary="left")
    right = evolve(cfg, 1.5, boundary="right")
    edge = [cfg.samples_per_collision * k for k in (1, 2, 3)]
    interior = np.setdiff1d(np.arange(len(left.times)), edge)
    for x in ("L", "M", "R"):
        assert np.allclose(left.currents[x][interior],
                           right.currents[x][interior])
    # right limit at an edge is the fresh-ancilla attach value; the left
    # limit is the end of the expiring window
    state = evolve(cfg, 0.5, store_states=True).system_states[-1]
    h = build_total_hamiltonian(cfg)
    joint_fresh = la.kron(state, env_product(cfg))
    joint0 = la.kron(initial_state(3), env_product(cfg))
    u = la.unitary_exp(h, cfg.dt_collision)
    joint_end = u @ joint0 @ u.conj().T
    for x in ("L", "M", "R"):
        ref_right = local_heat_current(joint_fresh, h, x, cfg)
        ref_left = local_heat_current(joint_end, h, x, cfg)
        assert abs(right.currents[x][edge[0]] - ref_right) < 1e-10
        assert abs(left.currents[x][edge[0]] - ref_left) < 1e-10


def test_trajectory_bookkeeping():
    cfg = coarse()
    traj = evolve(cfg, 1.0)
    assert len(traj.times) == 11
    assert traj.times[0] == 0.0
    assert np.allclose(np.diff(traj.times), cfg.sample_dt)
    assert traj.index_at(0.7) == 7
    assert traj.current("L", 0.7) == traj.currents["L"][7]
    with pytest.raises(ValueError):
        traj.index_at(0.73)
    with pytest.raises(ValueError):
        traj.index_at(3.0)
    assert traj.collision_index[0] == 0
    assert traj.collision_index[1] == 1
    assert traj.collision_index[5] == 1   # left limit owns the edge
    assert traj.collision_index[6] == 2


def test_evolve_argument_validation():
    cfg = coarse()
    with pytest.raises(ValueError):
        evolve(cfg, 0.7)              # not a whole number of collisions
    with pytest.raises(ValueError):
        evolve(cfg, -1.0)
    with pytest.raises(ValueError):
        evolve(cfg, 1.0, boundary="middle")
    with pytest.raises(ValueError):
        evolve(cfg, 1.0, initial=np.eye(4) / 4)

    still = evolve(cfg, 0.0)
    assert len(still.times) == 1
    assert still.times[0] == 0.0


def test_custom_initial_state():
    cfg = coarse()
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[7, 7] = 1.0  # |111>
    traj = evolve(cfg, 0.5, store_states=True, initial=rho0)
    assert np.allclose(traj.system_states[0], rho0)
    assert la.trace_distance(traj.system_states[-1], rho0) > 0.01


# ------------------------------------------------ map-free path, any model

@st.composite
def small_models(draw):
    n = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(ENV_KINDS))
    over = dict(n_qubits=n, kind=kind, sample_dt=0.25,
                g=draw(st.floats(0.0, 6.0)),
                epsilon=draw(st.floats(-1.0, 1.0)))
    for x in ("L", "M", "R"):
        over[f"attach_{x}"] = draw(st.booleans())
    return ModelConfig.default(**over)


@settings(max_examples=20, deadline=None)
@given(small_models())
def test_evolve_matches_brute_force_for_any_model(cfg):
    traj = evolve(cfg, 1.0, store_states=True)
    right = evolve(cfg, 1.0, boundary="right")
    h = build_total_hamiltonian(cfg)
    dims = cfg.joint_dims()
    sites = list(range(cfg.n_qubits))

    def currents(joint):
        return [local_heat_current(joint, h, x, cfg)
                for x in cfg.system_terminals]

    # per sample: brute-force currents seen from the left and the right;
    # they differ only at window edges, where "right" holds the fresh-
    # ancilla (tau = 0) value
    ref_left, ref_right = [], []
    rho_sys = initial_state(cfg.n_qubits)
    ref_states = [rho_sys]
    k = 0
    for c in range(2):  # collisions
        joint0 = la.kron(rho_sys, env_product(cfg))
        attach = currents(joint0)
        if c == 0:
            ref_left.append(attach)
            ref_right.append(attach)
        else:
            ref_right[-1] = attach
        for s in (1, 2):
            u = la.unitary_exp(h, s * cfg.sample_dt)
            k += 1
            joint = u @ joint0 @ u.conj().T
            ref = la.partial_trace(joint, dims, sites)
            assert np.max(np.abs(ref - traj.system_states[k])) < 1e-12
            ref_states.append(ref)
            ref_left.append(currents(joint))
            ref_right.append(ref_left[-1])
        rho_sys = ref
    ref_right[-1] = currents(la.kron(rho_sys, env_product(cfg)))
    for tr, refs in ((traj, ref_left), (right, ref_right)):
        got = np.stack([tr.currents[x] for x in cfg.system_terminals], 1)
        assert np.max(np.abs(got - np.array(refs))) < 1e-10
    for rho in traj.system_states:
        assert la.is_density_matrix(rho)

    for i, x in enumerate(cfg.system_terminals):
        ref = np.stack([la.partial_trace(r, [2] * cfg.n_qubits, [i])
                        for r in ref_states])
        assert np.max(np.abs(traj.qubit_states[x] - ref)) < 1e-12


# ------------------------------------------- sampled currents, window channel

CHANNEL_MODELS = {
    "baseline": coarse(),
    "symmetric": ModelConfig.default("symmetric", sample_dt=0.1),
    "asymmetric": ModelConfig.default("asymmetric", sample_dt=0.1),
    "appendixA": ModelConfig.default("appendixA", sample_dt=0.1),
    "qubit": coarse(kind="qubit"),
    "nonlinear": coarse(kind="qutrit-nonlinear", epsilon=-0.4),
    "no_R": coarse(attach_R=False),
    "detached": coarse(attach_L=False, attach_M=False, attach_R=False),
    "two_qubit": coarse(n_qubits=2, kind="qubit"),
}


def scattered_unitary(core, tau):
    """The core's sector unitaries placed on the joint space: the dense
    exp(-i tau H_tot), zero between sectors."""
    u = np.zeros((core.d, core.d), dtype=np.complex128)
    u[core.index[:, :, None], core.index[:, None, :]] = \
        _sector_unitaries(core, tau)
    return u


@pytest.mark.parametrize("name", sorted(CHANNEL_MODELS))
def test_window_unitary_matches_dense_exponential(name):
    # the core's parity sectors against exp(-i tau H_tot) of the full H
    cfg = CHANNEL_MODELS[name]
    core = _Core(cfg)
    h = build_total_hamiltonian(cfg)
    # the stacked sector indices cover the joint space once
    assert np.array_equal(np.sort(core.index, axis=None), np.arange(len(h)))
    for tau in (cfg.sample_dt, cfg.dt_collision):
        u = scattered_unitary(core, tau)
        assert np.max(np.abs(u - la.unitary_exp(h, tau))) < 1e-12


@pytest.mark.parametrize("name", sorted(CHANNEL_MODELS))
def test_sector_blocks_are_the_dense_hamiltonian_bit_for_bit(name):
    cfg = CHANNEL_MODELS[name]
    index, blocks = _sector_hamiltonian(cfg)
    h = build_total_hamiltonian(cfg)
    inside = np.zeros(h.shape, dtype=bool)
    for i, block in zip(index, blocks):
        assert np.array_equal(block, h[np.ix_(i, i)])
        inside[np.ix_(i, i)] = True
    # the dense H has no entry between two sectors
    assert np.count_nonzero(h[~inside]) == 0


@pytest.mark.parametrize("name", sorted(CHANNEL_MODELS))
def test_stacked_sector_spectra_equal_the_per_block_ones(name):
    _, blocks = _sector_hamiltonian(CHANNEL_MODELS[name])
    w, v = la.hermitian_eig(blocks)
    for block, w_block, v_block in zip(blocks, w, v):
        alone = la.hermitian_eig(block)
        assert np.array_equal(alone.eigenvalues, w_block)
        assert np.array_equal(alone.eigenvectors, v_block)
    broken = blocks.astype(np.complex128)
    broken[-1, -1, 0] += 1e-6j  # one entry of one block only
    with pytest.raises(ValueError, match="not Hermitian"):
        la.hermitian_eig(broken)


@pytest.mark.parametrize("name", sorted(CHANNEL_MODELS))
def test_transfer_equals_the_dense_unitary_sum_bit_for_bit(name):
    # T_e[b, a] = sum_f |U[(b, f), (a, e)]|^2 on the dense U, f summed
    # by numpy along its axis
    cfg = CHANNEL_MODELS[name]
    core = _Core(cfg)
    d_sys, d_anc = core.d_sys, core.d // core.d_sys
    u = scattered_unitary(core, cfg.dt_collision)
    dense = (u.real ** 2 + u.imag ** 2).reshape(
        d_sys, d_anc, d_sys, d_anc).sum(axis=1)
    each = _transfer(core, cfg.dt_collision, np.eye(d_anc))
    assert np.array_equal(each, dense.transpose(2, 0, 1))
    hot = [cfg.replace(T_L=0.4, T_M=9.0, T_R=3.0), cfg]
    prop = Propagator(hot, [0])
    p, dp = np.split(_populations(hot), 2)
    assert np.array_equal(prop.transfer, engine._mix(dense, p))
    assert np.array_equal(prop.dtransfer, engine._mix(dense, dp))


def test_core_refuses_a_hamiltonian_that_mixes_parity_sectors(monkeypatch):
    # imported here: test_model imports this module
    from test_model import embed, embed_pair

    cfg = coarse()
    dims = cfg.joint_dims()
    # a lone sx on one qubit flips that qubit's local parity alone; sx on
    # L with Sx on M's ancilla keeps the global parity but flips P_L, P_M
    extras = [embed(SpinOps.sx_half, site, dims) for site in range(3)]
    extras.append(embed_pair(SpinOps.sx_half, 0, SpinOps.sx_one, 4, dims))
    entries = model.hamiltonian_entries
    for extra in extras:
        def with_extra(config, extra=extra):
            diag, rows, cols, values = entries(config)
            more_rows, more_cols = np.nonzero(extra)
            return (diag, np.concatenate([rows, more_rows]),
                    np.concatenate([cols, more_cols]),
                    np.concatenate([values,
                                    0.1 * extra[more_rows, more_cols]]))

        monkeypatch.setattr(engine, "hamiltonian_entries", with_extra)
        with pytest.raises(ValueError, match="parity"):
            _Core(cfg)


def test_core_refuses_a_hamiltonian_with_an_imaginary_entry(monkeypatch):
    # a Hermitian pair +-0.1i on one coupling entry and its transpose:
    # every check but the realness one passes
    entries = model.hamiltonian_entries

    def with_imaginary(config):
        diag, rows, cols, values = entries(config)
        values = values.astype(np.complex128)
        values[0] += 0.1j
        values[np.flatnonzero((rows == cols[0]) & (cols == rows[0]))] -= 0.1j
        return diag, rows, cols, values

    monkeypatch.setattr(engine, "hamiltonian_entries", with_imaginary)
    _, blocks = _sector_hamiltonian(coarse())
    assert la.hermiticity_defect(blocks) == 0.0
    assert np.count_nonzero(blocks.imag) == 2
    with pytest.raises(ValueError, match="imaginary"):
        _Core(coarse())


def test_every_engine_eigh_gets_a_real_stack(monkeypatch):
    dtypes, eig = [], engine.hermitian_eig

    def recorded(h):
        dtypes.append(np.asarray(h).dtype)
        return eig(h)

    monkeypatch.setattr(engine, "hermitian_eig", recorded)
    cfg = coarse()
    for result in (sweep(cfg, "g", [3.9, 4.1], t=1.0),
                   sweep(cfg, "T_M", [5.0, 7.5], t=1.0)):
        assert not any(result.errors)
    sample_states(cfg.replace(g=3.7), [None], 1.0)
    engine.sample_marginals(cfg.replace(g=3.6), [None], [1], 1.0)
    assert dtypes == [np.dtype(np.float64)] * 5
    core = engine._Core(cfg)
    assert core.w.dtype == core.v.dtype == np.float64


@pytest.mark.parametrize("kind", ENV_KINDS)
@pytest.mark.parametrize("n_qubits", (2, 3))
def test_hamiltonian_data_is_real(kind, n_qubits):
    cfg = coarse(kind=kind, n_qubits=n_qubits,
                 epsilon=0.05 if kind == "qutrit-nonlinear" else 0.0)
    assert model.hamiltonian_entries(cfg)[3].dtype == np.float64
    assert _sector_hamiltonian(cfg)[1].dtype == np.float64


def test_no_core_outlives_its_call(monkeypatch):
    # a core lives as long as the chain or carry that reads it
    built, init = [], _Core.__init__

    def recorded(self, config):
        init(self, config)
        built.append(weakref.ref(self))

    monkeypatch.setattr(_Core, "__init__", recorded)
    cfg = coarse()
    assert not any(sweep(cfg, "g", [3.9, 4.1], t=1.0).errors)
    engine.sample_marginals(cfg, [None], [1], 1.0)
    gc.collect()
    assert len(built) == 3
    assert all(core() is None for core in built)


def test_engine_paths_never_build_the_dense_hamiltonian(monkeypatch):
    def refuse(config):
        raise AssertionError("the dense H_tot was built")

    # wherever the package holds the builder, imported by name or not
    for name, module in list(sys.modules.items()):
        if name.startswith("qtransistor") and \
                hasattr(module, "build_total_hamiltonian"):
            monkeypatch.setattr(module, "build_total_hamiltonian", refuse)
    shapes, eig = [], engine.hermitian_eig

    def recorded(h):
        shapes.append(np.shape(h))
        return eig(h)

    monkeypatch.setattr(engine, "hermitian_eig", recorded)
    cfg = coarse()
    for result in (sweep(cfg, "g", [3.9, 4.1], t=1.0),
                   sweep(cfg, "T_M", [5.0, 7.5], t=1.0)):
        assert not any(result.errors)
    states = sample_states(cfg.replace(g=3.7), [None], 1.0)
    assert np.isfinite(states).all()
    # one stacked call per core, on the 8 sectors of 27 only
    assert shapes == [(8, 27, 27)] * 4


@pytest.mark.parametrize("name", sorted(CHANNEL_MODELS))
def test_transfer_is_nonnegative_and_column_stochastic(name):
    cfg = CHANNEL_MODELS[name]
    hot = [cfg.replace(T_L=4.0 * t_scale, T_M=10.0 * t_scale,
                       T_R=7.0 * t_scale) for t_scale in (0.3, 1.0, 5.0)]
    transfer = Propagator(hot, [0]).transfer  # one T per config
    assert transfer.shape == (len(hot),) + (2 ** cfg.n_qubits,) * 2
    assert transfer.min() >= 0.0
    assert np.max(np.abs(transfer.sum(axis=1) - 1.0)) < 1e-14


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(CHANNEL_MODELS)), st.integers(0, 2 ** 32 - 1))
def test_currents_from_a_state_with_coherences_match_brute_force(name, seed):
    # the chain reads only the populations; brute force uses all of rho
    cfg = CHANNEL_MODELS[name].replace(sample_dt=0.25)
    rho = random_state(np.random.default_rng(seed), 2 ** cfg.n_qubits)
    traj = evolve(cfg, 1.0, initial=rho)
    h = build_total_hamiltonian(cfg)
    dims, sites = cfg.joint_dims(), list(range(cfg.n_qubits))
    ref = []
    for window in range(2):
        joint0 = la.kron(rho, env_product(cfg))
        taus = (0.0, 0.25, 0.5) if window == 0 else (0.25, 0.5)
        for tau in taus:
            u = la.unitary_exp(h, tau)
            joint = u @ joint0 @ u.conj().T
            ref.append([local_heat_current(joint, h, x, cfg)
                        for x in cfg.system_terminals])
        rho = la.partial_trace(joint, dims, sites)
    got = np.stack([traj.currents[x] for x in cfg.system_terminals], 1)
    assert np.max(np.abs(got - np.array(ref))) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(("baseline", "asymmetric", "appendixA")),
       st.integers(0, 2 ** 32 - 1))
def test_trace_distance_never_grows_from_one_window_start_to_the_next(
        name, seed):
    # the window map is CPTP, so it contracts the trace distance
    cfg = CHANNEL_MODELS[name]
    rng = np.random.default_rng(seed)
    pair = [random_state(rng, 2 ** cfg.n_qubits) for _ in range(2)]
    starts = sample_states(cfg, pair, 3.0)[:, ::cfg.samples_per_collision]
    dist = [la.trace_distance(a, b) for a, b in zip(*starts)]
    assert np.all(np.diff(dist) <= 1e-12)


@pytest.mark.parametrize("boundary", ("left", "right"))
@pytest.mark.parametrize("name", sorted(CHANNEL_MODELS))
def test_sample_currents_match_evolve_at_every_sample(name, boundary):
    cfg = CHANNEL_MODELS[name]
    mod = cfg.modulating_terminal
    temps = [cfg.env.temperature(mod) + k for k in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    configs = [cfg.with_temperature(mod, T) for T in temps]
    trajs = [evolve(c, 1.0, boundary=boundary) for c in configs]
    times = trajs[0].times  # two windows, both edges and the horizon
    refs = np.stack([np.stack([tr.currents[x] for x in cfg.system_terminals],
                              1) for tr in trajs])
    # five configs share one row functional per phase row
    together = sample_currents(configs, times, boundary)
    assert together.shape == refs.shape
    assert np.max(np.abs(together - refs)) < 1e-12
    # a config reads the same bits alone as in a batch, and any order and
    # any subset of times reads the same samples
    alone = sample_currents(configs[:1], times, boundary)
    assert np.array_equal(alone[0], together[0])
    picked = sample_currents(configs, times[::-3], boundary)
    assert np.array_equal(picked, together[:, ::-3])


@pytest.mark.parametrize("boundary", ("left", "right"))
def test_evolve_and_sample_currents_share_every_bit(boundary):
    # one route: the same chain step and row functionals in both
    for cfg in CHANNEL_MODELS.values():
        traj = evolve(cfg, 1.5, boundary=boundary)
        ref = np.stack([traj.currents[x] for x in cfg.system_terminals], 1)
        got = sample_currents([cfg], traj.times, boundary)[0]
        assert np.array_equal(got, ref)


def test_sample_currents_need_one_shared_hamiltonian():
    cfg = coarse()
    mixed = [cfg, cfg.replace(g=cfg.g + 0.5)]
    with pytest.raises(ValueError, match="differ only in bath temperatures"):
        sample_currents(mixed, [0.5])
    with pytest.raises(ValueError, match="differ only in bath temperatures"):
        sample_currents([cfg, cfg.replace(sample_dt=0.05)], [0.5])
    with pytest.raises(ValueError, match="sample grid"):
        sample_currents([cfg], [0.55])
    with pytest.raises(ValueError, match="sample grid"):
        sample_currents([cfg], [-0.1])
    with pytest.raises(ValueError, match="boundary"):
        sample_currents([cfg], [0.5], boundary="middle")
    # temperatures may differ
    ok = sample_currents([cfg, cfg.replace(T_L=7.0, T_R=2.0)], [0.5])
    assert ok.shape == (2, 1, 3)


def test_one_reader_call_reads_the_ancilla_hamiltonian_once(monkeypatch):
    cfg = ModelConfig.default()
    sample_currents([cfg], [1.0])  # the shared core is built here
    calls, build = [], engine.build_env_local_hamiltonian

    def counted(env):
        calls.append(env)
        return build(env)

    monkeypatch.setattr(engine, "build_env_local_hamiltonian", counted)
    sample_currents([cfg], [1.0])
    # three attached terminals share one ancilla spectrum
    assert len(calls) == 1


def test_sample_currents_memory_stays_below_one_channel_per_config():
    cfg = ModelConfig.default()
    configs = [cfg.with_temperature("M", 4.0 + 0.05 * k) for k in range(120)]
    sample_currents(configs[:1], [1.0])  # the shared core is built here
    tracemalloc.start()
    try:
        sample_currents(configs, [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the channels are mixed one config at a time, never stacked
    assert peak < len(configs) * 64 * 64 * 16


def probe_on_middle_qubit(cfg):
    """|+> on qubit n // 2, every other qubit in |0>."""
    plus, ground = np.full((2, 2), 0.5), np.diag([1.0, 0.0])
    return la.kron(*[plus if i == cfg.n_qubits // 2 else ground
                     for i in range(cfg.n_qubits)])


def brute_force_states(cfg, rho0, n_windows):
    """System state at every sample, from the dense joint unitary."""
    h = build_total_hamiltonian(cfg)
    dims, sites = cfg.joint_dims(), list(range(cfg.n_qubits))
    steps = cfg.samples_per_collision
    unitaries = [la.unitary_exp(h, s * cfg.sample_dt)
                 for s in range(1, steps + 1)]
    out = [rho0]
    for _ in range(n_windows):
        joint0 = la.kron(out[-1], env_product(cfg))
        out += [la.partial_trace(u @ joint0 @ u.conj().T, dims, sites)
                for u in unitaries]
    return np.stack(out)


@pytest.mark.parametrize("name", sorted(CHANNEL_MODELS))
def test_sample_states_match_evolve_at_every_sample(name):
    # evolve stores sample_states' states, so the reference is brute force
    cfg = CHANNEL_MODELS[name]
    initials = [initial_state(cfg.n_qubits), probe_on_middle_qubit(cfg)]
    got = sample_states(cfg, initials, 1.0)  # two windows of five rows
    assert got.shape == (2, 11) + initials[0].shape
    for rho0, states in zip(initials, got):
        ref = brute_force_states(cfg, rho0, 2)
        assert np.max(np.abs(states - ref)) < 1e-12
    assert sample_states(cfg, initials[:1], 0.0).shape == \
        (1, 1) + initials[0].shape
    with pytest.raises(ValueError, match="whole number"):
        sample_states(cfg, initials, 0.7)
    with pytest.raises(ValueError, match="initial state"):
        sample_states(cfg, [np.eye(2 ** cfg.n_qubits + 1)], 1.0)


@pytest.mark.parametrize("name", sorted(CHANNEL_MODELS))
def test_sample_states_carry_every_difference_block(name):
    # a random rho occupies every block rho[a, a ^ delta]
    cfg = CHANNEL_MODELS[name]
    d = 2 ** cfg.n_qubits
    rho0 = random_state(np.random.default_rng(len(name)), d)
    assert np.all(rho0 != 0)
    got = sample_states(cfg, [rho0], 1.0)[0]
    assert np.max(np.abs(got - brute_force_states(cfg, rho0, 2))) < 1e-12


@pytest.mark.parametrize("name", ("baseline", "appendixA", "no_R"))
def test_probe_states_keep_the_other_difference_blocks_exactly_zero(name):
    cfg = CHANNEL_MODELS[name]
    n = cfg.n_qubits
    a = np.arange(2 ** n)
    plus, ground = np.full((2, 2), 0.5), np.diag([1.0, 0.0])
    for x in range(n):
        probe = la.kron(*[plus if i == x else ground for i in range(n)])
        flip = 1 << (n - 1 - x)  # qubit x's bit of the system label
        states = sample_states(cfg, [probe], 1.0)[0]
        outside = ~np.isin(a[:, None] ^ a[None, :], (0, flip))
        assert np.all(states[:, outside] == 0.0)
        assert np.any(states[1:, a, a ^ flip] != 0.0)


def test_sample_states_memory_stays_below_one_channel_per_phase_row():
    cfg = ModelConfig.default()  # 50 phase rows per window
    probes = [la.kron(np.full((2, 2), 0.5), np.diag([1.0, 0.0]),
                      np.diag([1.0, 0.0]))] * 4
    sample_states(cfg, probes[:1], 0.5)  # the shared core is built here
    tracemalloc.start()
    try:
        sample_states(cfg, probes, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the d x d difference maps are built one phase row at a time
    assert peak < 64 * 64 * 16 * cfg.samples_per_collision


@pytest.mark.parametrize("kind", ENV_KINDS)
def test_fresh_ancilla_product_is_exactly_diagonal(kind):
    # the window channel keeps only the populations of the fresh ancillas
    for attach_R in (True, False):
        cfg = coarse(kind=kind, attach_R=attach_R, T_L=0.7, T_M=3.3,
                     T_R=25.0)
        env = env_product(cfg)
        assert np.count_nonzero(env - np.diag(np.diag(env))) == 0
        # the channel's populations are that diagonal, bit for bit
        assert np.array_equal(_populations([cfg])[0], np.diag(env).real)


def test_core_keeps_its_spectral_data_per_parity_sector():
    cfg = ModelConfig.default()
    core = Propagator([cfg], [0]).core

    def root(a):
        while a.base is not None:
            a = a.base
        return a

    arrays = [a for a in vars(core).values() if isinstance(a, np.ndarray)]
    buffers = {id(root(a)): root(a) for a in arrays}
    # stacked over the sectors: one row of each array per sector
    assert core.index.shape == core.w.shape == (8, 27)
    assert core.v.shape == (8, 27, 27)
    sizes = [len(index) for index in core.index]
    # per sector of size n: its indices, w and the real V, n x n
    assert sum(b.nbytes for b in buffers.values()) == \
        sum(2 * n * 8 + n * n * 8 for n in sizes) == 50112
    # the current generators are built by the Propagator that reads them,
    # one sector stack per terminal
    generators = _current_generators(core, cfg)
    assert [k.shape for k in generators] == [(8, 27, 27)] * 3
