"""Matrix primitives against independent oracles."""

import numpy as np
import pytest

from qtransistor import linalg as la

rng = np.random.default_rng(7)


def random_density(d, rank=None):
    rank = rank or d
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------- kron


def test_kron_identities():
    out = la.kron(np.eye(2), np.eye(3))
    assert np.array_equal(out, np.eye(6))


def test_kron_block_antidiagonal():
    out = la.kron(SX, np.eye(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 2:4] = np.eye(2)
    expected[2:4, 0:2] = np.eye(2)
    assert np.array_equal(out, expected)


def test_kron_matches_entrywise_formula():
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out = la.kron(a, b)
    # brute-force index oracle (tolerance: scalar vs vectorized rounding)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert abs(out[2 * i + k, 2 * j + l]
                               - a[i, j] * b[k, l]) < 1e-15


def test_kron_associative_and_bilinear():
    dims = (2, 3, 4)
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for d in dims]
    a, b, c = mats
    left = la.kron(la.kron(a, b), c)
    right = la.kron(a, la.kron(b, c))
    assert np.max(np.abs(left - right)) < 1e-12
    x = rng.normal(size=(3, 3))
    lin = la.kron(a, b + 2.0 * x)
    split = la.kron(a, b) + 2.0 * la.kron(a, x)
    assert np.max(np.abs(lin - split)) < 1e-12


def test_kron_variadic_matches_pairwise():
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(la.kron(a, b, c), np.kron(np.kron(a, b), c))


def test_kron_no_factors_rejected():
    with pytest.raises(ValueError):
        la.kron()


# ------------------------------------------------------- partial trace


def test_partial_trace_product_state():
    rho_a = random_density(2)
    rho_b = random_density(3)
    joint = la.kron(rho_a, rho_b)
    assert np.allclose(la.partial_trace(joint, [2, 3], [0]), rho_a)
    assert np.allclose(la.partial_trace(joint, [2, 3], [1]), rho_b)


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    red = la.partial_trace(rho, [2, 2], [0])
    assert np.allclose(red, np.eye(2) / 2)


def test_partial_trace_composition():
    # tracing out {2,3} then {1} == tracing out {1,2,3} directly
    rho = random_density(36)
    dims = [2, 2, 3, 3]
    step1 = la.partial_trace(rho, dims, [0, 1])
    step2 = la.partial_trace(step1, [2, 2], [0])
    direct = la.partial_trace(rho, dims, [0])
    assert np.max(np.abs(step2 - direct)) < 1e-12


def test_partial_trace_preserves_trace_and_positivity():
    for dims, keep in ([(2, 3), [1]], [(2, 2, 2), [0, 2]], [(3, 4), [0]]):
        rho = random_density(int(np.prod(dims)))
        red = la.partial_trace(rho, dims, keep)
        assert abs(np.trace(red) - 1.0) < 1e-12
        assert np.linalg.eigvalsh((red + red.conj().T) / 2)[0] >= -1e-9


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        la.partial_trace(np.eye(6), [2, 2], [0])
    with pytest.raises(ValueError):
        la.partial_trace(np.eye(4), [2, 2], [5])


def test_partial_trace_keep_order_is_tensor_order():
    rho_a, rho_b, rho_c = (random_density(2) for _ in range(3))
    joint = la.kron(rho_a, rho_b, rho_c)
    red = la.partial_trace(joint, [2, 2, 2], [0, 2])
    assert np.allclose(red, la.kron(rho_a, rho_c))


# --------------------------------------------------------- hermitian_eig


def test_eig_diagonal_case():
    spec = la.hermitian_eig(np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(spec.eigenvalues, [-1.0, 0.0, 1.0])
    # permutation eigenvectors up to phase
    assert np.allclose(np.abs(spec.eigenvectors),
                       np.eye(3)[:, [2, 1, 0]])


def test_eig_pauli_x():
    spec = la.hermitian_eig(SX)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])


def test_eig_reconstruction_and_orthonormality():
    h = random_hermitian(8)
    w, v = la.hermitian_eig(h)
    assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-10
    assert np.max(np.abs((v * w) @ v.conj().T - h)) < 1e-9
    assert np.all(np.diff(w) >= 0)


def test_eig_keeps_a_real_symmetric_stack_real():
    a = rng.normal(size=(3, 6, 6))
    h = (a + a.swapaxes(1, 2)) / 2.0
    w, v = la.hermitian_eig(h)
    assert w.dtype == v.dtype == np.float64
    assert np.max(np.abs(v @ (w[..., None] * v.swapaxes(1, 2)) - h)) < 1e-12
    w_complex, v_complex = la.hermitian_eig(h.astype(complex))
    assert v_complex.dtype == np.complex128
    assert np.max(np.abs(w - w_complex)) < 1e-12
    with pytest.raises(ValueError, match="not Hermitian"):
        la.hermitian_eig(h + np.triu(np.ones((6, 6)), 1) * 1e-6)


def test_the_other_functions_stay_complex_on_real_input():
    h = np.diag([-3.0, 0.0, 3.0])
    assert la.unitary_exp(h, 0.3).dtype == np.complex128
    assert la.thermal_state(h, 0.25).dtype == np.complex128
    assert la.kron(h, h).dtype == np.complex128


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        la.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ----------------------------------------------------------- unitary_exp


def test_unitary_exp_zero_time():
    assert np.allclose(la.unitary_exp(random_hermitian(5), 0.0), np.eye(5))


def test_unitary_exp_pauli_z_pi():
    assert np.max(np.abs(la.unitary_exp(SZ, np.pi) + np.eye(2))) < 1e-12


def test_unitary_exp_matches_taylor_series():
    h = random_hermitian(4)
    t = 0.37
    series = np.zeros((4, 4), dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(20):
        series += term
        term = term @ (-1j * t * h) / (k + 1)
    assert np.max(np.abs(la.unitary_exp(h, t) - series)) < 1e-8


def test_unitary_exp_group_property_and_unitarity():
    h = random_hermitian(6)
    u_s = la.unitary_exp(h, 0.4)
    u_t = la.unitary_exp(h, 1.1)
    u_st = la.unitary_exp(h, 1.5)
    assert np.max(np.abs(u_s @ u_t - u_st)) < 1e-9
    assert np.max(np.abs(u_s @ u_s.conj().T - np.eye(6))) < 1e-9


# ---------------------------------------------------------- thermal_state


def test_thermal_state_infinite_temperature():
    assert np.allclose(la.thermal_state(random_hermitian(4), 0.0),
                       np.eye(4) / 4)


def test_thermal_state_zero_temperature_limit():
    h = np.diag([-3.0, 0.0, 3.0])
    rho = la.thermal_state(h, 400.0)
    assert np.allclose(rho, np.diag([1.0, 0.0, 0.0]), atol=1e-12)


def test_thermal_state_boltzmann_weights():
    h = np.diag([-3.0, 0.0, 3.0])
    rho = la.thermal_state(h, 0.25)
    p = np.array([np.exp(0.75), 1.0, np.exp(-0.75)])
    assert np.allclose(np.diag(rho).real, p / p.sum())


def test_thermal_state_commutes_with_h():
    h = random_hermitian(5)
    rho = la.thermal_state(h, 0.7)
    assert np.max(np.abs(rho @ h - h @ rho)) < 1e-10
    assert la.is_density_matrix(rho)


def test_thermal_state_negative_beta_rejected():
    with pytest.raises(ValueError):
        la.thermal_state(SZ, -1.0)


# --------------------------------------------------------- trace_distance


def test_trace_distance_coincident():
    rho = random_density(3)
    assert la.trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert abs(la.trace_distance(zero, one) - 1.0) < 1e-12


def test_trace_distance_zero_vs_plus():
    zero = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert abs(la.trace_distance(zero, plus) - 1 / np.sqrt(2)) < 1e-12


def test_trace_distance_symmetric_triangle_unitary():
    a, b, c = (random_density(4) for _ in range(3))
    dab = la.trace_distance(a, b)
    assert abs(dab - la.trace_distance(b, a)) < 1e-12
    assert dab <= la.trace_distance(a, c) + la.trace_distance(c, b) + 1e-12
    u = la.unitary_exp(random_hermitian(4), 0.9)
    rotated = la.trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T)
    assert abs(rotated - dab) < 1e-10
    assert 0.0 <= dab <= 1.0


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        la.trace_distance(np.eye(2) / 2, np.eye(3) / 3)


def test_density_matrix_defects_flags_bad_states():
    assert la.is_density_matrix(random_density(4))
    assert not la.is_density_matrix(np.eye(2))          # trace 2
    assert not la.is_density_matrix(np.diag([1.5, -0.5]))  # negative weight
