"""Dense Hermitian linear algebra for small multipartite quantum systems.

Everything operates on plain complex ndarrays, with one exception:
``hermitian_eig`` keeps a real symmetric matrix, or stack of them, real,
so that LAPACK's real symmetric solver factorizes it and the
eigenvectors are real.  Every other function returns complex arrays
whatever its input's type.  Dimensions stay small
(<= 216 for the largest joint space), so dense eigendecompositions are
the workhorse: matrix exponentials, thermal states and trace distances
are all evaluated through the spectrum.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10


class HermitianSpectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack, eigenvalues ascending."""

    eigenvalues: np.ndarray  # real, shape (..., d)
    eigenvectors: np.ndarray  # columns are eigenvectors, shape (..., d, d)


def _as_square(a: np.ndarray, name: str = "matrix",
               stacked: bool = False, keep_real: bool = False) -> np.ndarray:
    """``a`` as complex, checked to be square; with ``stacked``, a stack
    of square matrices over any leading axes is accepted too, and with
    ``keep_real`` a real ``a`` is returned as float64."""
    a = np.asarray(a)
    square = a.ndim >= 2 and a.shape[-2] == a.shape[-1]
    if not square or (a.ndim > 2 and not stacked):
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    real = keep_real and np.isrealobj(a)
    return a.astype(np.float64 if real else np.complex128, copy=False)


def hermiticity_defect(a: np.ndarray) -> float:
    """Max absolute element of A - A^dagger, over every matrix of a
    stack."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)))) \
        if a.size else 0.0


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, left to right."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=np.complex128))
    return out


def partial_trace(rho: np.ndarray, dims: Sequence[int],
                  keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` gives the local dimension of each factor in tensor order;
    the reduced matrix keeps the surviving factors in their original
    order.
    """
    rho = _as_square(rho, "rho")
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ValueError(f"dims must be positive, got {dims}")
    total = int(np.prod(dims))
    if rho.shape[0] != total:
        raise ValueError(
            f"rho has dimension {rho.shape[0]} but dims {dims} "
            f"imply {total}")
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")

    reshaped = rho.reshape(dims + dims)
    # row index i, column index i+n; traced factors share one einsum label
    row = list(range(n))
    col = [i if i not in keep else i + n for i in range(n)]
    out = [k for k in keep] + [k + n for k in keep]
    reduced = np.einsum(reshaped, row + col, out)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return reduced.reshape(d_keep, d_keep)


def hermitian_eig(h: np.ndarray) -> HermitianSpectrum:
    """Spectrum of a Hermitian matrix, or of each matrix of a stack
    (shape (..., d, d)) in one ``eigh`` call.

    The input is checked against the hermiticity tolerance, once over the
    whole stack, and then symmetrized as (A + A^dagger)/2 before
    factorization, so tiny accumulated asymmetries cannot leak into the
    spectrum.  A real input stays real: it is factorized by LAPACK's real
    symmetric solver, and its eigenvectors are real.  Anything else is
    factorized as complex.
    """
    h = _as_square(h, "h", stacked=True, keep_real=True)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e}")
    sym = (h + h.conj().swapaxes(-1, -2)) / 2.0
    w, v = np.linalg.eigh(sym)
    return HermitianSpectrum(w, v)


def unitary_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via the eigendecomposition."""
    w, v = hermitian_eig(_as_square(h, "h"))
    phases = np.exp(-1j * w * t)
    return (v * phases) @ v.conj().T


def thermal_state(h: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta h) / Z.

    Eigenvalues are shifted by their minimum before exponentiation so
    large beta cannot overflow; beta = 0 gives the maximally mixed
    state and beta -> inf approaches the ground-space projector.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    w, v = hermitian_eig(_as_square(h, "h"))
    weights = np.exp(-beta * (w - w.min()))
    weights /= weights.sum()
    rho = (v * weights) @ v.conj().T
    return (rho + rho.conj().T) / 2.0


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance (1/2) || rho1 - rho2 ||_1 between density matrices."""
    rho1 = _as_square(rho1, "rho1")
    rho2 = _as_square(rho2, "rho2")
    if rho1.shape != rho2.shape:
        raise ValueError(
            f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    diff = rho1 - rho2
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def density_matrix_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(hermiticity defect, |trace - 1|, most negative eigenvalue)."""
    rho = _as_square(rho, "rho")
    herm = hermiticity_defect(rho)
    tr = abs(complex(np.trace(rho)) - 1.0)
    sym = (rho + rho.conj().T) / 2.0
    lo = float(np.linalg.eigvalsh(sym)[0])
    return herm, tr, min(lo, 0.0)


def is_density_matrix(rho: np.ndarray, herm_tol: float = 1e-10,
                      trace_tol: float = 1e-10,
                      eig_floor: float = -1e-10) -> bool:
    """Hermitian within herm_tol, unit trace, eigenvalues >= eig_floor."""
    herm, tr, lo = density_matrix_defects(rho)
    return herm <= herm_tol and tr <= trace_tol and lo >= eig_floor
