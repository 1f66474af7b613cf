"""Dense complex linear algebra substrate.

All spectra flow through :func:`hermitian_spectrum` (with
:func:`eig_hermitian` and :func:`inertia_signature` as views of it).
Eigenvalue zero tests use ``tau = factor * n * eps * max|eig|`` read
from that spectrum, since ``||M||_2 = max|eig|`` for Hermitian M.
Residuals of matrix identities use ``scaled_tol(dim, max(norm, 1))``:
they compare two matrices and need the absolute floor at small norms.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotSquareError,
    NotSelfAdjointError,
    SingularAtToleranceError,
    SingularConjugatorError,
)

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative zero threshold: tau(M) = zero_threshold_factor * dim * eps * ||M||_2."""

    zero_threshold_factor: float = 16.0

    def __post_init__(self):
        if not self.zero_threshold_factor > 0:
            raise ValueError("zero_threshold_factor must be positive")

    def tau(self, matrix: np.ndarray) -> float:
        dim = max(matrix.shape) if matrix.size else 1
        return self.scaled_tol(dim, operator_norm(matrix))

    def scaled_tol(self, dim: int, scale: float) -> float:
        """Threshold for a computation of size ``dim`` at magnitude ``scale``."""
        return self.zero_threshold_factor * dim * _EPS * max(scale, 0.0)


DEFAULT_POLICY = TolerancePolicy()


class Inertia(NamedTuple):
    n_plus: int
    n_zero: int
    n_minus: int


def as_matrix(matrix, require_finite: bool = True) -> np.ndarray:
    """Coerce to a complex 2-d array, rejecting NaN/Inf entries."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2:
        raise NotSquareError(f"expected a 2-d array, got shape {m.shape}")
    if require_finite and not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return m


class Spectrum(NamedTuple):
    """Ascending eigenvalues, the zero threshold tau read from them, and the inertia."""

    eigenvalues: np.ndarray
    tau: float
    inertia: Inertia

    @property
    def signature(self) -> int:
        return self.inertia.n_plus - self.inertia.n_minus


def is_self_adjoint(matrix, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """``M == M*`` exactly, or ``||M - M*||_2 <= tau(M)``."""
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        return False
    adjoint = m.conj().T
    return bool(np.array_equal(m, adjoint)) or operator_norm(m - adjoint) <= policy.tau(m)


def hermitian_spectrum(matrix, policy: TolerancePolicy = DEFAULT_POLICY) -> Spectrum:
    """One eigensolve of a (numerically) self-adjoint matrix, with its inertia.

    Asymmetry up to tau(M) is symmetrized away silently; beyond that it
    raises ``NotSelfAdjointError``.
    """
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}")
    if not is_self_adjoint(m, policy):
        raise NotSelfAdjointError(f"asymmetry exceeds tolerance {policy.tau(m):.3e}")
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    tau = policy.scaled_tol(len(eigs), float(np.abs(eigs).max(initial=0.0)))
    n_plus = int(np.count_nonzero(eigs > tau))
    n_minus = int(np.count_nonzero(eigs < -tau))
    return Spectrum(eigs, tau, Inertia(n_plus, len(eigs) - n_plus - n_minus, n_minus))


def eig_hermitian(matrix, policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Ascending real eigenvalues of a (numerically) self-adjoint matrix."""
    return hermitian_spectrum(matrix, policy).eigenvalues


def inertia_signature(
    matrix,
    policy: TolerancePolicy = DEFAULT_POLICY,
    require_invertible: bool = False,
) -> tuple[Inertia, int]:
    """Counts of eigenvalues above/at/below the zero threshold, and their signature."""
    spectrum = hermitian_spectrum(matrix, policy)
    n_zero = spectrum.inertia.n_zero
    if require_invertible and n_zero > 0:
        raise SingularAtToleranceError(
            f"{n_zero} eigenvalue(s) within tolerance {spectrum.tau:.3e} of zero"
        )
    return spectrum.inertia, spectrum.signature


def operator_norm(matrix) -> float:
    """Largest singular value."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return float(np.linalg.norm(m, 2))


def min_singular_value(matrix) -> float:
    """Smallest singular value."""
    m = as_matrix(matrix)
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def direct_sum(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.complex128)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def kron(a, b) -> np.ndarray:
    return np.kron(as_matrix(a), as_matrix(b))


def verify_similarity(a, b, p, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff ``p a p^{-1}`` equals ``b`` within the scaled tolerance."""
    a = as_matrix(a)
    b = as_matrix(b)
    p = as_matrix(p)
    if a.shape != b.shape or p.shape != a.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"incompatible shapes {a.shape}, {b.shape}, {p.shape}"
        )
    if min_singular_value(p) <= policy.tau(p):
        raise SingularConjugatorError("conjugator is singular at tolerance")
    resid = operator_norm(p @ a @ np.linalg.inv(p) - b)
    scale = max(operator_norm(a), operator_norm(b), 1.0)
    return resid <= policy.scaled_tol(a.shape[0], scale)
