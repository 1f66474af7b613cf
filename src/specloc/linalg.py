"""Dense complex linear algebra substrate, and the only module that forms a tolerance.

With f = ``TolerancePolicy.zero_threshold_factor`` and no floor, a zero test
reads the spectrum it has just solved; residual tests compare two matrices
through their difference R, ``||R||_2 <= f * dim(R) * eps * max(scale, 1)``
(``residual_tol``).  One rule per question, with its callers:

* Hermitian zero test, :func:`hermitian_spectrum`, whose ``Spectrum``
  carries the eigenvalues, the inertia and the signature: the merged spectrum
  of size N of one matrix or a direct sum of blocks, ``|lambda| <= f * N * eps
  * max|lambda|``; ``index``, ``winding_demo``, CLI ``localizer``.
* Doubled zero test, :func:`doubled_spectrum`: ``spec [[0, x], [x*, 0]] =
  +-sigma_i(x)`` from one singular-value solve of x, ``sigma <= f * 2n * eps *
  sigma_max``; gap certificates and ``contract_invertible`` (through
  ``OperatorElement.doubled``, which solves it once per policy), and
  :func:`is_singular` (``n_zero > 0``) for :func:`verify_similarity`.
* Adjointness, ``M == M*`` else ``||M - M*||_2 <= tau``: inside the two
  spectra above, against the tau of the spectrum just solved; in
  :func:`is_self_adjoint`, against ``policy.tau(M) = f * dim * eps * ||M||_2``,
  which takes up to two SVDs, ``||M - M*||_2`` and ``||M||_2`` (element and
  triple constructors, ``reduce_periodic``).
* :func:`residual_ok`, exact-first: the localizer's even grading test,
  ``equal_certified``, ``reduce_periodic`` and :func:`verify_similarity`.
  ``valid_region``, ``gap_bound_check`` and CLI ``clifford-verify`` compare a
  number, not a matrix, with ``residual_tol``.
* Step bounds, :func:`operator_norm_bound`: an upper bound of ``||M||_2``
  checked against a limit, ``sqrt(||M||_1 ||M||_inf)`` before any SVD;
  ``verify_path``'s per-segment guard, ``||D0||`` in ``valid_region`` and
  default-region ``index``'s spoke guard.

Real arithmetic starts at assembly.  The solves, norms and block forms
here keep a real (float64) input real (``as_matrix`` alone makes every
matrix complex, for the element and triple constructors), and the localizer assembles its blocks in the field
of (x, D0): float64 when their imaginary parts are exactly zero
(``_common_field``), so a real problem reaches LAPACK as float64 without a
complex copy.  A complex128 matrix whose imaginary part is exactly zero is
still solved in real arithmetic (``_real_if_exact``, at the four solves).
The zero rules do not change, since LAPACK's real and complex solvers are
both backward stable within the same tau.

The paper's two block forms are built only here: the doubling ``[[s, a],
[a*, s]]`` by :func:`doubled_matrix` and the graded sum ``a (+) (-b)`` by
:func:`direct_sum`, which also amplifies (``I_n (x) a``).  Each returns
float64 when every input's dtype is real and complex128 otherwise.

Every array an object keeps is frozen by ``_read_only``, a private copy
that numpy refuses to make writable: an element's matrix and its memoized
spectrum, a spectral triple's Dirac block, and the generators and grading
of a Clifford representation.  Elements, certificates, triples, Clifford
representations and localizer reports compare and hash by value through
``_ArrayValue``.
"""

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotSquareError,
    NotSelfAdjointError,
    SingularConjugatorError,
)

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative zero threshold: tau(M) = zero_threshold_factor * dim * eps * ||M||_2."""

    zero_threshold_factor: float = 16.0

    def __post_init__(self):
        if not 0 < self.zero_threshold_factor < math.inf:
            raise ValueError("zero_threshold_factor must be finite and positive")

    def tau(self, matrix: np.ndarray) -> float:
        dim = max(matrix.shape) if matrix.size else 1
        return self.scaled_tol(dim, operator_norm(matrix))

    def scaled_tol(self, dim: int, scale: float) -> float:
        """Threshold for a computation of size ``dim`` at magnitude ``scale``."""
        return self.zero_threshold_factor * dim * _EPS * max(scale, 0.0)

    def residual_tol(self, dim: int, scale: float) -> float:
        """Residual threshold: ``scaled_tol`` with the absolute floor ``max(scale, 1)``."""
        return self.scaled_tol(dim, max(scale, 1.0))


DEFAULT_POLICY = TolerancePolicy()


class Inertia(NamedTuple):
    n_plus: int
    n_zero: int
    n_minus: int


def _checked(m: np.ndarray) -> np.ndarray:
    """m itself, once it is 2-d and free of NaN/Inf entries."""
    if m.ndim != 2:
        raise NotSquareError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return m


def as_matrix(matrix) -> np.ndarray:
    """Coerce to a complex 2-d array, rejecting NaN/Inf entries."""
    return _checked(np.asarray(matrix, dtype=np.complex128))


def _in_field(matrix) -> np.ndarray:
    """``np.asarray(matrix)`` as float64 when its dtype is real, else as complex128.

    No copy is made of a float64 or complex128 array.
    """
    m = np.asarray(matrix)
    return m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)


def _as_field_matrix(matrix) -> np.ndarray:
    """``as_matrix`` that keeps a real dtype real (:func:`_in_field`)."""
    return _checked(_in_field(matrix))


def _adjoint(m: np.ndarray) -> np.ndarray:
    """``m*``: the transpose, a view, of a real m; the conjugate transpose otherwise."""
    return m.conj().T if np.iscomplexobj(m) else m.T


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """``m.real`` when the imaginary part of m is exactly zero, else m unchanged.

    A nonzero imaginary entry in the first column decides "complex" without
    scanning the rest, so a complex input pays only that column.
    """
    if not np.iscomplexobj(m) or m[..., :1].imag.any() or m.imag.any():
        return m
    return m.real


def _common_field(*matrices) -> tuple:
    """The matrices in the smallest field that holds them all exactly.

    Contiguous float64 copies of their real parts when every imaginary part
    is exactly zero (:func:`_real_if_exact`), else the matrices unchanged.
    """
    real = [_real_if_exact(m) for m in matrices]
    if any(np.iscomplexobj(m) for m in real):
        return matrices
    return tuple(np.ascontiguousarray(m, dtype=np.float64) for m in real)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A private copy of a that cannot be made writable: a view of a read-only base."""
    base = a.copy()
    base.setflags(write=False)
    return base.view()


def _same_value(a, b) -> bool:
    """``np.array_equal`` for arrays, element by element for tuples, else ``==``."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_value, a, b))
    return a == b


def _hash_key(v):
    """What ``_ArrayValue`` hashes of a field: an array's shape, a tuple's keys, else v."""
    if isinstance(v, np.ndarray):
        return v.shape
    if isinstance(v, tuple):
        return tuple(map(_hash_key, v))
    return v


class _ArrayValue:
    """Value equality for a frozen dataclass with array fields, declared ``eq=False``.

    ``==`` compares array fields with ``np.array_equal``, tuple fields (of
    arrays, say) element by element, and every other field with ``==``.
    The hash reads only the shapes of the arrays and the other values, so
    equal arrays whose bits differ (``-0.0`` and ``0.0``) cannot hash apart.
    A memo kept outside the fields takes no part.
    """

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same_value(self._values(), other._values())

    def __hash__(self):
        return hash((self.__class__,) + _hash_key(self._values()))


class Spectrum(NamedTuple):
    """Ascending eigenvalues, the zero threshold tau read from them, and the inertia."""

    eigenvalues: np.ndarray
    tau: float
    inertia: Inertia

    @property
    def signature(self) -> int:
        return self.inertia.n_plus - self.inertia.n_minus


def is_self_adjoint(matrix, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """``M == M*`` exactly (no solve), or ``||M - M*||_2 <= policy.tau(M)`` (up to two SVDs)."""
    m = _as_field_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        return False
    return np.array_equal(m, _adjoint(m)) or operator_norm(m - _adjoint(m)) <= policy.tau(m)


def _require_adjoint(blocks, tau: float) -> None:
    """Raise ``NotSelfAdjointError`` when some square block has ``||B - B*||_2 > tau``.

    Exact first: no norm is taken of a block with ``B == B*``.
    """
    for b in blocks:
        if not np.array_equal(b, _adjoint(b)) and operator_norm(b - _adjoint(b)) > tau:
            raise NotSelfAdjointError(f"asymmetry exceeds tolerance {tau:.3e}")


def _read_spectrum(eigs: np.ndarray, policy: TolerancePolicy) -> Spectrum:
    """tau and the inertia of ascending Hermitian eigenvalues ``eigs`` (``||M||_2 = max|eig|``)."""
    tau = policy.scaled_tol(len(eigs), float(np.abs(eigs).max(initial=0.0)))
    n_plus = int(np.count_nonzero(eigs > tau))
    n_minus = int(np.count_nonzero(eigs < -tau))
    return Spectrum(eigs, tau, Inertia(n_plus, len(eigs) - n_plus - n_minus, n_minus))


def hermitian_spectrum(*blocks, policy: TolerancePolicy = DEFAULT_POLICY) -> Spectrum:
    """Spectrum of the direct sum of (numerically) self-adjoint ``blocks``, with its inertia.

    One matrix is the one-block case.  Each distinct block (by identity)
    is solved once, as it is when ``B == B*`` exactly and symmetrized
    otherwise, and the eigenvalues are merged in ascending order.  The zero
    test reads the merged spectrum of size N:
    ``|lambda| <= tau = f * N * eps * max|lambda|``.  Only then is each
    inexact block's asymmetry tested against that tau: up to it, the
    asymmetry is symmetrized away silently; beyond it,
    ``NotSelfAdjointError`` is raised.
    """
    if not blocks:
        raise TypeError("hermitian_spectrum needs at least one block")
    mats = [_as_field_matrix(b) for b in blocks]
    for m in mats:
        if m.shape[0] != m.shape[1]:
            raise NotSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}")
    distinct = {id(m): m for m in mats}
    # every localizer block is exactly Hermitian; (B + B*) / 2 would equal it bit for bit
    inexact = {key: m for key, m in distinct.items() if not np.array_equal(m, _adjoint(m))}
    solved = {
        key: np.linalg.eigvalsh(_real_if_exact((m + _adjoint(m)) / 2.0 if key in inexact else m))
        for key, m in distinct.items()
    }
    parts = [solved[id(m)] for m in mats]
    eigs = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
    spectrum = _read_spectrum(eigs, policy)
    _require_adjoint(inexact.values(), spectrum.tau)
    return spectrum


def doubled_spectrum(
    matrix, self_adjoint: bool = False, policy: TolerancePolicy = DEFAULT_POLICY
) -> Spectrum:
    """Spectrum of the doubled matrix ``[[0, x], [x*, 0]]``, which is ``+-sigma_i(x)``.

    One singular-value solve of the square x gives the ascending
    eigenvalues ``(-sigma, sigma reversed)``; tau and the inertia are the
    doubled matrix's: ``sigma <= tau = f * 2n * eps * sigma_max``.  With
    ``self_adjoint`` the adjoint test of x runs against that tau (exact
    first, then one SVD of ``x - x*``) and raises ``NotSelfAdjointError``.
    """
    m = _as_field_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}")
    sv = np.linalg.svd(_real_if_exact(m), compute_uv=False)
    spectrum = _read_spectrum(np.concatenate([-sv, sv[::-1]]), policy)
    if self_adjoint:
        _require_adjoint((m,), spectrum.tau)
    return spectrum


def operator_norm(matrix) -> float:
    """Largest singular value; 0.0 for an empty or all-zero matrix without an SVD."""
    m = _in_field(matrix)
    if m.size == 0:
        return 0.0
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    if not np.any(m):
        return 0.0
    return float(np.linalg.norm(_real_if_exact(m), 2))


def operator_norm_bound(matrix, limit: float) -> float:
    """An upper bound of ``||M||_2`` that decides ``< limit`` with an SVD only when it must.

    The bound is ``sqrt(||M||_1 ||M||_inf) * (1 + 2n eps)``, which is at
    least ``||M||_2`` (Hoelder); the factor covers the rounding of the
    moduli, the row and column sums, the roots and the product.  It is 0.0
    exactly for an all-zero M.  Only when it is not below ``limit`` is
    ``operator_norm(M)`` returned instead: the SVD, or the ``NonFiniteError``
    of a NaN or Inf entry.
    """
    moduli = np.abs(_in_field(matrix))
    one = float(moduli.sum(axis=0).max(initial=0.0))
    inf = float(moduli.sum(axis=1).max(initial=0.0))
    # two roots, so that the product of two tiny norms cannot underflow to 0
    bound = math.sqrt(one) * math.sqrt(inf) * (1.0 + 2 * max(moduli.shape) * _EPS)
    return bound if bound < limit else operator_norm(matrix)


def min_singular_value(matrix) -> float:
    """Smallest singular value."""
    m = _as_field_matrix(matrix)
    return float(np.linalg.svd(_real_if_exact(m), compute_uv=False)[-1])


def is_singular(matrix, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """The doubled matrix's zero test, ``sigma_min <= f * 2n * eps * sigma_max``, from one SVD.

    The rule of ``delta_singular_check(x, 0)``: M is singular exactly when
    ``[[0, M], [M*, 0]]`` is.
    """
    return doubled_spectrum(matrix, policy=policy).inertia.n_zero > 0


def residual_ok(residual, *refs, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """``||R||_2 <= residual_tol(dim(R), max ||A||_2 over refs)``.

    Exact first: an all-zero R passes without taking any norm.
    """
    r = _as_field_matrix(residual)
    if not np.any(r):
        return True
    scale = max((operator_norm(a) for a in refs), default=0.0)
    return operator_norm(r) <= policy.residual_tol(max(r.shape), scale)


def doubled_matrix(a, s: float = 0.0) -> np.ndarray:
    """The doubling ``[[s*I, a], [a*, s*I]]`` of a square a; its spectrum is ``s + Sigma_a``.

    float64 when a's dtype is real, complex128 otherwise.
    """
    a = _as_field_matrix(a)
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=a.dtype)
    out[:n, n:] = a
    out[n:, :n] = _adjoint(a)
    if s:
        np.fill_diagonal(out, s)
    return out


def direct_sum(a, *rest) -> np.ndarray:
    """``a (+) b (+) ...``; the graded sum of the paper is ``direct_sum(a, -b)``.

    float64 when every block's dtype is real, complex128 otherwise.
    ``direct_sum(*[a] * n)`` is the amplification ``I_n (x) a``.
    """
    blocks = [_as_field_matrix(b) for b in (a, *rest)]
    rows, cols = (sum(b.shape[i] for b in blocks) for i in (0, 1))
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def verify_similarity(a, b, p, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff ``p a p^{-1}`` equals ``b`` within the scaled tolerance."""
    a = as_matrix(a)
    b = as_matrix(b)
    p = as_matrix(p)
    if a.shape != b.shape or p.shape != a.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"incompatible shapes {a.shape}, {b.shape}, {p.shape}"
        )
    if is_singular(p, policy):
        raise SingularConjugatorError("conjugator is singular at tolerance")
    return residual_ok(p @ a @ np.linalg.inv(p) - b, a, b, policy=policy)
