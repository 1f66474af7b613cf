"""Dense linear algebra substrate: the only module that forms a tolerance or picks a field.

With f = ``TolerancePolicy.zero_threshold_factor`` and no floor, a zero test
reads the spectrum it has just solved; residual tests compare two matrices
through their difference R, ``||R||_2 <= f * dim(R) * eps * max(scale, 1)``
(``residual_tol``).  One rule per question, with its callers:

* Hermitian zero test, :func:`hermitian_spectrum`, whose ``Spectrum``
  carries the eigenvalues, the inertia and the signature: the merged spectrum
  of size N of one matrix or a direct sum of blocks, ``|lambda| <= f * N * eps
  * max|lambda|``; ``index``, ``winding_demo``, CLI ``localizer``.  Each
  block is solved whole by one dense ``eigvalsh``: the oracle that the odd
  localizer's split by x's components (``localizer._odd_half_eigenvalues``)
  answers to, within tau and with the same inertia.
* Doubled zero test, :func:`doubled_spectrum`: ``spec [[0, x], [x*, 0]] =
  +-sigma_i(x)`` from the n singular values of x, ``sigma <= f * 2n * eps *
  sigma_max`` read from all 2n; gap certificates and ``contract_invertible``
  (through ``OperatorElement.doubled``, which solves it once per policy),
  and :func:`is_singular` (``n_zero > 0``) for :func:`verify_similarity`.
* Singular values, :func:`_singular_values`, behind ``doubled_spectrum``,
  :func:`operator_norm` and :func:`min_singular_value`: the rows and
  columns of the nonzero pattern are read as one bipartite graph, and the
  components of each (rows, cols) shape share one stacked ``svd``, an exact
  permutation equivalence whose merged solves are backward stable for the
  whole.  The exact zeros that rectangular and empty components imply make
  up the count, so the zero rule reads all 2n values at the full size.  An
  even element splits into x_+ and x_-, and its grading-odd [D, x] into the
  two blocks off the grading's diagonal.

One decomposition ladder, :func:`_components`, finds the bipartite
components for ``_singular_values`` and for the localizer's odd halves with
a real diagonal Dirac block (the components of y = x +- s*I, which the
localizer forms first, so that an x_ii +- s that cancels is an exact zero
of y).  Cheapest first: no zero in the first row and
column decides "connected" in O(n), before the pattern is formed, and such
a matrix is solved whole, bit for bit; a pattern with at most one entry per
row and column (the circle truncation, a partial isometry) is its entries,
1 x 1 components read by :func:`_monomial` without labelling, the reader
that the Clifford relations' phase permutations share; then the check from
the first row, :func:`_first_row_spans`; then the labelling.
* Adjointness, ``M == M*`` else ``||M - M*||_2 <= tau``: inside the two
  spectra above, and in ``valid_region``'s premise on an unflagged singular
  x, against the tau of the spectrum just solved (x's certificate); in
  :func:`is_self_adjoint`, against ``policy.tau(M) = f * dim * eps * ||M||_2``,
  which takes up to two norms, ``||M - M*||_2`` and ``||M||_2`` (element and
  triple constructors, ``reduce_periodic``).
* :func:`residual_ok`, exact-first: the localizer's even grading test,
  ``equal_certified``, ``reduce_periodic`` and :func:`verify_similarity`.
  ``valid_region`` and CLI ``clifford-verify`` compare a number, not a
  matrix, with ``residual_tol``.
* Step bounds, :func:`operator_norm_bound`: an upper bound of ``||M||_2``
  checked against a limit, ``sqrt(||M||_1 ||M||_inf)`` before any SVD;
  ``verify_path``'s per-segment guard, and ``||D0||`` in the rounding bound
  shared by ``valid_region``'s ``unbounded`` and ``index``'s margin.

A matrix's field is decided once, where it enters, by :func:`as_matrix`:
float64 when its dtype is real or its imaginary part is exactly zero,
complex128 otherwise.  Elements, spectral triples and Clifford
representations hold what it returns, and every solve, norm and block form
here reads its input through it, so a real problem reaches LAPACK's real
drivers without a complex copy.  The zero rules do not change, since
LAPACK's real and complex solvers are both backward stable within the same
tau.  An element's matrix is float64 for real input: code that writes
complex entries into a copy of it must upcast the copy first.

Outside the localizer's halves (``localizer._half`` writes each in place,
and the odd split writes its components' blocks),
the paper's two block forms are built only here: the doubling ``[[s, a],
[a*, s]]`` by :func:`doubled_matrix` and the graded sum ``a (+) (-b)`` by
:func:`direct_sum`, which also amplifies (``I_n (x) a``); float64 when every
input is real by :func:`as_matrix`, complex128 otherwise.

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
    """A 2-d array in the smallest field that holds it exactly, rejecting NaN/Inf entries.

    float64 when the dtype is real or the imaginary part is exactly zero
    (the real part, a view), complex128 otherwise.  A nonzero imaginary
    entry in the first column decides "complex" without scanning the rest.
    No copy is made of a float64 or complex128 array.
    """
    m = np.asarray(matrix)
    if not np.iscomplexobj(m):
        return _checked(m.astype(np.float64, copy=False))
    m = _checked(m.astype(np.complex128, copy=False))
    return m if m[:, :1].imag.any() or m.imag.any() else m.real


def _adjoint(m: np.ndarray) -> np.ndarray:
    """``m*``: the transpose, a view, of a real m; the conjugate transpose otherwise."""
    return m.conj().T if np.iscomplexobj(m) else m.T


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
    """``M == M*`` exactly (no solve), or ``||M - M*||_2 <= policy.tau(M)`` (up to two norms)."""
    m = as_matrix(matrix)
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
    is scanned and solved once, whole, by one dense ``eigvalsh``: as it is
    when ``B == B*`` exactly, symmetrized otherwise.  The eigenvalues are
    merged in ascending order, and the zero test reads the merged spectrum
    of size N:
    ``|lambda| <= tau = f * N * eps * max|lambda|``.  Only then is each
    inexact block's asymmetry tested, on the whole block, against that tau:
    up to it, the asymmetry is symmetrized away silently; beyond it,
    ``NotSelfAdjointError`` is raised.
    """
    if not blocks:
        raise TypeError("hermitian_spectrum needs at least one block")
    unique = {id(b): b for b in blocks}  # the localizer passes R twice at s = 0: one scan
    distinct = {key: as_matrix(b) for key, b in unique.items()}
    for m in distinct.values():
        if m.shape[0] != m.shape[1]:
            raise NotSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}")
    # every localizer block is exactly Hermitian; (B + B*) / 2 would equal it bit for bit
    inexact = {key: m for key, m in distinct.items() if not np.array_equal(m, _adjoint(m))}
    solved = {
        key: np.linalg.eigvalsh(as_matrix((m + _adjoint(m)) / 2.0) if key in inexact else m)
        for key, m in distinct.items()
    }
    parts = [solved[id(b)] for b in blocks]
    eigs = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
    spectrum = _read_spectrum(eigs, policy)
    _require_adjoint(inexact.values(), spectrum.tau)
    return spectrum


def _first_row_spans(pattern: np.ndarray) -> bool:
    """Whether a boolean pattern is connected as a bipartite graph, by a check from its first row.

    Row i and column j are joined when ``pattern[i, j]``.  The columns of
    row 0, and the rows of the first of those columns (row 0 among them),
    lie in row 0's component; so does every row with an entry in one of
    those columns and every column with an entry in one of those rows.  Two
    boolean products decide it, so a commutator with a diagonal Dirac block,
    whose zeros lie where the row and the column agree modulo the block
    size, needs no labelling.  False is no proof of a split:
    :func:`_component_labels` decides.
    """
    cols = pattern[0]
    rows = pattern[:, cols.argmax()]  # without row 0 when row 0 is empty: False below
    return bool(np.all(pattern @ cols) and np.all(rows @ pattern))


def _component_labels(pattern: np.ndarray) -> np.ndarray:
    """Each row's and column's component in the bipartite graph of a boolean pattern.

    Rows are the vertices 0..r-1 and columns r..r+c-1; row i and column j
    are joined when ``pattern[i, j]``.  A component is labelled by its
    smallest vertex, a row whenever it has one.  Min-label propagation with
    pointer jumping: each round gives every column the smallest label among
    itself and its rows, then every row the smallest among itself and its
    columns, then each vertex the label of its label; the rounds stop when
    nothing changes.
    """
    r, c = pattern.shape
    labels = np.arange(r + c)
    rows, cols = np.divmod(np.flatnonzero(pattern), c)
    cols += r
    while True:
        new = labels.copy()
        np.minimum.at(new, cols, new[rows])
        np.minimum.at(new, rows, new[cols])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _components_by_shape(labels: np.ndarray, r: int):
    """``(rows, cols)`` index arrays of shapes (K, a) and (K, b) per component shape (a, b).

    ``labels`` are :func:`_component_labels` of an r-row pattern.  Row k of
    ``rows`` and of ``cols`` hold the rows and the columns, each ascending,
    of the k-th of the K components with a rows and b columns.  Components
    without a row or without a column (an empty line) are left out.  Shapes
    come in ascending order of (a, b).
    """
    n = len(labels)
    a = np.bincount(labels[:r], minlength=n)  # rows per component
    b = np.bincount(labels[r:], minlength=n)  # columns per component
    shape = a * (n + 1) + b
    both = (a > 0) & (b > 0)
    # the lines of components with both, by shape, then component, then index
    order = np.argsort((shape * n + np.arange(n))[labels], kind="stable")
    order = order[both[labels[order]]]
    rows, cols = order[order < r], order[order >= r] - r
    i = j = 0
    for code, k in zip(*np.unique(shape[both], return_counts=True)):
        ra, cb = divmod(int(code), n + 1)
        yield rows[i : i + k * ra].reshape(k, ra), cols[j : j + k * cb].reshape(k, cb)
        i, j = i + k * ra, j + k * cb


def _monomial(pattern: np.ndarray):
    """``(rows, cols)`` of a boolean pattern's entries, rows ascending, or None.

    None unless no row and no column holds two entries: a monomial pattern,
    with empty lines allowed (the circle truncation, a partial isometry, a
    phase permutation).  Each entry is then a component of its own.
    """
    entries = np.count_nonzero(pattern)
    if entries == np.count_nonzero(pattern.any(axis=0)) == np.count_nonzero(pattern.any(axis=1)):
        return np.divmod(np.flatnonzero(pattern), pattern.shape[1])  # np.nonzero, without its slow 2-d path
    return None


def _components(m: np.ndarray):
    """The bipartite components of m's nonzero pattern by shape, or None when it is connected.

    The components are ``(rows, cols)`` index arrays as
    :func:`_components_by_shape` yields them, each line of a component
    ascending; lines without an entry belong to none.  The ladder, cheapest
    first:

    1. no zero in the first row and column: connected, decided in O(n)
       before the pattern is formed;
    2. no line with two entries (:func:`_monomial`): every entry is a 1 x 1
       component, read by index with no labelling, in one (K, 1) pair;
    3. :func:`_first_row_spans`: connected;
    4. :func:`_component_labels`, grouped by :func:`_components_by_shape`.
    """
    if m[0].all() and m[1:, 0].all():
        return None
    pattern = m != 0
    entries = _monomial(pattern)
    if entries is not None:
        rows, cols = entries
        return [(rows[:, None], cols[:, None])]
    if _first_row_spans(pattern):
        return None
    labels = _component_labels(pattern)
    if not labels.any():  # connected, beyond the probe's reach
        return None
    return list(_components_by_shape(labels, m.shape[0]))


def _singular_values(m: np.ndarray) -> np.ndarray:
    """The min(r, c) singular values of m, descending, solved by the components of its pattern.

    Permuting the rows and the columns of m into a direct sum of its
    rectangular components (:func:`_components`) keeps its singular values.
    The components of each (rows, cols) shape are gathered by one fancy
    index and solved by one stacked ``svd``; each solve is backward stable,
    so the merged values are exact for m + E with ``||E|| = max_c ||E_c||``.
    A component of a rows and b columns gives min(a, b) values, an empty row
    or column none; the exact zeros that make up the count are filled in.
    A connected m reaches ``svd`` whole.
    """
    r, c = m.shape
    parts = None if min(r, c) <= 1 else _components(m)
    if parts is None:
        return np.linalg.svd(m, compute_uv=False)
    sv = np.concatenate([
        np.linalg.svd(m[rows[:, :, None], cols[:, None, :]], compute_uv=False).ravel()
        for rows, cols in parts
    ])
    return np.concatenate([np.sort(sv)[::-1], np.zeros(min(r, c) - len(sv))])


def doubled_spectrum(
    matrix, self_adjoint: bool = False, policy: TolerancePolicy = DEFAULT_POLICY
) -> Spectrum:
    """Spectrum of the doubled matrix ``[[0, x], [x*, 0]]``, which is ``+-sigma_i(x)``.

    The singular values of the square x (:func:`_singular_values`, by the
    components of x's pattern) give the ascending eigenvalues ``(-sigma,
    sigma reversed)``; tau and the inertia are the doubled matrix's, read
    from all 2n of them: ``sigma <= tau = f * 2n * eps * sigma_max``.  With
    ``self_adjoint`` the adjoint test of x runs against that tau (exact
    first, then the norm of ``x - x*``) and raises ``NotSelfAdjointError``.
    """
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}")
    sv = _singular_values(m)
    spectrum = _read_spectrum(np.concatenate([-sv, sv[::-1]]), policy)
    if self_adjoint:
        _require_adjoint((m,), spectrum.tau)
    return spectrum


def operator_norm(matrix) -> float:
    """Largest singular value; 0.0 for an empty or all-zero matrix without an SVD."""
    m = as_matrix(matrix)
    if not np.any(m):
        return 0.0
    return float(_singular_values(m)[0])


def operator_norm_bound(matrix, limit: float) -> float:
    """An upper bound of ``||M||_2`` that decides ``< limit`` with an SVD only when it must.

    The bound is ``sqrt(||M||_1 ||M||_inf) * (1 + 2n eps)``, which is at
    least ``||M||_2`` (Hoelder); the factor covers the rounding of the
    moduli, the row and column sums, the roots and the product.  It is 0.0
    exactly for an all-zero M.  Only when it is not below ``limit`` is
    ``operator_norm(M)`` returned instead: the SVD, or the ``NonFiniteError``
    of a NaN or Inf entry.
    """
    m = as_matrix(matrix)
    moduli = np.abs(m)
    one = float(moduli.sum(axis=0).max(initial=0.0))
    inf = float(moduli.sum(axis=1).max(initial=0.0))
    # two roots, so that the product of two tiny norms cannot underflow to 0
    bound = math.sqrt(one) * math.sqrt(inf) * (1.0 + 2 * max(moduli.shape) * _EPS)
    return bound if bound < limit else operator_norm(m)


def min_singular_value(matrix) -> float:
    """Smallest singular value."""
    return float(_singular_values(as_matrix(matrix))[-1])


def is_singular(matrix, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """The doubled matrix's zero test, ``sigma_min <= f * 2n * eps * sigma_max``.

    The rule of ``delta_singular_check(x, 0)``: M is singular exactly when
    ``[[0, M], [M*, 0]]`` is.
    """
    return doubled_spectrum(matrix, policy=policy).inertia.n_zero > 0


def residual_ok(residual, *refs, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """``||R||_2 <= residual_tol(dim(R), max ||A||_2 over refs)``.

    Exact first: an all-zero R passes without taking any norm.
    """
    r = as_matrix(residual)
    if not np.any(r):
        return True
    scale = max((operator_norm(a) for a in refs), default=0.0)
    return operator_norm(r) <= policy.residual_tol(max(r.shape), scale)


def doubled_matrix(a, s: float = 0.0) -> np.ndarray:
    """The doubling ``[[s*I, a], [a*, s*I]]`` of a square a; its spectrum is ``s + Sigma_a``.

    In a's field, as :func:`as_matrix` decides it.
    """
    a = as_matrix(a)
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=a.dtype)
    out[:n, n:] = a
    out[n:, :n] = _adjoint(a)
    if s:
        np.fill_diagonal(out, s)
    return out


def direct_sum(a, *rest) -> np.ndarray:
    """``a (+) b (+) ...``; the graded sum of the paper is ``direct_sum(a, -b)``.

    float64 when every block is real by :func:`as_matrix`, complex128 otherwise.
    ``direct_sum(*[a] * n)`` is the amplification ``I_n (x) a``.
    """
    blocks = [as_matrix(b) for b in (a, *rest)]
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
