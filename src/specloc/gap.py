"""Gap certificates for concretely represented operator system elements.

An element x of M_n(E), carried as a dn x dn matrix in the field that
``linalg.as_matrix`` decides (float64 when it is exactly real), is
delta-singular ("delta-gapped") when the spectrum of the doubled matrix

    Sigma_x = spec [[0, x], [x*, 0]]

avoids (-delta, 0) and (0, delta).  The bordered matrix
``[[s, x], [x*, s]]`` probes this: its eigenvalues are ``s + Sigma_x``,
so the element is delta-singular exactly when the bordered matrix stays
invertible for every shift s in (0, delta).

The doubled matrix's eigenvalues are exactly the singular values of x
with both signs, Sigma_x = {+-sigma_i(x)}, so every certificate reads
Sigma_x from the n singular values of x
(:func:`specloc.linalg.doubled_spectrum`), with the doubled matrix's tau
at dimension 2n.  They are solved by the components of x's nonzero
pattern, rows and columns read as one bipartite graph: an even element,
which commutes with the grading, splits into x_+ and x_-, and the circle
truncation, a partial isometry, into single entries, solved as 1 x 1
blocks by one stacked SVD; a dense x is one SVD of size n.  That solve
runs once per element and tolerance policy:
:meth:`OperatorElement.doubled` memoizes it, so a path sample certified by
``contract_invertible`` is not solved again by ``verify_path``.  The memo
is sound because an element's matrix is a private copy that numpy refuses
to make writable, and the memoized spectrum is read-only the same way; a
spectral triple's Dirac block and a Clifford representation's generators
and grading are frozen by the same helper, ``linalg._read_only``.
The bordered matrix itself is built only by ``clifford.verify_doubling``
and by the dense references the tests compare against (``tests/oracles.py``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .linalg import (
    DEFAULT_POLICY,
    Spectrum,
    TolerancePolicy,
    _ArrayValue,
    _read_only,
    as_matrix,
    doubled_matrix,
    doubled_spectrum,
    is_self_adjoint,
)


@dataclass(frozen=True, eq=False)
class OperatorElement(_ArrayValue):
    """A matrix over M_n(E) with its block metadata.

    ``matrix`` has size (ambient_dim * block_size); element blocks are
    outer, the ambient representation space inner.  The matrix is held as
    ``as_matrix`` returns it, float64 for real input, so code that writes
    complex entries into a copy must upcast the copy first.  It is a
    private copy that numpy refuses to make writable, so the doubled
    spectrum read from it is solved once per policy (:meth:`doubled`).
    Copying or pickling an element builds a new one, without the memo.
    """

    matrix: np.ndarray
    block_size: int = 1
    ambient_dim: int = 1
    self_adjoint: bool = False

    def __post_init__(self):
        m = _read_only(as_matrix(self.matrix))
        object.__setattr__(self, "matrix", m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"element matrix must be square, got {m.shape}")
        if self.block_size < 1 or self.ambient_dim < 1:
            raise ValueError("block_size and ambient_dim must be positive")
        if self.block_size * self.ambient_dim != m.shape[0]:
            raise ValueError(
                f"matrix size {m.shape[0]} != block_size {self.block_size} "
                f"* ambient_dim {self.ambient_dim}"
            )

    def __reduce__(self):
        return type(self), (self.matrix, self.block_size, self.ambient_dim, self.self_adjoint)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def doubled(self, policy: TolerancePolicy = DEFAULT_POLICY) -> Spectrum:
        """``doubled_spectrum`` of this element, solved once per policy.

        The matrix cannot be made writable and the flag is frozen, so
        (element, policy) is everything the spectrum depends on.  The memo
        lives in the instance ``__dict__``, outside the dataclass fields,
        and its eigenvalues are read-only; a raised ``NotSelfAdjointError``
        is not memoized.
        """
        memo = self.__dict__.setdefault("_doubled", {})
        if policy not in memo:
            spectrum = doubled_spectrum(self.matrix, self.self_adjoint, policy=policy)
            memo[policy] = spectrum._replace(eigenvalues=_read_only(spectrum.eigenvalues))
        return memo[policy]


def operator_element(
    matrix,
    block_size: int = 1,
    self_adjoint: bool | None = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> OperatorElement:
    """Wrap a matrix, inferring ambient dimension and (optionally) self-adjointness."""
    m = as_matrix(matrix)
    if block_size < 1 or m.shape[0] % block_size:
        raise ValueError(f"size {m.shape[0]} not divisible by positive block_size {block_size}")
    if self_adjoint is None:
        self_adjoint = is_self_adjoint(m, policy)
    return OperatorElement(m, block_size, m.shape[0] // block_size, bool(self_adjoint))


def identity_element(ambient_dim: int, block_size: int = 1) -> OperatorElement:
    """The unit e_n = identity of M_n(E)."""
    return OperatorElement(np.eye(ambient_dim * block_size), block_size, ambient_dim, True)


@dataclass(frozen=True, eq=False)
class GapCertificate(_ArrayValue):
    sigma_x: np.ndarray
    delta_max: float
    queried_delta: float
    verdict: bool
    marginal: bool

    @property
    def s_gaps(self) -> tuple:
        """``(s, min|s + Sigma_x|)`` at s = k*delta/10, k = 1..9; ``()`` at delta = 0.

        Computed on access: ``eig(bordered(x, s)) = s + Sigma_x``, so each
        value is the bordered matrix's smallest absolute eigenvalue.
        """
        delta = self.queried_delta
        if delta == 0.0:
            return ()
        return tuple(
            (s, float(np.min(np.abs(s + self.sigma_x))))
            for s in (delta * i / 10.0 for i in range(1, 10))
        )


def bordered(x: OperatorElement, s: float) -> np.ndarray:
    """The self-adjoint probe [[s, x], [x*, s]]."""
    if not math.isfinite(s):
        raise NonFiniteError("shift s must be finite")
    return doubled_matrix(x.matrix, s)


def sigma_spectrum(x: OperatorElement, policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Sigma_x: ascending eigenvalues of the doubled matrix, symmetric about 0."""
    return delta_singular_check(x, 0.0, policy=policy).sigma_x


def max_delta(x: OperatorElement, policy: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Largest certifiable gap: smallest |lambda| over nonzero lambda in Sigma_x."""
    return delta_singular_check(x, 0.0, policy=policy).delta_max


def delta_singular_check(
    x: OperatorElement,
    delta: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapCertificate:
    """Certify (or refute) that x is delta-singular.

    Sigma_x = +-(singular values of x), solved once per policy, tested against
    the doubled matrix's tau; an element flagged self-adjoint must be
    Hermitian at that tau (``NotSelfAdjointError`` otherwise).  The
    verdict is read from Sigma_x: no magnitude lies in (tau, delta - tau).

    ``delta = 0`` degenerates to invertibility of the doubled matrix.
    """
    if not math.isfinite(delta) or delta < 0:
        raise ValueError("delta must be finite and nonnegative")

    spectrum = x.doubled(policy)
    sigma, tau = spectrum.eigenvalues, spectrum.tau

    magnitudes = np.abs(sigma)
    nonzero = magnitudes[magnitudes > tau]
    dmax = float(nonzero.min()) if nonzero.size else math.inf

    if delta == 0.0:
        smallest = float(magnitudes.min())
        verdict = smallest > tau
        marginal = tau < smallest <= 2 * tau
    else:
        violating = (magnitudes > tau) & (magnitudes < delta - tau)
        verdict = not bool(np.any(violating))
        near_zero = (magnitudes > tau) & (magnitudes <= 2 * tau)
        near_delta = (magnitudes >= delta - tau) & (magnitudes < delta + tau)
        marginal = bool(np.any(near_zero) or np.any(near_delta))
    return GapCertificate(sigma, dmax, float(delta), verdict, marginal)
