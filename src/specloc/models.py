"""Concrete model builders: circle truncations, shift compressions, and
seeded random gapped elements.

Circle conventions: the Fourier basis is ordered by ascending index
-N..N, the truncated Dirac is diag(-N, ..., N), and the compression of
u(t) = exp(i m t) carries its 1-entries on the m-th superdiagonal
(row j, column j + m in Fourier indices).  With these choices the
localizer index of the truncated winding unitary equals m.
"""

from dataclasses import replace

import numpy as np

from .errors import BadDeltaError, WindingTooLargeError
from .gap import OperatorElement
from .linalg import DEFAULT_POLICY, TolerancePolicy
from .localizer import (
    LocalizerReport,
    SpectralTriple,
    _localizer_spectrum,
    index,
)


def circle_dirac(N: int) -> SpectralTriple:
    """Truncation of -i d/dt to the Fourier modes -N..N, a real diagonal: exactly self-adjoint."""
    if N < 1:
        raise ValueError("N must be at least 1")
    return SpectralTriple("odd", np.diag(np.arange(-N, N + 1, dtype=np.float64)))


def circle_unitary_truncation(m: int, N: int) -> OperatorElement:
    """Compression P_N u P_N of the winding unitary u(t) = exp(i m t)."""
    if abs(m) > 2 * N:
        raise WindingTooLargeError(f"|m| = {abs(m)} exceeds 2N = {2 * N}")
    dim = 2 * N + 1
    return OperatorElement(np.eye(dim, k=m), 1, dim, m == 0)


def bilateral_shift_truncation(n: int) -> OperatorElement:
    """Compression of the bilateral shift onto an n-dimensional window."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return OperatorElement(np.eye(n, k=1), 1, n, False)


def random_gapped(
    d: int,
    n: int,
    delta: float,
    self_adjoint: bool = False,
    seed: int = 0,
) -> OperatorElement:
    """Seeded random element of M_n(M_d), gapped at delta by spectral surgery.

    A unit-norm random matrix is decomposed and every singular value
    (eigenvalue magnitude, in the self-adjoint case) inside (0, delta)
    is clamped outward to delta, so the result passes
    ``delta_singular_check`` at delta by construction.
    """
    if not 0 < delta < 1:
        raise BadDeltaError("delta must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    size = d * n
    a = (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))) / np.sqrt(2)
    if self_adjoint:
        a = (a + a.conj().T) / 2.0
        eigs, vecs = np.linalg.eigh(a)
        eigs = eigs / np.abs(eigs).max()
        clamped = np.where(
            (np.abs(eigs) > 0) & (np.abs(eigs) < delta), np.sign(eigs) * delta, eigs
        )
        matrix = (vecs * clamped) @ vecs.conj().T
        matrix = (matrix + matrix.conj().T) / 2.0
    else:
        u, sv, vh = np.linalg.svd(a)
        sv = sv / sv.max()
        clamped = np.where((sv > 0) & (sv < delta), delta, sv)
        matrix = (u * clamped) @ vh
    return OperatorElement(matrix, n, d, self_adjoint)


def winding_demo(
    m: int,
    N: int,
    kappa: float | None = None,
    s: float | None = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> tuple[int, LocalizerReport]:
    """Circle index demo: expected index m.

    Defaults to the s = 0 evaluation with kappa = 1/(2|m|), an
    empirically validated choice (index equals m for |m| <= 3 and every
    N >= |m| + 1 on the tested range N <= 10).
    """
    triple = circle_dirac(N)
    x = circle_unitary_truncation(m, N)
    if kappa is None:
        kappa = 0.5 if m == 0 else 1.0 / (2.0 * abs(m))
    if s is None:
        s = 0.0
    idx, report = index(triple, x, 1.0, kappa=kappa, s=s, policy=policy)
    if s == 0:
        # L(kappa, 0) = R (+) R has no eigenvalue within tau(4n) = 2 tau(2n) of
        # zero, so neither has R within its own tau(2n)
        reduced = report.signature // 2
    else:
        reduced = _localizer_spectrum(triple, x, kappa, None, policy).signature
    return idx, replace(report, reduced_signature=reduced)
