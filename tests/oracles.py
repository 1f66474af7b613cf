"""Dense references that the tests compare specloc against.

specloc reads Sigma_x from one singular-value solve of x and the
generalized localizer from two half-size blocks, assembled in the field of
the input.  These references build the full complex matrices instead, from
the definitions alone, and solve each one with a dense Hermitian
eigensolve.  The identity they check is ``eig(bordered(x, s)) = s +
Sigma_x``, the bordered probe of Loring & Schulz-Baldes (NYJM 2017).
No product path calls them.
"""

from typing import NamedTuple

import numpy as np

from specloc import DEFAULT_POLICY, bordered, hermitian_spectrum
from specloc.localizer import _check_point


def s_gap(x, s, policy=DEFAULT_POLICY) -> float:
    """Smallest absolute eigenvalue of the bordered matrix at shift s."""
    if s < 0:
        raise ValueError("shift s must be nonnegative")
    return float(np.min(np.abs(hermitian_spectrum(bordered(x, s), policy=policy).eigenvalues)))


class GridCheck(NamedTuple):
    verdict: bool
    marginal: bool
    s_gaps: tuple


def grid_check(x, delta, grid_points=9, policy=DEFAULT_POLICY) -> GridCheck:
    """Certify that x is delta-singular from eigensolves of ``bordered(x, s)``.

    The shifts are the interior grid ``s = delta * i / (grid_points + 1)``.
    A delta-singular x has ``s_gap(x, s) >= min(s, delta - s)`` there, and
    each sample is checked against that bound less the certificate's tau.
    tau is read from ``x.doubled(policy)``, so an element flagged
    self-adjoint but not Hermitian raises ``NotSelfAdjointError``.
    """
    tau = x.doubled(policy).tau
    samples = []
    verdict = True
    marginal = False
    for i in range(1, grid_points + 1):
        s = delta * i / (grid_points + 1)
        g = s_gap(x, s, policy)
        bound = min(s, delta - s) - tau
        samples.append((s, g))
        verdict = verdict and g >= bound
        marginal = marginal or abs(g - bound) <= tau
    return GridCheck(verdict, marginal, tuple(samples))


def localizer_parts(T, x):
    """Dense complex128 (C, K, W) with L(kappa, s) = I_2 (x) (C + kappa*K) + s*(sigma_x (x) W).

    From the definitions of :mod:`specloc.localizer`, with D = I_n (x) D0:
    odd, C + kappa*K = [[kappa*D, x], [x*, -kappa*D]] and W = [[0, I], [I, 0]];
    even, C + kappa*K = [[x_+, kappa*D], [kappa*D*, -x_-]] and W = diag(I, -I),
    where x_+ and x_- are the compressions of x to the grading's +1 and -1
    eigenspaces.  The element is not checked.
    """
    n = x.dim // T.ambient_dim
    d = np.kron(np.eye(n), T.D0).astype(np.complex128)
    m = x.matrix.astype(np.complex128)
    zero = np.zeros_like(d)
    eye = np.eye(len(d), dtype=np.complex128)
    if T.parity == "odd":
        return (
            np.block([[zero, m], [m.conj().T, zero]]),
            np.block([[d, zero], [zero, -d]]),
            np.block([[zero, eye], [eye, zero]]),
        )
    h = T.D0.shape[0]
    blocks = m.reshape(n, 2 * h, n, 2 * h)
    x_plus = blocks[:, :h, :, :h].reshape(n * h, n * h)
    x_minus = blocks[:, h:, :, h:].reshape(n * h, n * h)
    return (
        np.block([[x_plus, zero], [zero, -x_minus]]),
        np.block([[zero, d], [d.conj().T, zero]]),
        np.block([[eye, zero], [zero, -eye]]),
    )


def build_generalized(T, x, kappa, s) -> np.ndarray:
    """The dense shifted localizer ``I_2 (x) L_reduced + s * (sigma_x (x) W)``.

    ``localizer_halves`` gives two blocks unitarily equivalent to it.
    """
    _check_point(kappa, s)
    c, k, w = localizer_parts(T, x)
    reduced = c + kappa * k
    return np.block([[reduced, s * w], [s * w, reduced]])
