"""Dense references that the tests compare specloc against.

specloc reads Sigma_x from one singular-value solve of x and the
generalized localizer from two half-size blocks.  These references build
the full matrices instead and solve each one with a dense Hermitian
eigensolve.  The identity they check is ``eig(bordered(x, s)) = s +
Sigma_x``, the bordered probe of Loring & Schulz-Baldes (NYJM 2017).
No product path calls them.
"""

from typing import NamedTuple

import numpy as np

from specloc import DEFAULT_POLICY, bordered, hermitian_spectrum
from specloc.localizer import _check_point, _reduced_parts


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


def build_generalized(T, x, kappa, s, policy=DEFAULT_POLICY) -> np.ndarray:
    """The dense shifted localizer ``I_2 (x) L_reduced + s * (sigma_x (x) W)``.

    ``localizer_halves`` gives two blocks unitarily equivalent to it.
    """
    _check_point(kappa, s)
    c, k, w = _reduced_parts(T, x, policy)
    reduced = c + kappa * k
    return np.block([[reduced, s * w], [s * w, reduced]])
