"""Dense references that the tests compare specloc against.

specloc reads Sigma_x from one singular-value solve of x and the
generalized localizer from two half-size blocks, assembled in the field of
the input.  These references build the full complex matrices instead, from
the definitions alone, and solve each one with a dense Hermitian
eigensolve.  The identity they check is ``eig(bordered(x, s)) = s +
Sigma_x``, the bordered probe of Loring & Schulz-Baldes (NYJM 2017).
The square bound ``L(kappa, s)^2 >= g_loc^2 - kappa*||[D, x]||`` of the
same paper is checked here too (``gap_bound_check``), against specloc's
split spectrum.  The Clifford models are built here by the Jordan-Wigner
tensor recursion, Kronecker products of Pauli matrices and a dense
permutation similarity (``clifford_rep_dense``), and their relations are
checked by dense products (``relation_residual``).  No product path calls
them.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from specloc import (
    DEFAULT_POLICY,
    CliffordRep,
    OperatorElement,
    SpectralTriple,
    TolerancePolicy,
    bordered,
    commutator_norm,
    direct_sum,
    doubled_matrix,
    hermitian_spectrum,
    localizer_halves,
    min_singular_value,
    operator_norm,
)
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
    _check_point(T, kappa, s)
    c, k, w = localizer_parts(T, x)
    reduced = c + kappa * k
    return np.block([[reduced, s * w], [s * w, reduced]])


def localizer_gap(x: OperatorElement, s: float, policy: TolerancePolicy = DEFAULT_POLICY) -> float:
    """min over +- of the smallest singular value of x -+ s*e.

    This is the quantity that lower-bounds the shifted localizer; it
    equals the bordered s-gap whenever x is normal (in particular
    self-adjoint) and is never larger than it.  At s = 0 both matrices are
    x, and for self-adjoint x (eigenvalues lambda_i) the minimum is
    ``min_i ||lambda_i| - s|``; in both cases it is ``min|s + Sigma_x|``,
    read from the element's memoized certificate ``x.doubled(policy)``.
    Otherwise it takes one SVD of each of x -+ s*e.
    """
    if s == 0 or x.self_adjoint:
        return float(np.min(np.abs(s + x.doubled(policy).eigenvalues)))
    eye = np.eye(x.dim)
    return min(min_singular_value(x.matrix - s * eye), min_singular_value(x.matrix + s * eye))


@dataclass(frozen=True)
class GapBoundReport:
    passed: bool
    min_eig_sq: float
    bound: float  # g_loc^2 - kappa * ||[D, x]||


def gap_bound_check(
    T: SpectralTriple,
    x: OperatorElement,
    kappa: float,
    s: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapBoundReport:
    """Verify min eig(L^2) >= g_loc^2 - kappa*||[D,x]|| - tau."""
    eigs = hermitian_spectrum(*localizer_halves(T, x, kappa, s, policy), policy=policy).eigenvalues
    min_eig_sq = float(np.min(eigs**2))
    g = localizer_gap(x, s, policy)
    bound = g * g - kappa * commutator_norm(T, x)
    tol = policy.residual_tol(len(eigs), float(np.max(eigs**2)))
    return GapBoundReport(min_eig_sq >= bound - tol, min_eig_sq, bound)


_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def jordan_wigner(m: int):
    """Generators of CCl_{2m} in M_{2^m} with the grading sorted to diag(I, -I).

    Kronecker products of the Pauli strings Z^(k-1) (x) {X, Y} (x) I^(m-k)
    and Z^(x)m, conjugated by the dense permutation that sorts the
    grading's diagonal stably, +1 first.
    """
    gens = []
    for k in range(1, m + 1):
        for seed in (_SX, _SY):
            factors = [_SZ] * (k - 1) + [seed] + [np.eye(2)] * (m - k)
            g = np.array([[1.0]])
            for f in factors:
                g = np.kron(g, f)
            gens.append(g)
    grading = np.array([[1.0]])
    for _ in range(m):
        grading = np.kron(grading, _SZ)
    order = np.argsort(-np.real(np.diag(grading)), kind="stable")
    perm = np.eye(2**m)[order]
    return [perm @ g @ perm.T for g in gens], perm @ grading @ perm.T


def clifford_rep_dense(p: int) -> CliffordRep:
    """``clifford_rep(p)`` from :func:`jordan_wigner`: CCl_{2m}, or CCl_{2m+1} as diag(b, -b)."""
    if p % 2 == 0:
        gens, grading = jordan_wigner(p // 2)
        return CliffordRep(2 ** (p // 2), gens, grading, "even")
    m = (p - 1) // 2
    base, base_grading = jordan_wigner(m)
    gens = [direct_sum(b, -b) for b in (*base, base_grading)]
    return CliffordRep(2 ** (m + 1), gens, doubled_matrix(np.eye(2**m)), "odd")


def relation_residual(rep: CliffordRep) -> dict:
    """Every relation residual that ``relation_residuals`` names, by dense products and norms."""
    eye = np.eye(rep.rep_dim)
    g = rep.grading
    residuals = {}
    for i, gi in enumerate(rep.generators):
        residuals[f"hermitian_{i}"] = operator_norm(gi - gi.conj().T)
        residuals[f"grading_anticommute_{i}"] = operator_norm(g @ gi + gi @ g)
        for j, gj in enumerate(rep.generators[: i + 1]):
            target = 2.0 * eye if i == j else 0.0 * eye
            residuals[f"clifford_{j}{i}"] = operator_norm(gi @ gj + gj @ gi - target)
    residuals["grading_square"] = operator_norm(g @ g - eye)
    residuals["grading_hermitian"] = operator_norm(g - g.conj().T)
    return residuals
