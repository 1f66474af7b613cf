"""Operator system spectral triples and the spectral localizer index pairing.

The reduced localizers are the classical ones,

    L_odd  = [[kappa*D, x], [x*, -kappa*D]],
    L_even = [[x_+, kappa*D0], [kappa*D0*, -x_-]],

and the generalized (shifted) localizer used for delta-gapped elements is

    L(kappa, s) = I_2 (x) L_reduced + s * (sigma_x (x) W),

with W the swap [[0,I],[I,0]] in the odd case and the grading
diag(I,-I) in the even case, a signed permutation either way.
``_reduced_parts`` builds L_reduced's parts C and K, L_reduced = C + kappa*K,
from the block forms of :mod:`specloc.linalg` (``doubled_matrix``,
``direct_sum``), in the field of (x, D0): float64 when the imaginary parts
of x and D0 are exactly zero, complex128 otherwise.  W is never assembled:
at s = 0 it does not enter, and at s != 0 each half adds +-s at W's +-1
entries alone.  This assembly satisfies, exactly:

  * L(kappa, 0) = L_reduced (+) L_reduced;
  * for x = e the eigenvalues are +-sqrt((1 +-' s)^2 + kappa^2 lambda^2)
    over the Dirac spectrum;
  * the square bound L(kappa, s)^2 >= g_loc^2 - kappa*||[D, x]||, where
    g_loc = min over +- of the smallest singular value of x -+ s*e is
    the localizer gap.  For self-adjoint (more generally normal) x the
    localizer gap equals the bordered s-gap, which in turn dominates
    min{s, delta-s} for delta-gapped elements, giving the sufficient
    constancy region 0 < kappa < min{s, delta-s}^2 / ||[D, x]||.

The Hadamard H = [[1, 1], [1, -1]] / sqrt(2) in the outer slot turns
sigma_x into sigma_z, so for either parity

    (H (x) I) L(kappa, s) (H (x) I) = (L_reduced + s*W) (+) (L_reduced - s*W).

``index``, ``gap_bound_check`` and the CLI read the spectrum of
L(kappa, s) from the two half-size blocks (:func:`localizer_halves`),
and at s = 0 from one solve of L_reduced.  Only the dense reference the
tests compare against (``tests/oracles.py``) assembles the full matrix.

Default-region ``index`` solves the centre (kappa*, s*) and certifies each
corner q of its sub-rectangle from that spectrum by Weyl's inequality, the
one-ended form of ``verify_path``'s guard.  Along the straight spoke from
the centre to q each half C + kappa*K +- s*W moves by at most

    h = ||K|| |kappa_q - kappa*| + ||W|| |s_q - s*|,   ||W|| = 1, ||K|| = ||D0||,

for both parities, so every eigenvalue of either half moves by at most h.
Let g* be the centre's smallest |eigenvalue| and tau* the zero threshold of
its merged spectrum, the margin by which the computed g* may be off.  When
h < g* - tau*, no eigenvalue reaches 0 anywhere on the spoke: L(q) is
invertible and its signature is the centre's.  ||D0|| enters through its
Hoelder bound (``linalg.operator_norm_bound``, no SVD), and the guard also
pays for the rounding of the assembled halves at both ends
(:func:`_spoke_guard`).  Weyl's inequality is about Hermitian matrices, so
the guard certifies only when C and K are exactly Hermitian; a corner it
does not certify is solved and compared.  A certified corner is proved
more strongly than a solved one: the whole spoke, not just its endpoint.

For a fixed finite truncation the region-certified signature is the
small-coupling limit (zero for winding classes); integer indices of
truncated symbols are obtained at explicit (kappa, s), typically s = 0,
where invertibility is checked directly rather than via the bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InconsistentSignatureError,
    ModeMismatchError,
    NotDivisibleBy4Error,
    NotGappedError,
    NotSelfAdjointError,
    SingularLocalizerError,
)
from .gap import OperatorElement, delta_singular_check
from .linalg import (
    DEFAULT_POLICY,
    Inertia,
    TolerancePolicy,
    _EPS,
    _ArrayValue,
    _adjoint,
    _common_field,
    _read_only,
    as_matrix,
    direct_sum,
    doubled_matrix,
    hermitian_spectrum,
    is_self_adjoint,
    min_singular_value,
    operator_norm,
    operator_norm_bound,
    residual_ok,
)


@dataclass(frozen=True, eq=False)
class SpectralTriple(_ArrayValue):
    """Finite spectral triple data: parity and Dirac block.

    Odd: D0 is the self-adjoint Dirac matrix itself.  Even: D0 is the
    off-diagonal block of D = [[0, D0], [D0*, 0]] with respect to the
    balanced grading diag(I, -I), which follows from the size of D0;
    represented elements must commute with the grading.
    """

    parity: str
    D0: np.ndarray

    def __post_init__(self):
        d0 = _read_only(as_matrix(self.D0))
        object.__setattr__(self, "D0", d0)
        if self.parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        if d0.shape[0] != d0.shape[1]:
            raise DimensionMismatchError("Dirac block must be square")

    @property
    def ambient_dim(self) -> int:
        return self.D0.shape[0] * (2 if self.parity == "even" else 1)


def odd_triple(D, policy: TolerancePolicy = DEFAULT_POLICY) -> SpectralTriple:
    d = as_matrix(D)
    if not is_self_adjoint(d, policy):
        raise NotSelfAdjointError("odd Dirac operator is not self-adjoint within tau")
    return SpectralTriple("odd", d)


def even_triple(D0) -> SpectralTriple:
    return SpectralTriple("even", as_matrix(D0))


def _level(T: SpectralTriple, x: OperatorElement) -> int:
    if x.dim % T.ambient_dim:
        raise DimensionMismatchError(
            f"element size {x.dim} incompatible with ambient dimension {T.ambient_dim}"
        )
    return x.dim // T.ambient_dim


def _even_halves(m: np.ndarray, n: int, h: int, policy: TolerancePolicy):
    """Split an even element's matrix m at level n, D0 of size h, into x_+ and x_-."""
    d = 2 * h
    blocks = m.reshape(n, d, n, d)
    # gamma x - x gamma for gamma = I_n (x) diag(I, -I): +-2 times the
    # grading-off-diagonal blocks, zero elsewhere
    commutator = np.zeros_like(blocks)
    commutator[:, :h, :, h:] = 2 * blocks[:, :h, :, h:]
    commutator[:, h:, :, :h] = -2 * blocks[:, h:, :, :h]
    if not residual_ok(commutator.reshape(m.shape), m, policy=policy):
        raise ModeMismatchError("even element must commute with the grading")
    x_plus = blocks[:, :h, :, :h].reshape(n * h, n * h)
    x_minus = blocks[:, h:, :, h:].reshape(n * h, n * h)
    return x_plus, x_minus


def commutator_norm(T: SpectralTriple, x: OperatorElement) -> float:
    """||[D_n, x]||, formed blockwise in the field of (x, D0).

    D_n = I_n (x) D is block diagonal, so the (a, b) block of [D_n, x] is
    [D, x_ab]: n^2 products of the size of D, never one of D_n.
    """
    n = _level(T, x)
    m, d0 = _common_field(x.matrix, T.D0)
    dirac = d0 if T.parity == "odd" else doubled_matrix(d0)
    h = dirac.shape[0]
    blocks = m.reshape(n, h, n, h).transpose(0, 2, 1, 3)  # blocks[a, b] = x_ab
    commutator = dirac @ blocks - blocks @ dirac
    return operator_norm(commutator.transpose(0, 2, 1, 3).reshape(m.shape))


def _reduced_parts(T: SpectralTriple, x: OperatorElement, policy: TolerancePolicy):
    """(C, K): L_reduced(kappa) = C + kappa*K in the field of (x, D0); the element's checks run here."""
    n = _level(T, x)
    m, d0 = _common_field(x.matrix, T.D0)
    if T.parity == "odd":
        return doubled_matrix(m), direct_sum(*[d0] * n, *[-d0] * n)
    if not x.self_adjoint:
        raise ModeMismatchError("even localizer requires a self-adjoint element")
    x_plus, x_minus = _even_halves(m, n, d0.shape[0], policy)
    return direct_sum(x_plus, -x_minus), doubled_matrix(direct_sum(*[d0] * n))


def _check_point(kappa: float, s: float) -> None:
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if s < 0 or not math.isfinite(s):
        raise ValueError("s must be finite and nonnegative")


def _shifted(reduced: np.ndarray, parity: str, s: float) -> np.ndarray:
    """L_reduced + s*W, with s added at W's +-1 entries only.

    Adding -s where W is +1 rounds as subtracting s*1 does, so the halves
    at +-s equal C + kappa*K +- s*W entry for entry.
    """
    half = reduced.copy()
    n = half.shape[0] // 2
    i = np.arange(n)
    if parity == "odd":  # W = [[0, I], [I, 0]]
        half[i, i + n] += s
        half[i + n, i] += s
    else:  # W = diag(I, -I)
        half[i, i] += s
        half[i + n, i + n] -= s
    return half


def _halves(reduced: np.ndarray, parity: str, s: float) -> tuple:
    """Blocks of (L_reduced + s*W) (+) (L_reduced - s*W); one distinct block, and no W, at s = 0."""
    if s == 0:
        return reduced, reduced
    return _shifted(reduced, parity, s), _shifted(reduced, parity, -s)


def build_reduced(
    T: SpectralTriple,
    x: OperatorElement,
    kappa: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """The odd or even spectral localizer (half the generalized one at s=0)."""
    c, k = _reduced_parts(T, x, policy)
    return c + kappa * k


def localizer_halves(
    T: SpectralTriple,
    x: OperatorElement,
    kappa: float,
    s: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> tuple:
    """Blocks of the direct sum unitarily equivalent to L(kappa, s).

    ``(L_reduced + s*W, L_reduced - s*W)``, and ``(L_reduced, L_reduced)``
    (one array twice, solved once by ``hermitian_spectrum``) at s = 0.
    """
    _check_point(kappa, s)
    c, k = _reduced_parts(T, x, policy)
    return _halves(c + kappa * k, T.parity, s)


@dataclass(frozen=True)
class RegionDescription:
    """The (kappa, s) region where the localizer signature is certifiably constant."""

    delta: float
    commutator_norm: float
    unbounded: bool

    def kappa_max(self, s: float) -> float:
        if not 0 < s < self.delta:
            return 0.0
        if self.unbounded:
            return math.inf
        return min(s, self.delta - s) ** 2 / self.commutator_norm


def valid_region(
    T: SpectralTriple,
    x: OperatorElement,
    delta: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> RegionDescription:
    """Sufficient constancy region 0 < kappa < min{s, delta-s}^2 / ||[D,x]||.

    The region is ``unbounded`` when ||[D, x]|| is within ``residual_tol`` at
    the scale ||D0|| ||x||.  ||D0|| enters first through its Hoelder bound
    (``operator_norm_bound``, no SVD); the SVD of D0 runs only when the
    bound finds ||[D, x]|| negligible.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    cert = delta_singular_check(x, delta, policy=policy)
    if not cert.verdict:
        raise NotGappedError(f"element is not {delta}-singular")
    norm = commutator_norm(T, x)
    x_norm = float(np.abs(cert.sigma_x).max())

    def negligible(d0_norm):
        # ||D_n|| = ||D0|| for both parities; ||x|| = max|Sigma_x|
        return norm <= policy.residual_tol(x.dim, d0_norm * x_norm)

    # residual_tol is monotone in its scale and the Hoelder bound is at least
    # ||D0||, so "not negligible" at the bound is the verdict; only the other
    # answer needs the SVD of D0
    unbounded = negligible(operator_norm_bound(T.D0, math.inf)) and negligible(operator_norm(T.D0))
    return RegionDescription(float(delta), norm, unbounded)


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


def _spoke_guard(c: np.ndarray, k: np.ndarray, d0: np.ndarray, centre: tuple, spectrum):
    """``corner -> bool``: True when Weyl's inequality carries ``spectrum`` to ``corner``.

    ``spectrum`` is the merged spectrum of the halves assembled at
    ``centre``, an ``(s, kappa)`` point, from ``(C, K)`` of
    :func:`_reduced_parts`.  A True answer proves that the exact halves
    C + kappa*K +- s*W, and the assembled ones a solve would read, are
    invertible at every point of the segment from ``centre`` to the corner
    (ends included), with the centre's inertia.  With C and K not exactly
    Hermitian every answer is False.
    """
    if not all(np.array_equal(m, _adjoint(m)) for m in (c, k)):
        return lambda corner: False
    # Hoelder bounds, never an SVD (limit inf): ||K||_2 = ||D0||_2 and
    # || |K| ||_2 = || |D0| ||_2 for both parities, and || |M| ||_2 <=
    # sqrt(||M||_1 ||M||_inf) bounds the moduli of C as well
    norm_c = operator_norm_bound(c, math.inf)
    norm_k = operator_norm_bound(d0, math.inf)

    def assembly(s, kappa):
        # fl(c + kappa*k +- s*w) is within gamma_3 (|c| + kappa|k| + s|w|) of the
        # exact half, entrywise (one product, two sums; +-s enters only where
        # w's entry is +-1), so in norm within 4 eps (||C|| + kappa||K|| + s)
        return 4 * _EPS * (norm_c + kappa * norm_k + s)

    s0, kappa0 = centre
    # g* - tau* > 0 since the centre has no zero eigenvalue
    radius = float(np.min(np.abs(spectrum.eigenvalues))) - spectrum.tau

    def reaches(corner):
        s1, kappa1 = corner
        # Weyl: an exact half on the spoke is within h of the exact centre,
        # which is within assembly(centre) of the solved one, whose eigenvalues
        # are within tau* of the computed ones; the assembled corner is within
        # assembly(corner) more.  The factor covers the roundings of the
        # differences, products and sums on both sides of the comparison.
        h = norm_k * abs(kappa1 - kappa0) + abs(s1 - s0)
        return (h + assembly(s0, kappa0) + assembly(s1, kappa1)) * (1 + 16 * _EPS) < radius

    return reaches


@dataclass(frozen=True, eq=False)
class LocalizerReport(_ArrayValue):
    parity: str
    kappa: float
    s: float
    delta: float
    eigenvalues: np.ndarray
    inertia: Inertia
    signature: int
    index: int
    min_abs_eig: float
    gap_bound: float
    commutator_norm: float
    samples: tuple  # (s, kappa, signature): certified, by a solve or from the centre's spectrum
    reduced_signature: int | None = None


def index(
    T: SpectralTriple,
    x: OperatorElement,
    delta: float,
    kappa: float | None = None,
    s: float | None = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> tuple[int, LocalizerReport]:
    """Quarter-signature index of a delta-gapped element.

    With explicit (kappa, s), e.g. the kappa = 1, s = 0 regime of the
    circle demo, the localizer is evaluated there, with invertibility
    checked directly.  Otherwise the signature is read at the default
    interior point of the constancy region, solved, and at the four corners
    of a shrunken sub-rectangle; all five values must agree.  A corner
    within Weyl's reach of the centre (:func:`_spoke_guard`) takes the
    centre's signature without a solve; any other corner is solved.
    ``samples`` lists all five points either way.
    """
    region = valid_region(T, x, delta, policy)
    # the default point: the middle of the region, at half its largest kappa
    s_star = delta / 2.0
    kappa_star = 1.0 if region.unbounded else 0.5 * region.kappa_max(s_star)

    if kappa is not None or s is not None:
        points = [(s if s is not None else 0.0, kappa if kappa is not None else kappa_star)]
    else:
        s_lo, s_hi = delta / 4.0, 3.0 * delta / 4.0
        if region.unbounded:
            kappa_lo, kappa_hi = 0.5, 2.0
        else:
            cap = region.kappa_max(s_lo)
            kappa_lo, kappa_hi = 0.2 * cap, 0.8 * cap
        points = [
            (s_star, kappa_star),
            (s_lo, kappa_lo),
            (s_lo, kappa_hi),
            (s_hi, kappa_lo),
            (s_hi, kappa_hi),
        ]

    for s_i, kappa_i in points:
        _check_point(kappa_i, s_i)
    c, k = _reduced_parts(T, x, policy)

    def solve(s_i, kappa_i):
        spectrum = hermitian_spectrum(*_halves(c + kappa_i * k, T.parity, s_i), policy=policy)
        if spectrum.inertia.n_zero > 0:
            raise SingularLocalizerError(
                f"localizer singular at (kappa={kappa_i}, s={s_i}): |eig| down to "
                f"{np.min(np.abs(spectrum.eigenvalues)):.3e}"
            )
        return spectrum

    (s0, kappa0), corners = points[0], points[1:]
    spectrum = solve(s0, kappa0)
    sample_signatures = [spectrum.signature]
    if corners:
        reaches = _spoke_guard(c, k, T.D0, points[0], spectrum)
        sample_signatures += [
            spectrum.signature if reaches(corner) else solve(*corner).signature
            for corner in corners
        ]
    signatures = set(sample_signatures)
    if len(signatures) != 1:
        raise InconsistentSignatureError(
            f"signature varies over the sampled region: {sorted(signatures)}"
        )
    sig = signatures.pop()
    if sig % 4:
        raise NotDivisibleBy4Error(f"signature {sig} is not divisible by 4")

    g = localizer_gap(x, s0, policy)
    report = LocalizerReport(
        parity=T.parity,
        kappa=kappa0,
        s=s0,
        delta=float(delta),
        eigenvalues=spectrum.eigenvalues,
        inertia=spectrum.inertia,
        signature=sig,
        index=sig // 4,
        min_abs_eig=float(np.min(np.abs(spectrum.eigenvalues))),
        gap_bound=g * g - kappa0 * region.commutator_norm,
        commutator_norm=region.commutator_norm,
        samples=tuple((s_i, k_i, sig_i) for (s_i, k_i), sig_i in zip(points, sample_signatures)),
    )
    return sig // 4, report
