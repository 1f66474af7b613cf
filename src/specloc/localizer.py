"""Operator system spectral triples and the spectral localizer index pairing.

The reduced localizers are the classical ones,

    L_odd  = [[kappa*D, x], [x*, -kappa*D]],
    L_even = [[x_+, kappa*D0], [kappa*D0*, -x_-]],

and the generalized (shifted) localizer used for delta-gapped elements is

    L(kappa, s) = I_2 (x) L_reduced + s * (sigma_x (x) W),

with W the swap [[0,I],[I,0]] in the odd case and the grading
diag(I,-I) in the even case, a signed permutation either way.
The Hadamard H = [[1, 1], [1, -1]] / sqrt(2) in the outer slot turns
sigma_x into sigma_z, so for either parity

    (H (x) I) L(kappa, s) (H (x) I) = (L_reduced + s*W) (+) (L_reduced - s*W),

and each half is the reduced localizer of a shifted element (Loring and
Schulz-Baldes, NYJM 2017), L_reduced(x) +- s*W = L_reduced(x +- s*e).
``_shifted`` forms x +- s*e's blocks (x's own at s = 0).  Write L_reduced
= C + kappa*K, C holding the element's blocks and K holding D0.  ``_half``
writes C + kappa*K straight into one fresh array, in the field
``np.result_type(x, D0)``; its off-block entries are exact zeros, so each
entry is the one fl(C + kappa*K) holds, and neither C, K nor their sum is
formed.  This assembly satisfies, exactly:

  * L(kappa, 0) = L_reduced (+) L_reduced;
  * for x = e the eigenvalues are +-sqrt((1 +-' s)^2 + kappa^2 lambda^2)
    over the Dirac spectrum;
  * the square bound L(kappa, s)^2 >= g_loc^2 - kappa*||[D, x]||, where
    g_loc = min over +- of the smallest singular value of x -+ s*e is
    the localizer gap; default-region ``index`` rests on it (below), and
    ``tests/oracles.py`` checks it.  For an invertible or a normal
    delta-gapped x, g_loc(s) >= min{s, delta-s}, giving the sufficient
    constancy region 0 < kappa < min{s, delta-s}^2 / ||[D, x]||.

``index`` and the CLI read the spectrum of L(kappa, s) from the two
half-size blocks (:func:`localizer_halves`), and at s = 0 from one solve of
L_reduced; only the test oracle (``tests/oracles.py``) assembles L whole.
With a real diagonal D0 an odd half L_reduced(y), y = x +- s*I, is never
assembled unless it is connected.  Up to a permutation it is the direct
sum, over the bipartite components of y's nonzero pattern (rows I, columns
J; ``linalg._components``), of [[kappa*D_I, y_IJ], [y_IJ*, -kappa*D_J]],
plus kappa*d_i for each empty row i and -kappa*d_j for each empty column j;
an x_ii +- s that cancels is an exact zero of y.  Each block is written
with ``_half``'s operations, so it holds the assembled half's entries;
stacked ``eigvalsh`` solves each block on its own, a 1 x 1 block's
eigenvalue is its entry, and one sort merges the parts, within tau of the
dense solve of the assembled half and with the same inertia.  The half is
exactly Hermitian by construction, so its NaN/Inf and symmetry scans move
to the inputs, checked once per call in one order (:func:`_checked_blocks`):
each point with kappa*D0's overflow, then x, then x_ii +- s, whose overflow
is that of |Re x_ii| + s.  The circle flagship at s = 0 solves one stacked
``eigvalsh`` of 2 x 2 blocks.  An even localizer, or an odd one with any
other D0, is assembled and solved by ``hermitian_spectrum``.

Default-region ``index`` solves only the centre (kappa*, s*) of its five
points; the square bound proves the rest (:func:`_check_premise`, before
the solve), as L(kappa', s) is invertible for 0 < kappa' <= kappa once
kappa*||[D, x]|| < g_loc(s)^2.  x's certificate bounds g_loc, its computed
singular values being within its zero threshold tau of x's: if x is
invertible at tau, sigma_min(x) >= delta - 2*tau, and Weyl's inequality
gives g_loc(s) >= delta - s - 2*tau; if x == x*, g_loc(s) = min over its
eigenvalues of ||lambda_i| - s| >= min{s, delta-s} - 2*tau; if x is flagged
self-adjoint, its Hermitian part is within tau/2 of x, which costs tau more
(tau/2 in |lambda_i|, tau/2 from x to it).  Any other x is refused
(``NotGappedError``): a singular x has g_loc(s) <= s (-s is an eigenvalue
of x - s*e), and a non-normal one can have far less (the circle truncation
m = 1, N = 3: 5.7e-5 at s = 1/4, delta = 1); its route is an explicit
(kappa, s).  The computed ||[D, x]|| is within r = ``residual_tol(dim,
||D0|| ||x||)`` of the exact one, the rule by which ``valid_region`` calls
it negligible, so each point must meet

    min{s, delta-s} > (3*tau + sqrt(kappa * (||[D, x]|| + r))) * (1 + 4 eps),

i.e. kappa*||[D, x]|| < (min{s, delta-s} - 3*tau)^2: the left side is exact
at the five points, and the factor covers the rounding of the right.  At
kappa = 0, L(0, s) is invertible for s in [delta/4, 3*delta/4], with a
signature that does not depend on s (0 odd, 2(sig x_+ - sig x_-) even), so
each point joins the centre through invertible localizers: all five
samples carry the centre's solved signature.

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
    ModeMismatchError,
    NonFiniteError,
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
    _components,
    _read_only,
    _read_spectrum,
    as_matrix,
    doubled_matrix,
    hermitian_spectrum,
    is_self_adjoint,
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
        if not d0.size:
            raise DimensionMismatchError("Dirac block must not be empty")

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


def commutator_norm(T: SpectralTriple, x: OperatorElement) -> float:
    """||[D_n, x]||, formed blockwise.

    D_n = I_n (x) D is block diagonal, so the (a, b) block of [D_n, x] is
    [D, x_ab]: n^2 products of the size of D, never one of D_n.
    """
    n = _level(T, x)
    m, d0 = x.matrix, T.D0
    dirac = d0 if T.parity == "odd" else doubled_matrix(d0)
    h = dirac.shape[0]
    blocks = m.reshape(n, h, n, h).transpose(0, 2, 1, 3)  # blocks[a, b] = x_ab
    commutator = dirac @ blocks - blocks @ dirac
    return operator_norm(commutator.transpose(0, 2, 1, 3).reshape(m.shape))


def _element_blocks(T: SpectralTriple, x: OperatorElement, policy: TolerancePolicy) -> tuple:
    """x's blocks in L_reduced, ``(x,)`` odd or ``(x_+, x_-)`` even, once x's checks pass."""
    n, m, h = _level(T, x), x.matrix, T.D0.shape[0]
    if T.parity == "odd":
        return (m,)
    if not x.self_adjoint:
        raise ModeMismatchError("even localizer requires a self-adjoint element")
    blocks = m.reshape(n, 2 * h, n, 2 * h)
    # gamma x - x gamma for gamma = I_n (x) diag(I, -I): +-2 times the
    # grading-off-diagonal blocks, zero elsewhere
    commutator = np.zeros_like(blocks)
    commutator[:, :h, :, h:] = 2 * blocks[:, :h, :, h:]
    commutator[:, h:, :, :h] = -2 * blocks[:, h:, :, :h]
    if not residual_ok(commutator.reshape(m.shape), m, policy=policy):
        raise ModeMismatchError("even element must commute with the grading")
    r = n * h
    return blocks[:, :h, :, :h].reshape(r, r), blocks[:, h:, :, h:].reshape(r, r)


def _check_point(T: SpectralTriple, kappa: float, s: float) -> None:
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be finite and positive")
    if s < 0 or not math.isfinite(s):
        raise ValueError("s must be finite and nonnegative")
    # kappa*D0 is formed part by part (real and imaginary), and rounding is
    # monotone: it overflows exactly when kappa times the largest part does
    parts = T.D0.view(np.float64)
    if math.isinf(float(kappa) * float(max(parts.max(initial=0.0), -parts.min(initial=0.0)))):
        raise ValueError(f"kappa * D0 overflows at kappa={kappa}")


def _checked_blocks(T: SpectralTriple, x: OperatorElement, points, policy: TolerancePolicy) -> tuple:
    """x's blocks (:func:`_element_blocks`), once every ``(s, kappa)`` point and the shifts pass.

    One order for every route: each point, then x's checks, then the shift.
    Some x_ii +- s overflows exactly when |Re x_ii| + s does at the largest
    s, and raises ``NonFiniteError`` before any shifted block is formed.
    """
    for s, kappa in points:
        _check_point(T, kappa, s)
    blocks = _element_blocks(T, x, policy)
    s = max(s for s, _ in points)
    if s and math.isinf(s + max(float(np.abs(b.diagonal().real).max(initial=0.0)) for b in blocks)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return blocks


def _shifted(blocks: tuple, s: float) -> tuple:
    """The blocks of x + s*e, s of either sign: copies of x's with s on the diagonal, x's own at s = 0."""
    if not s:
        return blocks
    shifted = tuple(b.copy() for b in blocks)
    for y in shifted:
        np.fill_diagonal(y, y.diagonal() + s)
    return shifted


def _half(T: SpectralTriple, blocks: tuple, kappa: float) -> np.ndarray:
    """L_reduced(kappa) of ``blocks``, x's or x +- s*e's, in one fresh array.

    x and x* (odd) or x_+ and -x_- (even), and kappa*D0 in the Dirac blocks.
    A negated block is written as 0 - v, so that its zeros are +0 as in
    fl(C + kappa*K) (for inputs free of -0).
    """
    h, r = T.D0.shape[0], blocks[0].shape[0]
    out = np.zeros((2 * r, 2 * r), dtype=np.result_type(*blocks, T.D0))
    if T.parity == "odd":  # [[kappa*D, x], [x*, -kappa*D]]
        out[:r, r:] = blocks[0]
        np.conjugate(blocks[0].T, out=out[r:, :r])
        kd = np.multiply(T.D0, kappa, out=out[:h, :h])
        for a in range(0, r, h):  # the Dirac blocks of I_n (x) D0
            out[a : a + h, a : a + h] = kd
            np.subtract(0.0, kd, out=out[r + a : r + a + h, r + a : r + a + h])
    else:  # [[x_+, kappa*D], [kappa*D*, -x_-]]
        out[:r, :r] = blocks[0]
        np.subtract(0.0, blocks[1], out=out[r:, r:])
        kd = np.multiply(T.D0, kappa, out=out[:h, r : r + h])
        for a in range(0, r, h):
            out[a : a + h, r + a : r + a + h] = kd
            np.conjugate(kd.T, out=out[r + a : r + a + h, a : a + h])
    return out


def _halves(T: SpectralTriple, blocks: tuple, kappa: float, s: float) -> tuple:
    """L_reduced(x + s*e) and L_reduced(x - s*e) from x's checked ``blocks``, one array twice at s = 0."""
    plus = _half(T, _shifted(blocks, s), kappa)
    return (plus, plus) if s == 0 else (plus, _half(T, _shifted(blocks, -s), kappa))


def _odd_half_eigenvalues(T: SpectralTriple, y: np.ndarray, kappa: float) -> np.ndarray:
    """Ascending eigenvalues of the odd half L_reduced(y), y = x +- s*I, D0 a real diagonal.

    The half's pattern is the bipartite graph of y's, as the module
    docstring sets out (:func:`linalg._components`).  A connected y is
    assembled by :func:`_half` and solved whole.  Otherwise each component's
    block [[kappa*D_I, y_IJ], [y_IJ*, -kappa*D_J]] is written with the
    operations of :func:`_half`, lower triangle only (``eigvalsh`` reads no
    other), and each empty row or column is the 1 x 1 block kappa*d_i or
    0 - kappa*d_j, whose eigenvalue is that entry.
    """
    r = y.shape[0]
    parts = _components(y)
    if parts is None:
        return np.linalg.eigvalsh(_half(T, (y,), kappa))
    kd = np.tile(np.multiply(T.D0.diagonal(), kappa), r // T.D0.shape[0])
    dirac = np.concatenate([kd, 0.0 - kd])  # of row i at i, of column j at r + j
    alone = np.ones(2 * r, dtype=bool)
    eigs = []
    for rows, cols in parts:
        (k, a), b = rows.shape, cols.shape[1]
        if not k:
            continue
        alone[rows], alone[r + cols] = False, False
        block = np.zeros((k, a + b, a + b), dtype=y.dtype)
        block[:, range(a + b), range(a + b)] = dirac[np.concatenate([rows, r + cols], axis=1)]
        np.conjugate(y[rows[:, None, :], cols[:, :, None]], out=block[:, a:, :a])  # y_IJ*
        eigs.append(np.linalg.eigvalsh(block, UPLO="L").ravel())
    eigs.append(dirac[alone])
    return np.sort(np.concatenate(eigs))


def _real_diagonal(T: SpectralTriple) -> bool:
    """Whether the Dirac block is a real diagonal, so that an odd half splits by x's components."""
    d0 = T.D0
    return d0.dtype == np.float64 and np.count_nonzero(d0) == np.count_nonzero(d0.diagonal())


def _spectrum(T: SpectralTriple, blocks: tuple, kappa: float, s: float | None, policy: TolerancePolicy):
    """The merged spectrum of L(kappa, s)'s halves, or of L_reduced alone when s is None.

    ``blocks`` are x's, checked with the point (:func:`_checked_blocks`).
    An odd localizer with a real diagonal D0 is solved half by half, each
    by the components of x +- s*I (:func:`_odd_half_eigenvalues`), with no
    dense half unless the pattern is connected, within tau of the dense
    solve and with the same inertia.  Any other is assembled
    (:func:`_halves`) and solved by ``hermitian_spectrum``.  At s = 0 the
    one half counts twice, as ``hermitian_spectrum(R, R)`` counts it.
    """
    if T.parity == "even" or not _real_diagonal(T):
        if s is None:
            return hermitian_spectrum(_half(T, blocks, kappa), policy=policy)
        return hermitian_spectrum(*_halves(T, blocks, kappa, s), policy=policy)
    plus = _odd_half_eigenvalues(T, _shifted(blocks, s or 0.0)[0], kappa)
    if s is None:
        return _read_spectrum(plus, policy)
    minus = plus if s == 0 else _odd_half_eigenvalues(T, _shifted(blocks, -s)[0], kappa)
    return _read_spectrum(np.sort(np.concatenate([plus, minus])), policy)


def _localizer_spectrum(
    T: SpectralTriple,
    x: OperatorElement,
    kappa: float,
    s: float | None,
    policy: TolerancePolicy = DEFAULT_POLICY,
):
    """``hermitian_spectrum(*localizer_halves(...))``, or of ``build_reduced(...)`` when s is None.

    The same errors, and eigenvalues within tau with the same inertia,
    solved as :func:`_spectrum` solves them.
    """
    blocks = _checked_blocks(T, x, [(0.0 if s is None else s, kappa)], policy)
    return _spectrum(T, blocks, kappa, s, policy)


def build_reduced(
    T: SpectralTriple,
    x: OperatorElement,
    kappa: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """The odd or even spectral localizer (half the generalized one at s=0)."""
    return _half(T, _checked_blocks(T, x, [(0.0, kappa)], policy), kappa)


def localizer_halves(
    T: SpectralTriple,
    x: OperatorElement,
    kappa: float,
    s: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> tuple:
    """Blocks of the direct sum unitarily equivalent to L(kappa, s).

    ``(L_reduced(x + s*e), L_reduced(x - s*e))``, and ``(L_reduced,
    L_reduced)`` (one array twice, solved once by ``hermitian_spectrum``)
    at s = 0.
    """
    return _halves(T, _checked_blocks(T, x, [(s, kappa)], policy), kappa, s)


def _gap_certificate(x: OperatorElement, delta: float, policy: TolerancePolicy):
    """x's certificate at delta; raises unless delta > 0 and x is delta-singular."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    cert = delta_singular_check(x, delta, policy=policy)
    if not cert.verdict:
        raise NotGappedError(f"element is not {delta}-singular")
    return cert


@dataclass(frozen=True)
class RegionDescription:
    """The (kappa, s) region of constant localizer signature, for an invertible or normal x."""

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

    It holds for an invertible or normal x, and ``index`` refuses any other
    (module docstring).  The region is ``unbounded`` when ||[D, x]|| is
    within ``residual_tol`` at the scale ||D0|| ||x||.  ||D0|| enters first
    through its Hoelder bound (``operator_norm_bound``, no SVD); the SVD of
    D0 runs only when the bound finds ||[D, x]|| negligible.
    """
    cert = _gap_certificate(x, delta, policy)
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


def _check_premise(T: SpectralTriple, x: OperatorElement, region: RegionDescription, points, policy):
    """Raise ``NotGappedError`` unless the square bound proves every ``(s, kappa)`` point.

    The module docstring's premise and margin, read from x's memoized
    certificate, its flag and ``region``, with no solve.
    """
    doubled, m = x.doubled(policy), x.matrix
    if not (doubled.inertia.n_zero == 0 or x.self_adjoint or np.array_equal(m, _adjoint(m))):
        raise NotGappedError("the default region is proved only for an invertible or self-adjoint "
                             "element; give kappa and s")
    # ||[D, x]|| up to the rounding of its computed value; ||x|| = max Sigma_x
    scale = operator_norm_bound(T.D0, math.inf) * float(doubled.eigenvalues[-1])
    norm = region.commutator_norm + policy.residual_tol(x.dim, scale)
    for s, kappa in points:
        if not min(s, region.delta - s) > (3 * doubled.tau + math.sqrt(kappa * norm)) * (1 + 4 * _EPS):
            raise NotGappedError(f"the square bound does not prove (kappa={kappa}, s={s})")


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
    samples: tuple  # (s, kappa, signature): solved, or proved to share the centre's
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
    circle demo, the localizer is evaluated there (s defaults to 0, kappa
    to kappa*), with invertibility checked directly.  Otherwise the
    signature is read at the default interior point of the constancy
    region, solved, and at the four corners of a shrunken sub-rectangle,
    which the square bound proves to share its signature
    (:func:`_check_premise`, before the solve); ``samples`` lists all five.
    An x neither invertible nor self-adjoint is refused (``NotGappedError``).
    x is checked once per call, and the point is solved from x's blocks
    (:func:`_spectrum`): by x's components with an odd, real diagonal D0,
    else from its halves, each written into one array.
    """
    if kappa is None:
        region = valid_region(T, x, delta, policy)
        # the default point: the middle of the region, at half its largest kappa
        s_star = delta / 2.0
        kappa_star = 1.0 if region.unbounded else 0.5 * region.kappa_max(s_star)
    else:  # no region is read, so ||[D, x]|| is not computed
        _gap_certificate(x, delta, policy)

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

    blocks = _checked_blocks(T, x, points, policy)
    if len(points) > 1:
        _check_premise(T, x, region, points, policy)
    s0, kappa0 = points[0]
    spectrum = _spectrum(T, blocks, kappa0, s0, policy)
    if spectrum.inertia.n_zero > 0:
        raise SingularLocalizerError(
            f"localizer singular at (kappa={kappa0}, s={s0}): |eig| down to "
            f"{np.min(np.abs(spectrum.eigenvalues)):.3e}"
        )
    sig = spectrum.signature
    if sig % 4:
        raise NotDivisibleBy4Error(f"signature {sig} is not divisible by 4")

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
        samples=tuple((s_i, k_i, sig) for s_i, k_i in points),
    )
    return sig // 4, report
