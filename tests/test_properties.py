"""Property tests: the Hermitian spectral kernel against the dense oracle.

The oracle is ``np.linalg.eigvalsh`` of the symmetrized matrix, with the
zero threshold ``TolerancePolicy.tau`` (an SVD-based operator norm).  The
kernels solve an exactly real matrix in real arithmetic: the exact tests
call the oracle in the same arithmetic (``as_solved``), and drawn real
symmetric and real square matrices are checked within tau of a complex
solve (``eigvalsh`` and ``svd`` of the matrix cast to complex).  The
field that ``as_matrix`` decides, float64 exactly when the imaginary part
is zero, is checked on drawn matrices for every object that holds one, and
an element built from an exactly real complex matrix answers as the float64
one, bit for bit.  The localizer's parts C and K, each in the field of its
input, and its halves C + kappa*K +- s*W are checked entry for entry against
the dense complex definitions of ``tests/oracles.py``.  The split localizer (two
half-size blocks, one at s = 0) is checked against the dense
``build_generalized`` assembly of the same module, and the
gap certificate (one SVD of x) against the dense spectrum of
``bordered(x, 0)``.  ``is_singular`` is checked against the delta = 0
certificate, and ``residual_ok`` against its rule written out by hand.
``hermitian_spectrum``, which solves each block whole, is checked against
the complex solve of drawn permuted direct sums, and the singular values'
split into the bipartite components of a pattern against the dense SVD of
drawn permuted sums of rectangular blocks with empty rows and columns.  An
odd localizer with a real diagonal Dirac block, solved by the components
of x +- s*I without assembling its halves, is checked within tau of the
dense solve of the assembled halves, with the same inertia, and within tau
of ``build_generalized``, on drawn sparse, banded and dense x with diagonal
entries that cancel s exactly.
The path certificate's per-segment step guard is checked against dense
sampling of ``bordered(y, delta/2)`` along drawn segments, and its step
report against the SVD norm of each step.  Default-region ``index``'s
samples are checked against a solve of each point, and its premise on four
drawn kinds of input: every accepted point satisfies the square bound of the
localizer gap (``localizer_gap``) and has the dense signature, and only the
singular non-normal kind is refused.  ``reduce_periodic`` keeps
``max_delta`` on drawn odd self-adjoint elements.
The Clifford relation residuals, decided exact first on phase
permutations, are checked entry for entry against the dense products and
norms of ``tests/oracles.py``, on the models, rotated models and models
with one entry perturbed.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from specloc import (
    DEFAULT_POLICY,
    CliffordRep,
    HomotopyPath,
    OperatorElement,
    SpectralTriple,
    bilateral_shift_truncation,
    bordered,
    build_reduced,
    circle_dirac,
    circle_unitary_truncation,
    clifford_rep,
    commutator_norm,
    contract_invertible,
    delta_singular_check,
    direct_sum,
    doubled_matrix,
    even_triple,
    hermitian_spectrum,
    identity_element,
    index,
    is_self_adjoint,
    is_singular,
    localizer_halves,
    max_delta,
    min_singular_value,
    operator_element,
    operator_norm,
    random_gapped,
    reduce_periodic,
    relation_residuals,
    residual_ok,
    sigma_spectrum,
    valid_region,
    verify_path,
)
from specloc.errors import (
    ModeMismatchError,
    NoGapFoundError,
    NotDivisibleBy4Error,
    NotGappedError,
    NotInvertibleError,
    NotSelfAdjointError,
    SpeclocError,
)
from specloc.linalg import as_matrix, doubled_spectrum
from specloc.localizer import _element_blocks, _localizer_spectrum

from oracles import (
    build_generalized,
    gap_bound_check,
    localizer_gap,
    localizer_parts,
    relation_residual,
    s_gap,
)

SETTINGS = settings(max_examples=60, deadline=None)


def draw_size_rng_scale_rank(draw):
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1e-2, 1.0, 3.0, 1e4]))
    return n, rng, scale, draw(st.integers(0, n))


@st.composite
def hermitian(draw, real=False):
    """Seeded random Hermitian matrix, real symmetric if ``real``, possibly rank-deficient."""
    n, rng, scale, rank = draw_size_rng_scale_rank(draw)
    a = rng.standard_normal((n, n))
    if not real:
        a = a + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    eigs = scale * np.concatenate([rng.standard_normal(rank), np.zeros(n - rank)])
    h = (q * eigs) @ q.conj().T
    return (h + h.conj().T) / 2.0


@st.composite
def perturbed(draw):
    """Hermitian matrix plus a round-off-sized (or larger) asymmetric part."""
    h = draw(hermitian())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([1e-17, 1e-16, 1e-15, 1e-13, 1e-8]))
    a = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    return h + size * (operator_norm(h) or 1.0) * a


@st.composite
def real_square(draw):
    """Seeded random real square matrix of drawn rank (0 included) at a drawn scale."""
    n, rng, scale, rank = draw_size_rng_scale_rank(draw)
    return scale * (rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n)))


def as_solved(m):
    """m.real when m has no nonzero imaginary entry: the matrix the kernels hand to LAPACK."""
    return m.real if not np.any(np.imag(m)) else m


def counted_inertia(eigs, tau):
    n_plus = int(np.count_nonzero(eigs > tau))
    n_minus = int(np.count_nonzero(eigs < -tau))
    return n_plus, len(eigs) - n_plus - n_minus, n_minus


def oracle_inertia(m):
    eigs = np.linalg.eigvalsh(as_solved((m + m.conj().T) / 2.0))
    tau = DEFAULT_POLICY.tau(m)
    return eigs, tau, counted_inertia(eigs, tau)


def assert_within_tau_of_complex_solve(spectrum, eigs):
    """``spectrum`` lies within its tau of the ascending ``eigs`` of a complex solve.

    The inertia, each read against its own spectrum's tau, agrees wherever
    no eigenvalue of either lies within 1e-12 tau of +-tau.
    """
    assert np.max(np.abs(spectrum.eigenvalues - eigs), initial=0.0) <= spectrum.tau
    tau = DEFAULT_POLICY.scaled_tol(len(eigs), float(np.abs(eigs).max(initial=0.0)))
    if not any(
        np.any(np.abs(np.abs(e) - t) <= 1e-12 * t)
        for e, t in ((spectrum.eigenvalues, spectrum.tau), (eigs, tau))
    ):
        assert tuple(spectrum.inertia) == counted_inertia(eigs, tau)


@SETTINGS
@given(st.one_of(hermitian(), hermitian(real=True)))
def test_kernel_eigenvalues_equal_eigvalsh_on_hermitian_input(h):
    spectrum = hermitian_spectrum(h)
    assert np.array_equal(spectrum.eigenvalues, np.linalg.eigvalsh(as_solved(h)))
    assert_within_tau_of_complex_solve(spectrum, np.linalg.eigvalsh(h.astype(np.complex128)))


@SETTINGS
@given(st.one_of(hermitian(), hermitian(real=True), perturbed()))
def test_kernel_tau_and_inertia_match_oracle(m):
    assume(is_self_adjoint(m))
    spectrum = hermitian_spectrum(m)
    eigs, tau, counts = oracle_inertia(m)
    np.testing.assert_array_equal(spectrum.eigenvalues, eigs)
    symmetrized = ((m + m.conj().T) / 2.0).astype(np.complex128)
    assert_within_tau_of_complex_solve(spectrum, np.linalg.eigvalsh(symmetrized))
    assert spectrum.tau == pytest.approx(tau, rel=1e-12, abs=0.0)
    assume(not np.any(np.abs(np.abs(eigs) - tau) <= 1e-12 * tau))
    assert tuple(spectrum.inertia) == counts
    assert spectrum.signature == counts[0] - counts[2]


@st.composite
def permuted_direct_sum(draw):
    """A Hermitian direct sum of blocks of 1 to 6 rows, its rows and columns permuted.

    Each block is real or complex at its own scale, 0 included, so isolated
    diagonal entries and zero blocks occur.  Half the draws add, inside the
    blocks, an asymmetry whose norm is a quarter of the zero threshold.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())

    def gaussian(shape):
        return rng.standard_normal(shape) + (0.0 if real else 1j * rng.standard_normal(shape))

    blocks, masks = [], []
    for k in draw(st.lists(st.integers(1, 6), min_size=1, max_size=8)):
        scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
        a = gaussian((k, k))
        blocks.append(scale * (a + a.conj().T) / 2.0)
        masks.append(np.ones((k, k)))
    h, mask = direct_sum(*blocks), direct_sum(*masks)
    if draw(st.booleans()):
        noise = mask * gaussian(h.shape)
        asymmetry = noise - noise.conj().T
        eigs = np.linalg.eigvalsh(h)
        tau = DEFAULT_POLICY.scaled_tol(len(eigs), float(np.abs(eigs).max()))
        if np.any(asymmetry):
            h = h + 0.25 * tau * noise / operator_norm(asymmetry)
    perm = rng.permutation(h.shape[0])
    return h[np.ix_(perm, perm)]


@SETTINGS
@given(permuted_direct_sum())
def test_the_component_split_matches_the_dense_solve(m):
    # a permuted direct sum, the input a component split would take, is solved
    # whole in the field as_matrix decides: the complex solve of the
    # symmetrized whole is the oracle
    dense = np.linalg.eigvalsh(((m + m.conj().T) / 2.0).astype(np.complex128))
    assert_within_tau_of_complex_solve(hermitian_spectrum(m), dense)


@st.composite
def permuted_rectangular_sum(draw):
    """A direct sum of rectangular blocks of 1 to 6 rows and 1 to 6 columns, permuted.

    Each block is real or complex at its own scale, 0 included, so zero
    blocks occur; up to three empty rows and three empty columns are added,
    and then as many more of one kind as make the whole square.  The rows
    and the columns are permuted independently.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for a, b in draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                              min_size=1, max_size=6)):
        scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
        block = rng.standard_normal((a, b))
        if not draw(st.booleans()):
            block = block + 1j * rng.standard_normal((a, b))
        blocks.append(scale * block)
    m = direct_sum(*blocks)
    rows = m.shape[0] + draw(st.integers(0, 3))
    cols = m.shape[1] + draw(st.integers(0, 3))
    n = max(rows, cols)
    padded = np.zeros((n, n), dtype=m.dtype)
    padded[: m.shape[0], : m.shape[1]] = m
    return padded[np.ix_(rng.permutation(n), rng.permutation(n))]


@SETTINGS
@given(permuted_rectangular_sum())
def test_the_bipartite_split_matches_the_dense_svd(x):
    # permuting rows and columns keeps the singular values and each
    # component's solve is backward stable; the zeros that rectangular and
    # empty components imply make up the count: the dense complex SVD of the
    # whole is the oracle, within the doubled matrix's tau
    sv = np.linalg.svd(x.astype(np.complex128), compute_uv=False)
    assert_within_tau_of_complex_solve(doubled_spectrum(x), np.concatenate([-sv, sv[::-1]]))
    tau = DEFAULT_POLICY.scaled_tol(2 * x.shape[0], float(sv[0]))
    assert abs(operator_norm(x) - sv[0]) <= tau
    assert abs(min_singular_value(x) - sv[-1]) <= tau


@SETTINGS
@given(st.one_of(real_square(), hermitian(real=True)))
def test_real_doubled_spectrum_and_norms_within_tau_of_the_complex_svd(x):
    sv = np.linalg.svd(x.astype(np.complex128), compute_uv=False)
    assert_within_tau_of_complex_solve(doubled_spectrum(x), np.concatenate([-sv, sv[::-1]]))
    tau = DEFAULT_POLICY.scaled_tol(x.shape[0], float(sv[0]))
    assert abs(operator_norm(x) - sv[0]) <= tau
    assert abs(min_singular_value(x) - sv[-1]) <= tau


@SETTINGS
@given(st.one_of(hermitian(), perturbed()))
def test_is_self_adjoint_matches_norm_test(m):
    assert is_self_adjoint(m) == (operator_norm(m - m.conj().T) <= DEFAULT_POLICY.tau(m))


@SETTINGS
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(2, 5),
    st.integers(0, 2**31 - 1),
    st.floats(0.2, 0.8),
    st.floats(0.0, 1.0),
    st.booleans(),
)
def test_path_guard_reads_shifted_sigma(d, n, samples, seed, gap, frac, sa):
    # step_guard = min_k a_k, with g_k = s_gap(x_k, delta / 2) read from
    # eig(bordered(x, s)) = s + Sigma_x, and tau_k the sample's doubled tau
    delta = frac * gap
    xs = tuple(random_gapped(d, n, gap, self_adjoint=sa, seed=seed + k) for k in range(samples))
    params = tuple(k / (samples - 1) for k in range(samples))
    cert = verify_path(HomotopyPath(xs, params), delta)
    slack = [s_gap(x, delta / 2.0) - x.doubled().tau for x in xs]
    expected = min(a + b for a, b in zip(slack, slack[1:]))
    assert cert.step_guard == pytest.approx(expected, rel=1e-12, abs=1e-14)


GRID = 64  # interior sampling points t = j / GRID per segment


@st.composite
def path_segment(draw):
    """(x0, x1, delta): a random segment, a tight crossing, or a near-singular endpoint.

    A tight crossing moves one singular value linearly from delta/2 + g0 to
    delta/2 - g1, so h = g0 + g1 and Weyl's inequality is attained: the
    bordered matrix is singular at t* = g0 / h, a point of the sampling
    grid.  A near-singular endpoint puts a singular value within tau of
    delta/2, with a step of order tau or none.
    """
    kind = draw(st.sampled_from(["random", "tight", "near"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    delta = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    if kind == "random":  # a shift of 3 keeps Sigma away from delta/2, so more steps pass
        x0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x0 += draw(st.sampled_from([0.0, 3.0])) * np.eye(n)
        step = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x1 = x0 + draw(st.sampled_from([1e-3, 0.1, 0.5, 2.0])) * step
        return x0, x1, delta
    rest = np.full(n - 1, 2.0 * delta + 1.0)  # singular values far from delta/2
    if kind == "tight":
        j = draw(st.integers(1, GRID - 1))
        # delta/2 - g1 stays >= 0; at delta = 0 the value crosses 0 itself
        unit = draw(st.sampled_from([1.0, 0.5, 0.25])) * (delta or 1.0) / (2 * GRID)
        first = (delta / 2.0 + j * unit, delta / 2.0 - (GRID - j) * unit)
        x0, x1 = (np.diag(np.concatenate([[v], rest])).astype(complex) for v in first)
        return x0, x1, delta
    x0 = np.diag(np.concatenate([[delta / 2.0], rest])).astype(complex)
    tau = DEFAULT_POLICY.scaled_tol(2 * n, float(np.abs(np.diag(x0)).max()))
    x0[0, 0] += draw(st.floats(0.0, 1.0)) * tau
    x1 = x0 + draw(st.sampled_from([0.0, 0.01, 0.5])) * tau * rng.standard_normal((n, n))
    return x0, x1, delta


@SETTINGS
@given(path_segment())
def test_step_guard_keeps_every_interior_bordered_matrix_invertible(segment):
    # Weyl: ||bordered(y, delta/2) - bordered(x_k, delta/2)|| = ||y - x_k||, so
    # h < a_0 leaves every point y of the segment a gap above (tau_0 + tau_1)/2
    x0, x1, delta = segment
    xs = (operator_element(x0, self_adjoint=False), operator_element(x1, self_adjoint=False))
    cert = verify_path(HomotopyPath(xs, (0.0, 1.0)), delta)
    if ("step", 0) in cert.violations:
        return  # refused: nothing is claimed about the segment
    tolerance = 0.5 * min(x.doubled().tau for x in xs)
    for j in range(GRID + 1):
        t = j / GRID
        y = operator_element((1.0 - t) * x0 + t * x1, self_adjoint=False)
        assert np.min(np.abs(np.linalg.eigvalsh(bordered(y, delta / 2.0)))) > tolerance


@st.composite
def drawn_path(draw):
    """A random walk of 2 to 6 samples, with steps from far below to far above the guard."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    samples = draw(st.integers(2, 6))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    xs = [x]
    for _ in range(samples - 1):
        step = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        xs.append(xs[-1] + draw(st.sampled_from([1e-3, 0.05, 0.5, 2.0])) * step)
    params = tuple(k / (samples - 1) for k in range(samples))
    path = HomotopyPath(tuple(operator_element(m, self_adjoint=False) for m in xs), params)
    return path, draw(st.sampled_from([0.0, 0.1, 0.5]))


@SETTINGS
@given(drawn_path())
def test_step_report_bounds_every_step_from_above(case):
    # max_step >= max_k ||Delta_k||_2 and step_margins[k] <= a_k - ||Delta_k||_2,
    # with ||.||_2 the SVD; a step violation is exactly a margin <= 0
    path, delta = case
    cert = verify_path(path, delta)
    exact = [
        np.linalg.norm(b.matrix - a.matrix, 2) for a, b in zip(path.samples, path.samples[1:])
    ]
    # a_k from the samples' memoized spectra, as verify_path reads them
    slack = [
        float(np.min(np.abs(delta / 2.0 + sigma_spectrum(x)))) - x.doubled().tau
        for x in path.samples
    ]
    guards = [a + b for a, b in zip(slack, slack[1:])]
    assert cert.max_step >= max(exact)
    assert cert.step_guard == min(guards)
    assert len(cert.step_margins) == len(exact)
    for margin, guard, h in zip(cert.step_margins, guards, exact):
        assert margin <= guard - h
    steps = [("step", k) for k, margin in enumerate(cert.step_margins) if margin <= 0]
    assert [v for v in cert.violations if v[0] == "step"] == steps


@SETTINGS
@given(st.lists(st.one_of(hermitian(), perturbed()), min_size=1, max_size=3), st.booleans())
def test_direct_sum_kernel_matches_the_assembled_sum(blocks, repeat):
    if repeat:
        blocks = blocks + blocks[:1]  # one array twice: solved once, counted twice
    dense = blocks[0]
    for b in blocks[1:]:
        dense = direct_sum(dense, b)
    asym = operator_norm(dense - dense.conj().T)
    assume(abs(asym - DEFAULT_POLICY.tau(dense)) > 1e-9 * DEFAULT_POLICY.tau(dense))
    if not is_self_adjoint(dense):
        with pytest.raises(NotSelfAdjointError):
            hermitian_spectrum(*blocks)
        return
    split = hermitian_spectrum(*blocks)
    oracle = hermitian_spectrum(dense)
    scale = max(float(np.abs(oracle.eigenvalues).max()), 1e-300)
    assert np.max(np.abs(split.eigenvalues - oracle.eigenvalues)) <= 1e-12 * scale
    assert split.tau == pytest.approx(oracle.tau, rel=1e-12, abs=0.0)
    _assert_inertia_away_from_tau(split, oracle)


def _assert_inertia_away_from_tau(split, oracle):
    """Equal inertia unless an eigenvalue lies within the two spectra's disagreement of +-tau.

    Without disagreement (an all-zero spectrum, say: tau = 0 and no slack)
    no eigenvalue is in doubt, and the inertias are compared directly.
    """
    slack = 2.0 * (
        np.max(np.abs(split.eigenvalues - oracle.eigenvalues)) + abs(split.tau - oracle.tau)
    )
    if slack:
        assume(not np.any(np.abs(np.abs(oracle.eigenvalues) - oracle.tau) <= slack))
    assert split.inertia == oracle.inertia


@st.composite
def localizer_input(draw, asymmetry=False):
    """(triple, x, kappa, s): odd or even, at s = 0 or s > 0, with drawn kappa.

    Dirac eigenvalues and element kinds include exact zeros, so singular
    localizers are drawn too.  With ``asymmetry`` the odd Dirac matrix
    (built without ``odd_triple``'s check) or the even element gets a
    round-off-sized or larger non-Hermitian part.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parity = draw(st.sampled_from(["odd", "even"]))
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "zero", "unit"]))
    kappa = draw(st.floats(1e-3, 3.0))
    s = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 2.5]))
    noise = draw(st.sampled_from([1e-17, 1e-15, 1e-13, 1e-8])) if asymmetry else 0.0
    if parity == "odd":
        dirac = np.diag(rng.integers(-2, 3, rows).astype(np.complex128))
        q, _ = np.linalg.qr(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
        dirac = q @ dirac @ q.conj().T
        dirac = (dirac + dirac.conj().T) / 2.0
        dirac = dirac + noise * rng.standard_normal((rows, rows))
        triple = SpectralTriple("odd", dirac)
        dim = rows * n
        if kind == "random":
            matrix = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        else:
            matrix = np.eye(dim) if kind == "unit" else np.zeros((dim, dim))
        return triple, OperatorElement(matrix, n, rows, False), kappa, s
    triple = even_triple(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
    d = 2 * rows
    blocks = np.zeros((n, d, n, d), dtype=np.complex128)
    for sl in (slice(0, rows), slice(rows, d)):
        a = rng.standard_normal((rows * n, rows * n)) + 1j * rng.standard_normal((rows * n, rows * n))
        half = {"random": (a + a.conj().T) / 2.0, "unit": np.eye(rows * n), "zero": 0.0 * a}[kind]
        half = half + noise * rng.standard_normal(half.shape)
        blocks[:, sl, :, sl] = half.reshape(n, rows, n, rows)
    return triple, OperatorElement(blocks.reshape(n * d, n * d), n, d, True), kappa, s


@SETTINGS
@given(localizer_input())
def test_split_localizer_matches_dense_oracle(case):
    triple, x, kappa, s = case
    split = hermitian_spectrum(*localizer_halves(triple, x, kappa, s))
    oracle = hermitian_spectrum(build_generalized(triple, x, kappa, s))
    scale = float(np.abs(oracle.eigenvalues).max())
    assert len(split.eigenvalues) == len(oracle.eigenvalues)
    assert np.max(np.abs(split.eigenvalues - oracle.eigenvalues)) <= 1e-12 * scale
    assert split.tau == pytest.approx(oracle.tau, rel=1e-12, abs=0.0)
    _assert_inertia_away_from_tau(split, oracle)


@SETTINGS
@given(localizer_input(asymmetry=True))
def test_split_localizer_same_adjoint_verdict_as_dense(case):
    triple, x, kappa, s = case
    dense = build_generalized(triple, x, kappa, s)
    tau = DEFAULT_POLICY.tau(dense)
    asym = operator_norm(dense - dense.conj().T)
    assume(abs(asym - tau) > 1e-9 * tau)
    halves = localizer_halves(triple, x, kappa, s)
    if not is_self_adjoint(dense):
        with pytest.raises(NotSelfAdjointError):
            hermitian_spectrum(*halves)
        return
    split = hermitian_spectrum(*halves)
    oracle = hermitian_spectrum(dense)
    scale = float(np.abs(oracle.eigenvalues).max())
    assert np.max(np.abs(split.eigenvalues - oracle.eigenvalues)) <= 1e-12 * scale


@SETTINGS
@given(localizer_input())
def test_localizer_at_s_zero_is_reduced_plus_reduced(case):
    triple, x, kappa, _ = case
    reduced = build_reduced(triple, x, kappa)
    np.testing.assert_array_equal(build_generalized(triple, x, kappa, 0.0), direct_sum(reduced, reduced))
    first, second = localizer_halves(triple, x, kappa, 0.0)
    assert first is second
    np.testing.assert_array_equal(first, reduced)


@st.composite
def odd_diagonal_input(draw):
    """(triple, x, kappa, s): an odd triple whose D0 is a real diagonal, and x.

    D0's entries include 0 and -0.0.  x is real or complex, and monomial (a
    partial permutation), block-sparse (a permuted sum of rectangular blocks
    with empty rows and columns), banded or dense, with entries dropped at
    random.  At s > 0 some diagonal entries are set to -s or s exactly, so
    that x_ii +- s cancels to an exact 0 in one half: no edge there.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    dim = rows * n
    real = draw(st.booleans())

    def gaussian(shape):
        return rng.standard_normal(shape) + (0.0 if real else 1j * rng.standard_normal(shape))

    kind = draw(st.sampled_from(["monomial", "block", "banded", "dense"]))
    if kind == "monomial":
        x = np.zeros((dim, dim), dtype=np.complex128)
        x[np.arange(dim), rng.permutation(dim)] = gaussian(dim)
    elif kind == "block":
        blocks, used = [], np.zeros(2, dtype=int)
        while True:
            shape = rng.integers(1, 4, 2)
            if np.any(used + shape > dim):
                break
            blocks.append(gaussian(tuple(shape)))
            used += shape
        x = np.zeros((dim, dim), dtype=np.complex128)
        if blocks:
            x[: used[0], : used[1]] = direct_sum(*blocks)
        x = x[np.ix_(rng.permutation(dim), rng.permutation(dim))]
    elif kind == "banded":
        offsets = np.subtract.outer(np.arange(dim), np.arange(dim))
        x = gaussian((dim, dim)) * (np.abs(offsets - rng.integers(-1, 2)) <= rng.integers(0, 2))
    else:
        x = gaussian((dim, dim))
    x = x * (rng.random((dim, dim)) < draw(st.sampled_from([1.0, 0.8, 0.5])))
    s = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]))
    if s:
        cancelled = rng.random(dim) < 0.5
        x[cancelled, cancelled] = rng.choice([-s, s], np.count_nonzero(cancelled))
    dirac = np.diag(rng.choice([0.0, -0.0, 0.5, -1.0, 2.0, -3.0], rows))
    kappa = draw(st.floats(1e-3, 3.0))
    return SpectralTriple("odd", dirac), OperatorElement(x, n, rows, False), kappa, s


@settings(max_examples=150, deadline=None)
@given(odd_diagonal_input())
def test_an_odd_localizer_with_a_diagonal_dirac_is_solved_by_x_components(case):
    # the split route gathers each component of x +- s*I straight from x and D0:
    # its eigenvalues lie within tau of the dense solve of the assembled halves,
    # and of R alone for the reduced signature, with the same inertia; the
    # dense L(kappa, s) agrees within tau
    triple, x, kappa, s = case
    assert triple.D0.dtype == np.float64
    pairs = (
        (_localizer_spectrum(triple, x, kappa, s), hermitian_spectrum(*localizer_halves(triple, x, kappa, s))),
        (_localizer_spectrum(triple, x, kappa, None), hermitian_spectrum(build_reduced(triple, x, kappa))),
    )
    for split, dense in pairs:
        assert np.max(np.abs(split.eigenvalues - dense.eigenvalues)) <= dense.tau
        _assert_inertia_away_from_tau(split, dense)
    split = pairs[0][0]
    oracle = np.linalg.eigvalsh(build_generalized(triple, x, kappa, s))
    assert np.max(np.abs(split.eigenvalues - oracle)) <= split.tau


@st.composite
def field_input(draw):
    """(matrix, field): a square matrix and the dtype ``as_matrix`` must give it.

    Drawn real in a real dtype (float64), exactly real in a complex dtype
    (float64), or with one nonzero imaginary entry anywhere, as small as
    1e-300 (complex128).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    real = rng.standard_normal((n, n))
    kind = draw(st.sampled_from(["real", "exactly real", "one imaginary entry"]))
    if kind != "one imaginary entry":
        dtypes = [np.float64, np.float32, np.int64] if kind == "real" else [np.complex128, np.complex64]
        return real.astype(draw(st.sampled_from(dtypes))), np.dtype(np.float64)
    m = real.astype(np.complex128)
    m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += 1j * draw(
        st.sampled_from([1e-300, -1e-300, 1e-8, 1.0])
    )
    return m, np.dtype(np.complex128)


_TINY_OFF_THE_FIRST_COLUMN = np.eye(3, dtype=np.complex128)
_TINY_OFF_THE_FIRST_COLUMN[0, 2] = 1e-300j


@SETTINGS
@given(field_input())
@example((_TINY_OFF_THE_FIRST_COLUMN, np.dtype(np.complex128)))
def test_the_field_is_decided_where_a_matrix_enters(case):
    # as_matrix, and every object that holds a matrix, keep the drawn values
    # in float64 exactly when their imaginary part is zero
    m, field = case
    n = m.shape[0]
    rep = CliffordRep(n, (m, m.T), m, "even")
    held = {
        "as_matrix": as_matrix(m),
        "element": OperatorElement(m, 1, n).matrix,
        "triple": SpectralTriple("even", m).D0,
        "generator": rep.generators[0],
        "grading": rep.grading,
    }
    for name, a in held.items():
        assert a.dtype == field, name
        assert np.array_equal(a, m), name


def _bits(value):
    """value with each array as its dtype, shape and bytes and each float as its hex."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return value.hex() if isinstance(value, float) else value


def _answer(call):
    """``_bits`` of call(), or the type and message of the specloc error it raises."""
    try:
        return _bits(call())
    except SpeclocError as exc:
        return type(exc), str(exc)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 2))
def test_an_exactly_real_complex_element_answers_as_the_real_one_bit_for_bit(seed, rows, n):
    # the certificate and the index report (or the error) of an element built
    # from real.astype(complex128) are those of the float64 element
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((rows * n, rows * n))
    triple = SpectralTriple("odd", np.diag(rng.uniform(-1.0, 1.0, rows)))
    delta = max_delta(OperatorElement(real, n, rows)) / 2.0
    answers = [
        (
            _bits(delta_singular_check(x, delta)),
            _answer(lambda: index(triple, x, delta)),
            _answer(lambda: index(triple, x, delta, kappa=0.5, s=0.0)),
        )
        for x in (OperatorElement(m, n, rows) for m in (real, real.astype(np.complex128)))
    ]
    assert answers[0] == answers[1]


@st.composite
def assembly_input(draw):
    """(triple, x, fields, kappa, s): x and D0 each drawn real or complex, of either parity.

    ``fields`` holds the dtypes of x and D0 that ``as_matrix`` should choose:
    float64 exactly when the imaginary part is zero (a drawn complex Hermitian
    matrix of size 1 is real).  Matrices are drawn complex either way.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real_x, real_d0 = draw(st.booleans()), draw(st.booleans())
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def draw_matrix(size, real, hermitian=False):
        a = rng.standard_normal((size, size))
        if not real:
            a = a + 1j * rng.standard_normal((size, size))
        return (a + a.conj().T) / 2.0 if hermitian else a

    kappa, s = draw(st.floats(1e-3, 3.0)), draw(st.floats(1e-3, 2.5))
    if draw(st.sampled_from(["odd", "even"])) == "odd":
        triple = SpectralTriple("odd", draw_matrix(rows, real_d0, hermitian=True))
        x = OperatorElement(draw_matrix(rows * n, real_x), n, rows, False)
    else:
        triple = even_triple(draw_matrix(rows, real_d0))
        d = 2 * rows
        blocks = np.zeros((n, d, n, d), dtype=np.complex128)
        for sl in (slice(0, rows), slice(rows, d)):
            half = draw_matrix(rows * n, real_x, hermitian=True)
            blocks[:, sl, :, sl] = half.reshape(n, rows, n, rows)
        x = OperatorElement(blocks.reshape(n * d, n * d), n, d, True)
    fields = tuple(np.dtype(np.complex128 if m.imag.any() else np.float64)
                   for m in (x.matrix, triple.D0))
    return triple, x, fields, kappa, s


@SETTINGS
@given(assembly_input())
def test_localizer_parts_are_the_definitions_in_the_input_field(case):
    # x's blocks are the oracle's, in x's field
    triple, x, fields, _, _ = case
    assert (x.matrix.dtype, triple.D0.dtype) == fields
    blocks = _element_blocks(triple, x, DEFAULT_POLICY)
    c, _, _ = localizer_parts(triple, x)
    r = blocks[0].shape[0]
    if triple.parity == "odd":
        assert len(blocks) == 1 and np.array_equal(blocks[0], c[:r, r:])
    else:
        assert np.array_equal(blocks[0], c[:r, :r]) and np.array_equal(-blocks[1], c[r:, r:])
    assert {b.dtype for b in blocks} == {fields[0]}


@SETTINGS
@given(assembly_input())
def test_halves_at_positive_s_are_the_definitions_entry_for_entry(case):
    # C, K and W are never assembled, yet build_reduced is C + kappa*K and each
    # half, L_reduced(x +- s*e), equals C + kappa*K +- s*W entry for entry (a
    # zero's sign aside), at s = 0 and s > 0, complex when either input is
    triple, x, fields, kappa, s = case
    c, k, w = localizer_parts(triple, x)
    field = np.result_type(*fields)
    reduced = build_reduced(triple, x, kappa)
    assert reduced.dtype == field and np.array_equal(reduced, c + kappa * k)
    for shift in (0.0, s):
        plus, minus = localizer_halves(triple, x, kappa, shift)
        assert plus.dtype == minus.dtype == field
        assert np.array_equal(plus, c + kappa * k + shift * w)
        assert np.array_equal(minus, c + kappa * k - shift * w)


@SETTINGS
@given(localizer_input())
def test_unit_localizer_closed_form(case):
    # x = e: eigenvalues +-sqrt((1 +- s)^2 + kappa^2 lambda^2), lambda over the Dirac
    # spectrum (odd) or the singular values of D0, each once per amplification level
    triple, x, kappa, s = case
    e = identity_element(triple.ambient_dim, x.block_size)
    if triple.parity == "odd":
        lam = np.linalg.eigvalsh((triple.D0 + triple.D0.conj().T) / 2.0)
    else:
        lam = np.linalg.svd(triple.D0, compute_uv=False)
    lam = np.tile(lam, x.block_size)
    expected = np.sort(np.concatenate([
        sign * np.sqrt((1.0 + pm * s) ** 2 + kappa**2 * lam**2)
        for sign in (1.0, -1.0) for pm in (1.0, -1.0)
    ]))
    for spectrum in (
        hermitian_spectrum(*localizer_halves(triple, e, kappa, s)),
        hermitian_spectrum(build_generalized(triple, e, kappa, s)),
    ):
        scale = float(np.abs(expected).max())
        assert np.max(np.abs(spectrum.eigenvalues - expected)) <= 1e-12 * scale


@SETTINGS
@given(localizer_input())
def test_square_bound_holds_and_reads_the_split_spectrum(case):
    # L(kappa, s)^2 >= g_loc^2 - kappa * ||[D, x]|| at every (kappa, s)
    triple, x, kappa, s = case
    report = gap_bound_check(triple, x, kappa, s)
    assert report.passed
    oracle = hermitian_spectrum(build_generalized(triple, x, kappa, s)).eigenvalues
    scale = float(np.max(oracle**2))
    assert report.min_eig_sq == pytest.approx(float(np.min(oracle**2)), rel=0.0, abs=1e-12 * scale)


def _gapped_input(draw, rng, delta):
    """(triple, x): a delta-gapped odd element, self-adjoint or not, or an even one."""
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, 2))
    if draw(st.sampled_from(["odd", "even"])) == "odd":
        a = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
        dirac = draw(st.sampled_from([1.0, 3.0])) * (a + a.conj().T) / 2.0
        x = random_gapped(rows, n, delta, self_adjoint=draw(st.booleans()),
                          seed=int(rng.integers(2**31)))
        return SpectralTriple("odd", dirac), x
    d = 2 * rows
    blocks = np.zeros((n, d, n, d), dtype=np.complex128)
    for sl in (slice(0, rows), slice(rows, d)):
        half = random_gapped(rows, n, delta, self_adjoint=True, seed=int(rng.integers(2**31)))
        blocks[:, sl, :, sl] = half.matrix.reshape(n, rows, n, rows)
    d0 = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
    return even_triple(d0), OperatorElement(blocks.reshape(n * d, n * d), n, d, True)


@st.composite
def index_input(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta = draw(st.sampled_from([0.2, 0.5]))
    triple, x = _gapped_input(draw, rng, delta)
    return triple, x, delta * draw(st.sampled_from([0.5, 1.0]))


@SETTINGS
@given(index_input())
def test_default_region_samples_are_the_signatures_of_a_solve(case):
    # each of the five samples, the centre's solved signature, is what a solve
    # of the split localizer at its point reads, and the dense oracle too
    triple, x, delta = case
    try:
        _, report = index(triple, x, delta)
    except NotDivisibleBy4Error:
        return  # an even pairing of signature 2 mod 4: no sample is reported
    assert len(report.samples) == 5
    for s, kappa, sig in report.samples:
        split = hermitian_spectrum(*localizer_halves(triple, x, kappa, s))
        assert split.inertia.n_zero == 0 and split.signature == sig
        assert hermitian_spectrum(build_generalized(triple, x, kappa, s)).signature == sig


@st.composite
def premise_input(draw):
    """(triple, x, delta, kind): a delta-gapped input of one of four kinds.

    "invertible": an unflagged odd element from ``random_gapped``.  "even":
    a flagged even element whose halves, U diag(lambda) U* with a kernel,
    are Hermitian within tau only.  "hermitian": an unflagged odd element
    with a kernel, exactly Hermitian.  "non-normal": a singular, non-normal
    odd element: a circle truncation, ``bilateral_shift_truncation``, or a
    nilpotent weighted shift conjugated by a drawn unitary.  Drawn nonzero
    eigenvalues and weights lie in [1.1 delta, 1 + delta], so each input
    passes its gap certificate, and no draw is discarded.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta = draw(st.sampled_from([0.2, 0.5]))
    kind = draw(st.sampled_from(["invertible", "even", "hermitian", "non-normal"]))
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 2))

    def odd_dirac(size):
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        return SpectralTriple("odd", (a + a.conj().T) / 2.0)

    def unitary(size):
        q, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        return q

    def with_kernel(size):
        lam = rng.choice([-1.0, 1.0], size) * rng.uniform(1.1 * delta, 1.0 + delta, size)
        lam[rng.random(size) < 0.3] = 0.0
        lam[0] = 0.0
        q = unitary(size)
        return (q * lam) @ q.conj().T

    if kind == "invertible":
        x = random_gapped(rows, n, delta, seed=int(rng.integers(2**31)))
        return odd_dirac(rows), x, delta, kind
    if kind == "hermitian":
        h = with_kernel(rows * n)
        return odd_dirac(rows), OperatorElement((h + h.conj().T) / 2.0, n, rows, False), delta, kind
    if kind == "even":
        d = 2 * rows
        blocks = np.zeros((n, d, n, d), dtype=np.complex128)
        for sl in (slice(0, rows), slice(rows, d)):
            blocks[:, sl, :, sl] = with_kernel(rows * n).reshape(n, rows, n, rows)
        d0 = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
        return even_triple(d0), OperatorElement(blocks.reshape(n * d, n * d), n, d, True), delta, kind
    model = draw(st.sampled_from(["circle", "shift", "nilpotent"]))
    if model == "circle":
        N = draw(st.integers(1, 4))
        return circle_dirac(N), circle_unitary_truncation(draw(st.sampled_from([-2, -1, 1, 2])), N), delta, kind
    size = rows + 1
    if model == "shift":
        return odd_dirac(size), bilateral_shift_truncation(size), delta, kind
    weights = rng.uniform(1.1 * delta, 1.0 + delta, size - 1) * np.exp(2j * np.pi * rng.random(size - 1))
    q = unitary(size)
    return odd_dirac(size), OperatorElement(q @ np.diag(weights, k=1) @ q.conj().T, 1, size, False), delta, kind


@SETTINGS
@given(premise_input())
def test_default_region_index_is_proved_by_the_square_bound_or_refused(case):
    # an accepted input's five points satisfy g_loc(s)^2 - kappa*||[D, x]|| > 0
    # and carry the dense signature; only the singular non-normal kind is
    # refused, by the premise and before any solve
    triple, x, delta, kind = case
    try:
        _, report = index(triple, x, delta)
    except NotGappedError as exc:
        assert kind == "non-normal" and "invertible or self-adjoint" in str(exc)
        return
    except NotDivisibleBy4Error:
        # an even pairing 2(sig x_+ - sig x_-) of 2 mod 4, as the dense centre reads it
        region = valid_region(triple, x, delta)
        kappa = 1.0 if region.unbounded else 0.5 * region.kappa_max(delta / 2.0)
        assert kind == "even"
        assert hermitian_spectrum(build_generalized(triple, x, kappa, delta / 2.0)).signature % 4 == 2
        return
    norm = commutator_norm(triple, x)
    for s, kappa, sig in report.samples:
        assert localizer_gap(x, s) ** 2 - kappa * norm > 0
        assert hermitian_spectrum(build_generalized(triple, x, kappa, s)).signature == sig
    assert kind != "non-normal"


@SETTINGS
@given(st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**31 - 1), st.booleans())
def test_reduce_periodic_keeps_max_delta(p, d, seed, singular):
    # y = diag(x, -x) for even p (x self-adjoint) or [[0, x], [x*, 0]] for odd
    # p, an odd self-adjoint element of E (x) CCl_{p+1}; x may have a kernel.
    # Sigma_y is Sigma_x twice, solved from y's blocks x and -x, or x and x*,
    # whose SVDs may differ in the last bit: equal within y's tau
    half = d * 2 ** (p // 2)
    x = np.array(random_gapped(half, 1, 0.3, self_adjoint=p % 2 == 0, seed=seed).matrix)
    if singular:
        x[-1, :], x[:, -1] = 0.0, 0.0
    y = OperatorElement(direct_sum(x, -x) if p % 2 == 0 else doubled_matrix(x), 1, 2 * half, True)
    reduced = reduce_periodic(y, p)
    assert np.array_equal(reduced.matrix, x)
    assert max_delta(reduced) == pytest.approx(max_delta(y), rel=0.0, abs=y.doubled().tau)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1), st.floats(-3.0, 3.0), st.booleans())
def test_bordered_spectrum_is_shifted_sigma(d, n, seed, s, sa):
    # Sigma_x, computed as +-(singular values of x), is the dense spectrum of
    # bordered(x, 0), and eig(bordered(x, s)) = s + Sigma_x
    x = random_gapped(d, n, 0.5, self_adjoint=sa, seed=seed)
    sigma = sigma_spectrum(x)
    np.testing.assert_allclose(sigma, np.linalg.eigvalsh(bordered(x, 0.0)), rtol=0.0, atol=1e-12)
    shifted = hermitian_spectrum(bordered(x, s)).eigenvalues
    np.testing.assert_allclose(shifted, s + sigma, rtol=0.0, atol=1e-12 * max(1.0, abs(s)))


EPS = float(np.finfo(np.float64).eps)
FACTOR = DEFAULT_POLICY.zero_threshold_factor


@st.composite
def self_adjoint_matrix(draw):
    """A Hermitian matrix from ``hermitian()``, ``random_gapped(self_adjoint=True)``,
    or with one eigenvalue planted at a drawn multiple of f * n * eps * ||x||, so
    that it falls below, between or above tau(n) and tau(2n)."""
    kind = draw(st.sampled_from(["hermitian", "gapped", "planted"]))
    if kind == "hermitian":
        return draw(hermitian())
    seed = draw(st.integers(0, 2**31 - 1))
    if kind == "gapped":
        d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return random_gapped(d, n, draw(st.floats(0.1, 0.9)), self_adjoint=True, seed=seed).matrix
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    eigs = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n)
    eigs[0] = draw(st.sampled_from([0.5, 1.5, 2.5, 3.5, 5.0])) * FACTOR * n * EPS * np.abs(eigs).max()
    h = (q * eigs) @ q.conj().T
    return (h + h.conj().T) / 2.0


@st.composite
def certificate_input(draw):
    """(x, flagged): a flagged matrix from ``self_adjoint_matrix()``, possibly plus an
    anti-Hermitian part of norm a drawn multiple of f * n * eps * ||x||; an unflagged
    ``square()`` matrix (non-Hermitian, possibly rank-deficient); or an unflagged one
    with a singular value planted at such a multiple.  The multiples fall below,
    between or above tau(n) and tau(2n)."""
    kind = draw(st.sampled_from(["hermitian", "square", "planted"]))
    if kind == "square":
        return draw(square()), False
    multiple = draw(st.sampled_from([0.0, 0.5, 1.5, 2.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if kind == "planted":
        n = draw(st.integers(2, 8))
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        sv = rng.uniform(0.5, 1.0, n)
        sv[0] = multiple * FACTOR * n * EPS * sv.max()
        return (u * sv) @ v.conj().T, False
    h = draw(self_adjoint_matrix())
    n = h.shape[0]
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = (a - a.conj().T) / 2.0
    return h + (0.5 * multiple * FACTOR * n * EPS * operator_norm(h) / operator_norm(skew)) * skew, True


def _dense_doubled_spectrum(matrix, self_adjoint=False, policy=DEFAULT_POLICY):
    """The oracle for ``linalg.doubled_spectrum``: the dense spectrum of
    bordered(x, 0), and the adjoint rule at its tau written out."""
    spectrum = hermitian_spectrum(bordered(OperatorElement(matrix, 1, matrix.shape[0]), 0.0), policy=policy)
    if self_adjoint and operator_norm(matrix - matrix.conj().T) > spectrum.tau:
        raise NotSelfAdjointError("asymmetry exceeds the doubled matrix's tau")
    return spectrum


def _certify(x, delta):
    try:
        return delta_singular_check(x, delta)
    except NotSelfAdjointError:
        return None


@SETTINGS
@given(certificate_input(), st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, 1.5]))
def test_self_adjoint_certificate_equals_the_bordered_one(case, frac):
    # the certificate (one SVD of x) against the same certificate with Sigma_x
    # from the dense oracle: same spectrum, tau, adjoint test and verdict
    m, flagged = case
    x = OperatorElement(m, 1, m.shape[0], flagged)
    tau = _dense_doubled_spectrum(m).tau
    if flagged:
        # the adjoint test is decided exactly or away from its edge
        asymmetry = operator_norm(m - m.conj().T)
        assume(asymmetry == 0.0 or abs(asymmetry - tau) > 0.1 * tau)
    delta = frac * operator_norm(m)
    cert = _certify(x, delta)
    # a fresh element: x has memoized its doubled spectrum, which the oracle must not reuse
    fresh = OperatorElement(m, 1, m.shape[0], flagged)
    with mock.patch("specloc.gap.doubled_spectrum", side_effect=_dense_doubled_spectrum) as oracle:
        dense = _certify(fresh, delta)
    assert oracle.called
    assert (cert is None) == (dense is None)
    if dense is None:
        return
    atol = 1e-12 * operator_norm(m)
    np.testing.assert_allclose(cert.sigma_x, dense.sigma_x, rtol=0.0, atol=atol)
    # delta_max compares |Sigma_x| with tau, and the verdicts with tau, 2 tau
    # and delta -+ tau: equal unless a magnitude lies within the two
    # spectra's disagreement of an edge
    magnitudes = np.abs(dense.sigma_x)
    slack = 4.0 * float(np.max(np.abs(cert.sigma_x - dense.sigma_x), initial=0.0)) + EPS * tau
    if not np.any(np.abs(magnitudes - tau) <= slack):
        assert cert.delta_max == pytest.approx(dense.delta_max, rel=0.0, abs=atol)
    edges = (tau, 2 * tau, dense.queried_delta - tau, dense.queried_delta + tau)
    assume(not any(np.any(np.abs(magnitudes - edge) <= slack) for edge in edges))
    assert (cert.verdict, cert.marginal) == (dense.verdict, dense.marginal)


def _residual_rule(r, refs):
    """||R||_2 <= f * dim(R) * eps * max(1, max ||A||_2), written out."""
    scale = max([1.0] + [operator_norm(a) for a in refs])
    return operator_norm(r) <= FACTOR * r.shape[0] * EPS * scale


@st.composite
def square(draw):
    """Seeded random square matrix, possibly rank-deficient, at a drawn scale."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1e-2, 1.0, 3.0, 1e4]))
    rank = draw(st.integers(0, n))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    sv = scale * np.concatenate([np.abs(rng.standard_normal(rank)), np.zeros(n - rank)])
    return (u * sv) @ v.conj().T


@st.composite
def residual_case(draw):
    """(R, refs): references of norm below and above 1, and R zero, dense or
    partly zero, at a drawn multiple of the residual threshold."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unit():
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return m / operator_norm(m)

    scale = st.sampled_from([0.0, 1e-6, 1e-2, 0.5, 1.0, 3.0, 1e4])
    scales = draw(st.lists(scale, min_size=1, max_size=2))
    refs = [scale * unit() for scale in scales]
    kind = draw(st.sampled_from(["zero", "dense", "sparse"]))
    if kind == "zero":
        return np.zeros((n, n), dtype=np.complex128), refs
    r = unit()
    if kind == "sparse":
        r = r * (rng.random((n, n)) < 0.5)
        r[rng.integers(n), rng.integers(n)] = 1.0
    ratio = draw(st.sampled_from([1e-3, 0.5, 0.9, 1.1, 2.0, 1e3]))
    threshold = FACTOR * n * EPS * max([1.0] + [operator_norm(a) for a in refs])
    return ratio * threshold * r / operator_norm(r), refs


@st.composite
def near_singular(draw):
    """Square matrix with sigma_min planted at a drawn multiple of tau(n) = f * n * eps *
    sigma_max: below tau(n), between tau(n) and the doubled matrix's tau(2n), or above."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    sv = scale * rng.uniform(0.5, 1.0, n)
    sv[-1] = draw(st.sampled_from([0.0, 0.5, 1.5, 2.5, 4.0])) * FACTOR * n * EPS * sv[:-1].max()
    return (u * sv) @ v.conj().T


@SETTINGS
@given(st.one_of(square(), near_singular()))
def test_is_singular_is_min_singular_value_against_tau(m):
    # sigma_min against the doubled matrix's tau: the delta = 0 certificate's rule
    x = operator_element(m, self_adjoint=False)
    assert is_singular(m) == (not delta_singular_check(x, 0.0).verdict)


@SETTINGS
@given(near_singular())
def test_a_contraction_path_passes_its_delta_zero_certificate(m):
    try:
        path = contract_invertible(operator_element(m, self_adjoint=False))
    except (NotInvertibleError, NoGapFoundError):
        return
    assert not [v for v in verify_path(path, 0.0).violations if v[0] == "gap"]


@SETTINGS
@given(residual_case())
def test_residual_ok_is_the_floored_norm_test(case):
    r, refs = case
    assert residual_ok(r, *refs) == _residual_rule(r, refs)
    if not np.any(r):
        assert residual_ok(r, *refs)


@SETTINGS
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.0, 1e-17, 1e-15, 1e-13, 1e-3]),
)
def test_even_grading_residual_is_the_commutator(h, n, seed, noise):
    # the residual of the even grading test is gamma x - x gamma, bit for bit
    import specloc.localizer as loc

    rng = np.random.default_rng(seed)
    triple = even_triple(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))
    dim = 2 * h * n
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mask = np.kron(np.ones((n, n)), np.kron(np.eye(2), np.ones((h, h))))
    off = rng.standard_normal((dim, dim)) * (1 - mask)
    m = (a + a.conj().T) * mask + noise * (off + off.T)
    x = OperatorElement(m, n, 2 * h, True)
    residuals = []
    original = loc.residual_ok

    def recording(r, *refs, policy):
        residuals.append(r)
        return original(r, *refs, policy=policy)

    with mock.patch.object(loc, "residual_ok", recording):
        try:
            build_reduced(triple, x, 0.5)
            commutes = True
        except ModeMismatchError:
            commutes = False
    gamma = np.kron(np.eye(n), np.diag([1.0] * h + [-1.0] * h))
    commutator = gamma @ x.matrix - x.matrix @ gamma
    np.testing.assert_array_equal(residuals[0], commutator)
    assert commutes == (not np.any(commutator) or _residual_rule(commutator, [x.matrix]))


@st.composite
def clifford_models(draw):
    """``clifford_rep(p)`` for p <= 10: as built, rotated, or with one entry perturbed.

    A rotation by a drawn orthogonal or unitary q makes every generator
    dense.  A perturbation scales one nonzero entry of one generator or of
    the grading by 1 + eps, with eps from 2^-52 (the smallest step that
    moves 1.0) to 1e-6: the model stays a phase permutation, and some
    relation residual is no longer zero.
    """
    rep = clifford_rep(draw(st.integers(1, 10)))
    ops = [*rep.generators, rep.grading]
    kind = draw(st.sampled_from(["built", "rotated", "perturbed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "rotated":
        a = rng.standard_normal((rep.rep_dim, rep.rep_dim))
        if draw(st.booleans()):
            a = a + 1j * rng.standard_normal(a.shape)
        q, _ = np.linalg.qr(a)
        ops = [q @ m @ q.conj().T for m in ops]
    elif kind == "perturbed":
        k = draw(st.integers(0, len(ops) - 1))
        row = draw(st.integers(0, rep.rep_dim - 1))
        eps = draw(st.sampled_from([2.0**-52, 1e-15, 1e-12, 1e-9, 1e-6]))
        ops[k] = np.array(ops[k])
        ops[k][row, np.flatnonzero(ops[k][row])[0]] *= 1 + eps
    return CliffordRep(rep.rep_dim, ops[:-1], ops[-1], rep.parity)


@SETTINGS
@given(clifford_models())
def test_relation_residuals_are_the_dense_ones(rep):
    # exact first must not move a number: 0.0 exactly where the dense products cancel
    assert relation_residuals(rep) == relation_residual(rep)
