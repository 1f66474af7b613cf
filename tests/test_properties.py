"""Property tests: the Hermitian spectral kernel against the dense oracle.

The oracle is ``np.linalg.eigvalsh`` of the symmetrized matrix, with the
zero threshold ``TolerancePolicy.tau`` (an SVD-based operator norm).  The
kernels solve an exactly real matrix in real arithmetic: the exact tests
call the oracle in the same arithmetic (``as_solved``), and drawn real
symmetric and real square matrices are checked within tau of a complex
solve (``eigvalsh`` and ``svd`` of the matrix cast to complex).  The
localizer's parts C and K, assembled in the field of the input, and its
halves C + kappa*K +- s*W are checked entry for entry against the dense
complex definitions of ``tests/oracles.py``.  The split localizer (two
half-size blocks, one at s = 0) is checked against the dense
``build_generalized`` assembly of the same module, and the
gap certificate (one SVD of x) against the dense spectrum of
``bordered(x, 0)``.  ``is_singular`` is checked against the delta = 0
certificate, and ``residual_ok`` against its rule written out by hand.
The path certificate's per-segment step guard is checked against dense
sampling of ``bordered(y, delta/2)`` along drawn segments, and its step
report against the SVD norm of each step.  Default-region ``index``'s spoke
guard is checked the same way, against dense sampling of the assembled
localizer along drawn spokes, and its samples against a solve of each point.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specloc import (
    DEFAULT_POLICY,
    HomotopyPath,
    OperatorElement,
    SpectralTriple,
    bordered,
    build_reduced,
    contract_invertible,
    delta_singular_check,
    direct_sum,
    even_triple,
    gap_bound_check,
    hermitian_spectrum,
    identity_element,
    index,
    is_self_adjoint,
    is_singular,
    localizer_halves,
    min_singular_value,
    operator_element,
    operator_norm,
    random_gapped,
    residual_ok,
    sigma_spectrum,
    verify_path,
)
from specloc.errors import (
    InconsistentSignatureError,
    ModeMismatchError,
    NoGapFoundError,
    NotDivisibleBy4Error,
    NotInvertibleError,
    NotSelfAdjointError,
)
from specloc.linalg import doubled_spectrum
from specloc.localizer import _reduced_parts, _spoke_guard

from oracles import build_generalized, localizer_parts, s_gap

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
    """Equal inertia unless an eigenvalue lies within the two spectra's disagreement of +-tau."""
    slack = 2.0 * (
        np.max(np.abs(split.eigenvalues - oracle.eigenvalues)) + abs(split.tau - oracle.tau)
    )
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
def assembly_input(draw):
    """(triple, x, field, kappa, s): x and D0 each drawn real or complex, of either parity.

    ``field`` is the dtype the localizer is assembled in: float64 exactly
    when the imaginary parts of both are zero (a drawn complex Hermitian
    matrix of size 1 is real).  Matrices are stored complex either way.
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
    real = not (x.matrix.imag.any() or triple.D0.imag.any())
    return triple, x, np.dtype(np.float64 if real else np.complex128), kappa, s


@SETTINGS
@given(assembly_input())
def test_localizer_parts_are_the_definitions_in_the_input_field(case):
    # C and K equal the dense complex definitions of the oracle, in float64
    # exactly when x and D0 are both real
    triple, x, field, _, _ = case
    c, k = _reduced_parts(triple, x, DEFAULT_POLICY)
    oracle_c, oracle_k, _ = localizer_parts(triple, x)
    assert c.dtype == k.dtype == field
    assert np.array_equal(c, oracle_c) and np.array_equal(k, oracle_k)


@SETTINGS
@given(assembly_input())
def test_halves_at_positive_s_are_the_definitions_entry_for_entry(case):
    # W is never assembled, yet each half is C + kappa*K +- s*W to the last bit
    triple, x, field, kappa, s = case
    c, k, w = localizer_parts(triple, x)
    plus, minus = localizer_halves(triple, x, kappa, s)
    assert plus.dtype == minus.dtype == field
    assert np.array_equal(plus, c + kappa * k + s * w)
    assert np.array_equal(minus, c + kappa * k - s * w)


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
def spoke(draw):
    """(triple, x, centre, corner): an element and a segment of the (s, kappa) plane.

    "random": a gapped odd or even element, with both ends drawn in a box that
    covers the constancy region and reaches past it.  "tight": the unit
    element over a Dirac block with a zero eigenvalue (odd) or a zero
    singular value (even), so one eigenvalue pair of the minus half is
    +-(1 - s), and a spoke in s alone moves it at the rate Weyl allows.  The
    corner stops a drawn multiple of the centre's tau* short of s = 1, or it
    passes s = 1 at a point of the sampling grid, before twice the centre's
    smallest |eigenvalue| 1 - s*.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["random", "tight"])) == "random":
        triple, x = _gapped_input(draw, rng, draw(st.sampled_from([0.2, 0.5])))
        centre, corner = (
            (draw(st.floats(0.0, 1.0)), draw(st.floats(1e-3, 2.0))) for _ in range(2)
        )
        return triple, x, centre, corner
    rows = draw(st.integers(1, 3))
    lam = np.concatenate([[0.0], rng.integers(-2, 3, rows - 1)])
    if draw(st.sampled_from(["odd", "even"])) == "odd":
        triple = SpectralTriple("odd", np.diag(lam).astype(np.complex128))
    else:
        q, _ = np.linalg.qr(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
        triple = even_triple(q @ np.diag(lam))
    x = identity_element(triple.ambient_dim, draw(st.integers(1, 2)))
    s0, kappa = draw(st.sampled_from([0.25, 0.5, 0.75])), draw(st.floats(1e-2, 2.0))
    if draw(st.booleans()):
        tau = hermitian_spectrum(*localizer_halves(triple, x, kappa, s0)).tau
        s1 = 1.0 - draw(st.sampled_from([0.5, 1.5, 3.0])) * tau
    else:
        s1 = s0 + GRID / draw(st.integers(GRID // 2 + 1, GRID - 1)) * (1.0 - s0)
    return triple, x, (s0, kappa), (s1, kappa)


@SETTINGS
@given(spoke())
def test_a_certified_spoke_keeps_the_centre_signature_at_every_point(case):
    # Weyl: the guard leaves every point of the spoke, corner included, with
    # the centre's signature and no eigenvalue within the centre's tau* of 0
    triple, x, centre, corner = case
    c, k = _reduced_parts(triple, x, DEFAULT_POLICY)
    spectrum = hermitian_spectrum(*localizer_halves(triple, x, centre[1], centre[0]))
    if spectrum.inertia.n_zero > 0:
        return  # a singular centre is refused before any corner
    if not _spoke_guard(c, k, triple.D0, centre, spectrum)(corner):
        return  # out of reach: the corner is solved
    for j in range(1, GRID + 1):
        t = j / GRID
        s, kappa = ((1.0 - t) * a + t * b for a, b in zip(centre, corner))
        dense = hermitian_spectrum(build_generalized(triple, x, kappa, s))
        assert dense.signature == spectrum.signature
        assert np.min(np.abs(dense.eigenvalues)) > spectrum.tau


@st.composite
def index_input(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta = draw(st.sampled_from([0.2, 0.5]))
    triple, x = _gapped_input(draw, rng, delta)
    return triple, x, delta * draw(st.sampled_from([0.5, 1.0]))


@SETTINGS
@given(index_input())
def test_default_region_samples_are_the_signatures_of_a_solve(case):
    # each of the five samples, certified from the centre or solved, is what a
    # solve of the split localizer at its point reads, and the dense oracle too
    triple, x, delta = case
    try:
        _, report = index(triple, x, delta)
    except (InconsistentSignatureError, NotDivisibleBy4Error):
        return  # the solved corners disagree: no sample is reported
    assert len(report.samples) == 5
    for s, kappa, sig in report.samples:
        split = hermitian_spectrum(*localizer_halves(triple, x, kappa, s))
        assert split.inertia.n_zero == 0 and split.signature == sig
        assert hermitian_spectrum(build_generalized(triple, x, kappa, s)).signature == sig


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
