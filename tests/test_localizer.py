import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from specloc import (
    SpectralTriple,
    build_reduced,
    circle_dirac,
    circle_unitary_truncation,
    commutator_norm,
    even_triple,
    hermitian_spectrum,
    identity_element,
    index,
    localizer_halves,
    odd_triple,
    operator_element,
    random_gapped,
    valid_region,
    winding_demo,
)
from specloc import localizer
from specloc.errors import (
    DimensionMismatchError,
    ModeMismatchError,
    NonFiniteError,
    NotGappedError,
    NotSelfAdjointError,
    SingularLocalizerError,
)
from specloc.linalg import DEFAULT_POLICY, min_singular_value

from oracles import build_generalized, gap_bound_check, localizer_gap, s_gap


def signature_of(matrix):
    return hermitian_spectrum(matrix).signature


def unit_spectrum(dirac_eigs, kappa, s):
    vals = [
        sign * np.sqrt((1 + pm * s) ** 2 + kappa**2 * lam**2)
        for lam in dirac_eigs
        for sign in (1, -1)
        for pm in (1, -1)
    ]
    return np.sort(vals)


def test_triples_compare_by_value():
    t, u = circle_dirac(2), circle_dirac(2)
    assert t == u and hash(t) == hash(u) and len({t, u}) == 1
    assert t != circle_dirac(3)
    assert t != SpectralTriple("even", t.D0)
    assert t != SpectralTriple("odd", -t.D0) and t.__eq__(t.D0) is NotImplemented
    zero = SpectralTriple("odd", np.zeros((2, 2)))
    negative_zero = SpectralTriple("odd", -np.zeros((2, 2)))
    assert zero == negative_zero and hash(zero) == hash(negative_zero)


def test_odd_triple_requires_self_adjoint():
    with pytest.raises(NotSelfAdjointError):
        odd_triple(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_triple_needs_a_parity_and_a_square_dirac_block():
    with pytest.raises(ValueError, match="parity"):
        SpectralTriple("graded", np.eye(2))
    with pytest.raises(DimensionMismatchError):
        SpectralTriple("even", np.zeros((2, 3)))
    # an empty block has no level for any element: refused where it enters
    for triple in (lambda d: SpectralTriple("odd", d), lambda d: SpectralTriple("even", d),
                   odd_triple, even_triple):
        with pytest.raises(DimensionMismatchError, match="empty"):
            triple(np.zeros((0, 0)))


def test_commutator_norm_unit_and_circle():
    triple = circle_dirac(3)
    assert commutator_norm(triple, identity_element(7)) == pytest.approx(0.0, abs=1e-14)
    assert commutator_norm(triple, circle_unitary_truncation(1, 3)) == pytest.approx(1.0)
    assert commutator_norm(triple, circle_unitary_truncation(2, 3)) == pytest.approx(2.0)


def test_generalized_unit_spectrum():
    triple = circle_dirac(2)
    e = identity_element(5)
    for kappa, s in [(0.5, 0.3), (1.0, 0.0), (0.2, 0.7)]:
        loc = build_generalized(triple, e, kappa, s)
        np.testing.assert_allclose(
            hermitian_spectrum(loc).eigenvalues,
            unit_spectrum(np.arange(-2, 3), kappa, s),
            atol=1e-12,
        )
        assert signature_of(loc) == 0


def test_localizer_point_needs_positive_kappa_and_finite_nonnegative_s():
    triple, e = circle_dirac(2), identity_element(5)
    for kappa, s in [(0.0, 0.3), (-1.0, 0.3), (0.5, -0.1), (0.5, np.inf), (np.inf, 0.3)]:
        with pytest.raises(ValueError):
            localizer_halves(triple, e, kappa, s)
    # every route checks the point where it assembles: no localizer is built at a
    # bad kappa, and kappa = inf raises before any inf * 0 is formed
    triple, x = circle_dirac(3), circle_unitary_truncation(1, 3)
    for kappa in (-1.0, 0.0, np.inf, np.nan, 1e308):
        routes = (
            lambda: build_reduced(triple, x, kappa),
            lambda: index(triple, x, 1.0, kappa=kappa),
            lambda: winding_demo(1, 3, kappa=kappa),
        )
        for route in routes:
            with pytest.raises(ValueError, match="kappa"):
                route()


def test_every_route_checks_the_point_before_the_element():
    # one order on every route: the points, then x, then the shift; an even
    # triple with an element not flagged self-adjoint at kappa = -1 is a bad point
    triple = even_triple(np.ones((1, 1)))
    x = operator_element(np.diag([0.5, -0.5]), self_adjoint=False)
    routes = (
        lambda: build_reduced(triple, x, -1.0),
        lambda: localizer_halves(triple, x, -1.0, 0.3),
        lambda: localizer._localizer_spectrum(triple, x, -1.0, 0.3),
        lambda: localizer._localizer_spectrum(triple, x, -1.0, None),
        lambda: index(triple, x, 0.5, kappa=-1.0, s=0.3),
    )
    for route in routes:
        with pytest.raises(ValueError, match="kappa must be finite and positive"):
            route()
    with pytest.raises(ModeMismatchError):
        localizer_halves(triple, x, 1.0, 0.3)


def test_a_kappa_whose_product_with_D0_overflows_is_refused_before_any_product():
    # 1e308 is finite, but 1e308 * 3 is not: every route refuses the point
    # before kappa*D0 is formed, so nothing warns on the way, on the split
    # route (circle) and on the dense one (a complex D0, read part by part)
    circle, x = circle_dirac(3), circle_unitary_truncation(1, 3)
    dense = odd_triple(np.array([[0.0, 1e300j], [-1e300j, 0.0]]))
    unit = identity_element(2)
    routes = (
        lambda: build_reduced(circle, x, 1e308),
        lambda: localizer_halves(circle, x, 1e308, 0.3),
        lambda: index(circle, x, 1.0, kappa=1e308),
        lambda: index(circle, x, 1.0, kappa=1e308, s=0.3),
        lambda: winding_demo(1, 3, kappa=1e308),
        lambda: winding_demo(1, 3, kappa=1e308, s=0.3),
        lambda: index(dense, unit, 0.5, kappa=1e10),
        lambda: build_reduced(dense, unit, 1e10),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in routes:
            with pytest.raises(ValueError, match=r"kappa \* D0 overflows"):
                route()
        # finite products near the limit pass the check and reach the solve
        for triple, element, kappa in ((circle, x, 5e307), (dense, unit, 1e8)):
            spectrum = hermitian_spectrum(build_reduced(triple, element, kappa))
            assert np.all(np.isfinite(spectrum.eigenvalues))


def test_a_shift_that_overflows_the_diagonal_is_non_finite_without_a_warning():
    # x_ii + s overflows: every route checks x's diagonal with the point, before
    # any half is formed: the odd split, whether the pattern splits (diagonal x)
    # or is connected (dense x), the dense odd route of a non-diagonal D0, and
    # the even route
    diagonal = odd_triple(np.diag([1.0, -1.0]))
    swap = odd_triple(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cases = (
        (diagonal, np.diag([1e308, 1.0])),
        (diagonal, np.array([[1e308, 1.0], [1.0, 1.0]])),
        (swap, np.diag([1e308, 1.0])),
        (even_triple(np.ones((1, 1))), np.diag([1.5e308, -1.5e308])),
    )
    for triple, matrix in cases:
        x = operator_element(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (
                lambda: index(triple, x, 0.5, kappa=0.1, s=1e308),
                lambda: localizer._localizer_spectrum(triple, x, 0.1, 1e308),
                lambda: localizer_halves(triple, x, 0.1, 1e308),
            ):
                with pytest.raises(NonFiniteError):
                    route()


def test_the_circle_localizer_is_solved_by_its_2x2_components_with_no_dense_half(
    monkeypatch, solve_inputs
):
    # at s = 0 each half is a permuted direct sum of 2x2 blocks [[kappa d_i, 1],
    # [1, -kappa d_j]] and 1x1 blocks read without a solve: one stacked eigvalsh
    # of the 2x2 blocks, and no half is assembled
    monkeypatch.setattr(localizer, "_half", lambda *args: pytest.fail("assembled"))
    for m, N in ((2, 25), (-3, 50), (1, 3)):
        solve_inputs.clear()
        idx, report = index(circle_dirac(N), circle_unitary_truncation(m, N), 1.0, kappa=0.1, s=0.0)
        eigensolves = [a.shape for name, a in solve_inputs if name == "eigvalsh"]
        assert eigensolves == [(2 * N + 1 - abs(m), 2, 2)]
        assert (idx, report.inertia.n_zero) == (m, 0)


def test_a_connected_odd_half_is_assembled_once_and_solved_whole(monkeypatch, solve_inputs):
    # a dense x (decided by its first row and column) and the banded circle at
    # s > 0 (decided by labelling x's pattern) are connected: each half is
    # assembled once and reaches eigvalsh whole, as the dense route solves it
    rng = np.random.default_rng(3)
    dense = (odd_triple(np.diag(rng.uniform(-2.0, 2.0, 4))), random_gapped(4, 1, 0.5, seed=6))
    banded = (circle_dirac(25), circle_unitary_truncation(1, 25))
    cases = [(dense, 0.0, 1), (dense, 0.3, 2), (banded, 0.3, 2)]
    expected = [hermitian_spectrum(*localizer_halves(*case, 0.1, s)) for case, s, _ in cases]
    assembled = []
    half = localizer._half
    monkeypatch.setattr(localizer, "_half", lambda *args: assembled.append(half(*args)) or assembled[-1])
    for ((triple, x), s, halves), dense_route in zip(cases, expected):
        assembled.clear()
        solve_inputs.clear()
        spectrum = localizer._localizer_spectrum(triple, x, 0.1, s)
        solved = [a for name, a in solve_inputs if name == "eigvalsh"]
        assert len(assembled) == len(solved) == halves
        assert all(a is b for a, b in zip(solved, assembled))
        assert spectrum.eigenvalues.tobytes() == dense_route.eigenvalues.tobytes()


def test_generalized_reduces_at_s_zero():
    # L(kappa, 0) is exactly L_reduced (+) L_reduced
    triple = circle_dirac(2)
    x = circle_unitary_truncation(1, 2)
    loc = build_generalized(triple, x, 0.4, 0.0)
    red = build_reduced(triple, x, 0.4)
    half = red.shape[0]
    np.testing.assert_allclose(loc[:half, :half], red)
    np.testing.assert_allclose(loc[half:, half:], red)
    np.testing.assert_allclose(loc[:half, half:], np.zeros_like(red))


def test_reduced_circle_signatures():
    triple = circle_dirac(3)
    red1 = build_reduced(triple, circle_unitary_truncation(1, 3), 1.0)
    assert signature_of(red1) == 2
    red2 = build_reduced(triple, circle_unitary_truncation(2, 3), 0.1)
    assert signature_of(red2) == 4


def test_generalized_vs_reduced_spectrum_at_s0():
    rng = np.random.default_rng(0)
    triple = odd_triple(np.diag(rng.uniform(-2, 2, 5)))
    x = random_gapped(5, 1, 0.4, seed=1)
    loc = build_generalized(triple, x, 0.2, 0.0)
    red = build_reduced(triple, x, 0.2)
    np.testing.assert_allclose(
        hermitian_spectrum(loc).eigenvalues,
        np.sort(np.concatenate([hermitian_spectrum(red).eigenvalues] * 2)),
        atol=1e-12,
    )


def test_signature_additivity():
    triple = circle_dirac(3)
    x1 = circle_unitary_truncation(1, 3)
    x2 = circle_unitary_truncation(2, 3)
    both = operator_element(
        np.block(
            [
                [x1.matrix, np.zeros((7, 7))],
                [np.zeros((7, 7)), x2.matrix],
            ]
        ),
        block_size=2,
    )
    sig_both = signature_of(build_generalized(triple, both, 0.1, 0.0))
    sig1 = signature_of(build_generalized(triple, x1, 0.1, 0.0))
    sig2 = signature_of(build_generalized(triple, x2, 0.1, 0.0))
    assert sig_both == sig1 + sig2 == 12


def test_valid_region_circle():
    triple = circle_dirac(3)
    x = circle_unitary_truncation(1, 3)
    region = valid_region(triple, x, 1.0)
    assert region.kappa_max(0.5) == pytest.approx(0.25)
    assert region.kappa_max(0.05) < region.kappa_max(0.5)
    assert region.kappa_max(0.95) < region.kappa_max(0.5)
    assert not region.unbounded
    # outside 0 < s < delta there is no certified kappa
    assert region.kappa_max(0.0) == region.kappa_max(1.0) == region.kappa_max(-0.1) == 0.0


def test_valid_region_unit_unbounded():
    triple = circle_dirac(2)
    region = valid_region(triple, identity_element(5), 0.8)
    assert region.unbounded
    assert region.kappa_max(0.4) == np.inf
    assert region.kappa_max(0.8) == 0.0


def test_valid_region_rejects_ungapped():
    # index at an explicit kappa reads no region and raises the same errors
    triple, x = circle_dirac(3), circle_unitary_truncation(1, 3)
    with pytest.raises(NotGappedError):
        valid_region(triple, x, 1.5)
    with pytest.raises(NotGappedError):
        index(triple, x, 1.2, kappa=0.1, s=0.0)
    for delta in (0.0, -1.0):
        with pytest.raises(ValueError, match="delta"):
            valid_region(triple, x, delta)
        with pytest.raises(ValueError, match="delta"):
            index(triple, x, delta, kappa=0.1)


def test_gap_bound_unit_and_circle():
    triple = circle_dirac(3)
    assert gap_bound_check(triple, identity_element(7), 0.5, 0.3).passed
    report = gap_bound_check(triple, circle_unitary_truncation(1, 3), 0.1, 0.5)
    assert report.passed
    assert report.min_eig_sq >= report.bound - 1e-12


@pytest.mark.parametrize("seed", [3, 4])
def test_gap_bound_sweep(seed):
    rng = np.random.default_rng(seed)
    triple = odd_triple(np.diag(rng.uniform(-2, 2, 4)))
    x = random_gapped(4, 1, 0.5, self_adjoint=bool(seed % 2), seed=seed)
    region = valid_region(triple, x, 0.5)
    for s in np.linspace(0.1, 0.9, 5) * 0.5:
        for frac in np.linspace(0.15, 0.75, 5):
            assert gap_bound_check(triple, x, frac * region.kappa_max(s), s).passed


def test_localizer_gap_matches_s_gap_for_self_adjoint():
    x = random_gapped(5, 1, 0.4, self_adjoint=True, seed=9)
    for s in (0.1, 0.2, 0.3):
        assert localizer_gap(x, s) == pytest.approx(s_gap(x, s), abs=1e-12)


def test_localizer_gap_takes_one_svd_at_s_zero(solve_counts):
    # at s = 0 it is min|Sigma_x|, from the element's memoized certificate;
    # at s > 0 a non-self-adjoint x takes one SVD of each of x -+ s*e
    x = random_gapped(4, 1, 0.4, seed=5)
    solve_counts.clear()
    g = localizer_gap(x, 0.0)
    assert localizer_gap(x, 0.0) == g and solve_counts["svd"] == 1
    assert g == min_singular_value(x.matrix)
    solve_counts.clear()
    localizer_gap(x, 0.2)
    assert solve_counts["svd"] == 2


def test_circle_localizer_is_assembled_in_real_arithmetic():
    # the circle's D0 and x are exactly real: so are the reduced localizer and both halves
    triple, x = circle_dirac(5), circle_unitary_truncation(2, 5)
    assert build_reduced(triple, x, 0.1).dtype == np.float64
    for half in localizer_halves(triple, x, 0.1, 0.3):
        assert half.dtype == np.float64
    # a complex x makes every half complex while D0 stays real
    phased = operator_element(x.matrix * np.exp(1e-3j), self_adjoint=False)
    assert phased.matrix.dtype == np.complex128 and triple.D0.dtype == np.float64
    assert build_reduced(triple, phased, 0.1).dtype == np.complex128
    for half in localizer_halves(triple, phased, 0.1, 0.3):
        assert half.dtype == np.complex128


def test_index_assembles_each_half_once_in_one_array():
    # at N = 100 one half is 402 x 402 float64; index holds no C, K, C + kappa*K
    # or shifted copy beside the halves: below two halves at s = 0 (one distinct
    # half) and below three at s > 0 (two)
    triple, x = circle_dirac(100), circle_unitary_truncation(2, 100)
    half = 402 * 402 * 8
    for s, limit in ((0.0, 2), (0.3, 3)):
        index(triple, x, 1.0, kappa=0.1, s=s)  # first-call allocations are not the assembly's
        tracemalloc.start()
        try:
            index(triple, x, 1.0, kappa=0.1, s=s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * half, (s, peak / half)


def test_valid_region_takes_the_svd_of_D0_only_when_its_bound_cannot_decide(solve_inputs):
    # [D, x] = 0 exactly for x = e: the Hoelder bound of ||D0|| finds it
    # negligible, and the verdict "unbounded" is confirmed by the SVD of D0.
    # D0 is dense, so that the SVD of its norm is D0 itself; a diagonal D0
    # would be solved entry by entry
    g = np.random.default_rng(3).standard_normal((7, 7))
    triple = odd_triple(g + g.T)
    d0 = triple.D0
    assert valid_region(triple, identity_element(7), 1.0).unbounded
    svd_inputs = [a for name, a in solve_inputs if name == "svd"]
    assert len(svd_inputs) == 2  # the certificate of e, then D0
    np.testing.assert_array_equal(svd_inputs[1], d0)
    # the winding truncation's [D, x] is not negligible at the bound: no SVD of D0
    solve_inputs.clear()
    assert not valid_region(triple, circle_unitary_truncation(1, 3), 1.0).unbounded
    assert not any(a.shape == d0.shape and np.array_equal(a, d0) for _, a in solve_inputs)


def test_gap_bound_check_reads_a_self_adjoint_gap_from_the_certificate(solve_counts):
    # one SVD for ||[D, x]||, and one for Sigma_x until the element is certified
    rng = np.random.default_rng(12)
    triple = odd_triple(np.diag(rng.uniform(-2, 2, 4)))
    x = random_gapped(4, 1, 0.4, self_adjoint=True)
    solve_counts.clear()
    report = gap_bound_check(triple, x, 0.01, 0.2)
    assert report.passed and solve_counts["svd"] == 2
    solve_counts.clear()
    assert gap_bound_check(triple, x, 0.01, 0.2) == report
    assert solve_counts["svd"] == 1
    g = localizer_gap(x, 0.2)
    assert g == pytest.approx(s_gap(x, 0.2), abs=1e-12)
    assert report.bound == g * g - 0.01 * commutator_norm(triple, x)


def test_default_region_index_takes_two_svds_for_a_non_self_adjoint_element(solve_inputs):
    # one SVD of x for its certificate and one of [D, x] to place the region;
    # no SVD of x -+ s*e at s* > 0, and none of D0, whose Hoelder bound decides.
    # [D, x] has a zero diagonal, yet its pattern is connected: one whole SVD
    rng = np.random.default_rng(12)
    triple = odd_triple(np.diag(rng.uniform(-2, 2, 4)))
    for seed in range(4):
        x = random_gapped(4, 1, 0.4, seed=seed)
        solve_inputs.clear()
        _, report = index(triple, x, 0.4)
        assert not x.self_adjoint and report.s > 0
        svd_inputs = [a for name, a in solve_inputs if name == "svd"]
        assert len(svd_inputs) == 2
        np.testing.assert_array_equal(svd_inputs[0], x.matrix)
        d = triple.D0
        np.testing.assert_allclose(svd_inputs[1], d @ x.matrix - x.matrix @ d, atol=1e-14)


def test_index_at_an_explicit_s_reads_kappa_star_from_the_region():
    # s alone: one sample at (s, kappa*), kappa* = kappa_max(delta/2) / 2
    rng = np.random.default_rng(12)
    triple = odd_triple(np.diag(rng.uniform(-2, 2, 4)))
    x = random_gapped(4, 1, 0.4, seed=1)
    _, report = index(triple, x, 0.4, s=0.3)
    kappa_star = 0.5 * valid_region(triple, x, 0.4).kappa_max(0.2)
    assert (report.s, report.kappa) == (0.3, kappa_star)
    assert report.samples == ((0.3, kappa_star, report.signature),)


def test_localizer_reports_compare_and_hash_by_value():
    args = (circle_dirac(3), circle_unitary_truncation(2, 3), 1.0)
    _, a = index(*args, kappa=0.1, s=0.0)
    _, b = index(*args, kappa=0.1, s=0.0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    _, c = index(*args, kappa=0.2, s=0.0)
    assert a != c
    assert a != dataclasses.replace(a, eigenvalues=a.eigenvalues + 1.0)
    assert hash(dataclasses.replace(a, eigenvalues=a.eigenvalues + 1.0)) == hash(a)


def test_index_circle_values():
    triple = circle_dirac(3)
    idx, report = index(triple, circle_unitary_truncation(1, 3), 1.0, kappa=1.0, s=0.0)
    assert idx == 1 and report.signature == 4
    idx, _ = index(triple, circle_unitary_truncation(-1, 3), 1.0, kappa=0.5, s=0.0)
    assert idx == -1
    idx, _ = index(triple, circle_unitary_truncation(2, 3), 1.0, kappa=0.1, s=0.0)
    assert idx == 2


def test_index_unit_region_mode():
    triple = circle_dirac(2)
    idx, report = index(triple, identity_element(5), 0.8)
    assert idx == 0
    assert len(report.samples) == 5
    assert {sig for _, _, sig in report.samples} == {0}


def _even_gapped(rows, seed):
    """An even triple and a gapped self-adjoint element x_+ (+) x_- on it (level 1)."""
    rng = np.random.default_rng(seed)
    triple = even_triple(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
    xp, xm = (random_gapped(rows, 1, 0.5, self_adjoint=True, seed=seed + j).matrix for j in (1, 2))
    zero = np.zeros((rows, rows))
    return triple, operator_element(np.block([[xp, zero], [zero, xm]]), self_adjoint=True)


def test_index_region_mode_random(solve_counts):
    # the square bound proves every corner: one point, two halves; each
    # sample's signature is that of the dense localizer at its point
    rng = np.random.default_rng(5)
    odd = (odd_triple(np.diag(rng.uniform(-2, 2, 4))), random_gapped(4, 1, 0.5, seed=6))
    indices = []
    for triple, x in (odd, _even_gapped(3, 8)):
        solve_counts.clear()
        idx, report = index(triple, x, 0.5)
        assert solve_counts["eigvalsh"] == 2
        assert report.signature == 4 * idx and len(report.samples) == 5
        for s, kappa, sig in report.samples:
            assert signature_of(build_generalized(triple, x, kappa, s)) == sig
        indices.append(idx)
    assert indices[0] == 0  # the small-coupling limit of an invertible odd element


def test_index_refuses_a_singular_non_normal_element_before_any_solve(solve_counts):
    # the circle truncation is singular and not normal: g_loc(delta/4) = 5.7e-5,
    # far below the min{s, delta-s} that the region's cap assumes
    with pytest.raises(NotGappedError, match="invertible or self-adjoint"):
        index(circle_dirac(3), circle_unitary_truncation(1, 3), 1.0)
    assert solve_counts["eigvalsh"] == 0


def test_index_solves_only_the_centre_when_the_localizer_is_not_exactly_hermitian(solve_counts):
    # a Dirac block Hermitian only within tau: the square bound still proves
    # the corners, and the samples are those of the exact triple
    rng = np.random.default_rng(5)
    dirac = np.diag(rng.uniform(-2, 2, 4)).astype(complex)
    dirac[0, 1] = 1e-16
    x = random_gapped(4, 1, 0.5, seed=6)
    solve_counts.clear()
    _, report = index(odd_triple(dirac), x, 0.5)
    assert solve_counts["eigvalsh"] == 2
    _, exact = index(odd_triple(np.diag(np.diag(dirac))), x, 0.5)
    assert [sig for *_, sig in report.samples] == [sig for *_, sig in exact.samples]


def test_default_region_index_of_every_small_circle_pair_is_zero_or_refused():
    # N = 2..7, m = -3..3: m = 0 is the identity, invertible, with index 0;
    # every other truncation is singular and not normal, and is refused
    for N in range(2, 8):
        for m in range(-3, 4):
            x = circle_unitary_truncation(m, N)
            if m == 0:
                assert index(circle_dirac(N), x, 1.0)[0] == 0
            else:
                with pytest.raises(NotGappedError):
                    index(circle_dirac(N), x, 1.0)


def test_index_rejects_singular_localizer():
    # s = 1 with kappa tiny puts an eigenvalue of the unit localizer at ~0
    triple = circle_dirac(1)  # Dirac spectrum contains 0
    with pytest.raises(SingularLocalizerError):
        index(triple, identity_element(3), 1.0, kappa=1e-9, s=1.0)


def test_index_rejects_ungapped():
    triple = circle_dirac(3)
    with pytest.raises(NotGappedError):
        index(triple, circle_unitary_truncation(1, 3), 1.2)
    # a size-5 element has no level over a 3-dimensional ambient space
    with pytest.raises(DimensionMismatchError, match="ambient"):
        index(circle_dirac(1), identity_element(5), 0.5)


def test_index_rejects_signature_not_divisible_by_4():
    # asymmetric even halves with s beyond the gap: one eigenvalue pair of
    # each shifted half lands inside (-s, s), leaving signature 2
    from specloc.errors import NotDivisibleBy4Error

    rng = np.random.default_rng(0)
    triple = even_triple(rng.standard_normal((2, 2)))
    x = operator_element(np.diag([1.0, 1.0, 1.0, 0.8]), self_adjoint=True)
    with pytest.raises(NotDivisibleBy4Error):
        index(triple, x, 0.8, kappa=0.05, s=0.9)


def test_index_stabilization_invariance():
    from specloc import stabilize

    triple = circle_dirac(3)
    x = circle_unitary_truncation(1, 3)
    up = stabilize(x, 2)
    idx, _ = index(triple, x, 1.0, kappa=0.5, s=0.0)
    idx_up, _ = index(triple, up, 1.0, kappa=0.5, s=0.0)
    assert idx == idx_up == 1


def test_even_unit_spectrum_and_reduction():
    rng = np.random.default_rng(7)
    d0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    triple = even_triple(d0)
    e = identity_element(8)
    svals = np.linalg.svd(d0, compute_uv=False)
    for kappa, s in [(0.3, 0.2), (0.8, 0.5)]:
        loc = build_generalized(triple, e, kappa, s)
        np.testing.assert_allclose(
            hermitian_spectrum(loc).eigenvalues, unit_spectrum(svals, kappa, s), atol=1e-11
        )
        assert signature_of(loc) == 0
    red = build_reduced(triple, e, 0.3)
    loc0 = build_generalized(triple, e, 0.3, 0.0)
    np.testing.assert_allclose(
        hermitian_spectrum(loc0).eigenvalues,
        np.sort(np.concatenate([hermitian_spectrum(red).eigenvalues] * 2)),
        atol=1e-12,
    )


def test_even_requires_self_adjoint_and_commuting():
    rng = np.random.default_rng(8)
    d0 = rng.standard_normal((3, 3))
    triple = even_triple(d0)
    skew = operator_element(np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]) @ (np.eye(6) * 1j))
    with pytest.raises(ModeMismatchError):
        build_reduced(triple, skew, 0.5)
    # self-adjoint but grading-violating
    off = np.zeros((6, 6))
    off[0, 3] = off[3, 0] = 1.0
    bad = operator_element(np.eye(6) + off, self_adjoint=True)
    with pytest.raises(ModeMismatchError):
        build_reduced(triple, bad, 0.5)


def test_even_grading_test_exact_first_then_norm():
    rng = np.random.default_rng(12)
    triple = even_triple(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    xp = random_gapped(3, 1, 0.5, self_adjoint=True, seed=13).matrix
    xm = random_gapped(3, 1, 0.5, self_adjoint=True, seed=14).matrix
    even = np.block([[xp, np.zeros((3, 3))], [np.zeros((3, 3)), xm]])
    off = np.zeros((6, 6))
    off[0, 4] = off[4, 0] = 1.0
    clean = operator_element(even, self_adjoint=True)
    noisy = operator_element(even + 1e-17 * off, self_adjoint=True)
    np.testing.assert_array_equal(build_reduced(triple, noisy, 0.5), build_reduced(triple, clean, 0.5))
    assert index(triple, noisy, 0.5, kappa=0.1, s=0.2)[0] == index(triple, clean, 0.5, kappa=0.1, s=0.2)[0]
    bad = operator_element(even + 1e-3 * off, self_adjoint=True)
    with pytest.raises(ModeMismatchError):
        build_reduced(triple, bad, 0.5)
    with pytest.raises(ModeMismatchError):
        index(triple, bad, 0.4)


def test_index_checks_the_grading_once(monkeypatch):
    import specloc.localizer as loc

    rng = np.random.default_rng(15)
    triple = even_triple(rng.standard_normal((2, 2)))
    xp = random_gapped(2, 1, 0.5, self_adjoint=True, seed=16).matrix
    xm = random_gapped(2, 1, 0.5, self_adjoint=True, seed=17).matrix
    x = operator_element(
        np.block([[xp, np.zeros((2, 2))], [np.zeros((2, 2)), xm]]), self_adjoint=True
    )
    calls = []
    original = loc._element_blocks
    monkeypatch.setattr(loc, "_element_blocks", lambda *a: calls.append(1) or original(*a))
    _, report = index(triple, x, 0.5)
    assert len(report.samples) == 5 and len(calls) == 1


def test_even_gap_bound():
    rng = np.random.default_rng(9)
    d0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    triple = even_triple(d0)
    xp = random_gapped(3, 1, 0.5, self_adjoint=True, seed=10).matrix
    xm = random_gapped(3, 1, 0.5, self_adjoint=True, seed=11).matrix
    x = operator_element(
        np.block([[xp, np.zeros((3, 3))], [np.zeros((3, 3)), xm]]), self_adjoint=True
    )
    region = valid_region(triple, x, 0.5)
    for s in (0.1, 0.25, 0.4):
        assert gap_bound_check(triple, x, 0.5 * region.kappa_max(s), s).passed


def test_even_triple_built_directly_has_the_balanced_grading():
    # the grading follows from D0's size; no triple field can leave it unset
    rng = np.random.default_rng(18)
    d0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    triple = SpectralTriple("even", d0)
    xp = random_gapped(3, 1, 0.5, self_adjoint=True, seed=19).matrix
    xm = random_gapped(3, 1, 0.5, self_adjoint=True, seed=20).matrix
    even = np.block([[xp, np.zeros((3, 3))], [np.zeros((3, 3)), xm]])
    off = np.zeros((6, 6))
    off[1, 3] = off[3, 1] = 1.0
    noisy = operator_element(even + 1e-17 * off, self_adjoint=True)
    np.testing.assert_array_equal(
        build_reduced(triple, noisy, 0.5), build_reduced(even_triple(d0), noisy, 0.5)
    )
    with pytest.raises(ModeMismatchError):
        build_reduced(triple, operator_element(even + 1e-3 * off, self_adjoint=True), 0.5)


def test_an_even_element_and_its_commutator_solve_blocks_of_n_h_rows(solve_inputs):
    # x commutes with the grading, so x_+ and x_- are its two components, of
    # n*h rows each; [D, x] is grading-odd, and its two components are the
    # blocks off the grading's diagonal.  Each pair shares one stacked SVD
    h, n = 3, 2
    halves = [random_gapped(h, n, 0.4, self_adjoint=True, seed=s).matrix for s in (1, 2)]
    blocks = np.zeros((n, 2 * h, n, 2 * h), dtype=np.complex128)
    blocks[:, :h, :, :h] = halves[0].reshape(n, h, n, h)
    blocks[:, h:, :, h:] = halves[1].reshape(n, h, n, h)
    x = operator_element(blocks.reshape(2 * n * h, 2 * n * h), block_size=n)
    rng = np.random.default_rng(18)
    triple = even_triple(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))
    solve_inputs.clear()
    sigma = x.doubled()
    norm = commutator_norm(triple, x)
    assert [(name, a.shape) for name, a in solve_inputs] == [("svd", (2, n * h, n * h))] * 2
    sv = np.linalg.svd(x.matrix, compute_uv=False)
    np.testing.assert_allclose(sigma.eigenvalues, np.concatenate([-sv, sv[::-1]]),
                               rtol=0.0, atol=sigma.tau)
    dirac = np.block([[np.zeros((h, h)), triple.D0], [triple.D0.conj().T, np.zeros((h, h))]])
    d = np.kron(np.eye(n), dirac)
    dense = np.linalg.svd(d @ x.matrix - x.matrix @ d, compute_uv=False)[0]
    assert abs(norm - dense) <= DEFAULT_POLICY.scaled_tol(2 * x.dim, dense)
