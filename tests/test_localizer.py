import dataclasses

import numpy as np
import pytest

from specloc import (
    SpectralTriple,
    build_reduced,
    circle_dirac,
    circle_unitary_truncation,
    commutator_norm,
    even_triple,
    gap_bound_check,
    hermitian_spectrum,
    identity_element,
    index,
    localizer_gap,
    localizer_halves,
    odd_triple,
    operator_element,
    random_gapped,
    valid_region,
)
from specloc.errors import (
    DimensionMismatchError,
    InconsistentSignatureError,
    ModeMismatchError,
    NotGappedError,
    NotSelfAdjointError,
    SingularLocalizerError,
)
from specloc.linalg import DEFAULT_POLICY, min_singular_value
from specloc.localizer import _reduced_parts

from oracles import build_generalized, s_gap


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
    for kappa, s in [(0.0, 0.3), (-1.0, 0.3), (0.5, -0.1), (0.5, np.inf)]:
        with pytest.raises(ValueError):
            localizer_halves(triple, e, kappa, s)


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
    triple = circle_dirac(3)
    with pytest.raises(NotGappedError):
        valid_region(triple, circle_unitary_truncation(1, 3), 1.5)
    for delta in (0.0, -1.0):
        with pytest.raises(ValueError, match="delta"):
            valid_region(triple, circle_unitary_truncation(1, 3), delta)


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
    # the circle's D0 and x are exactly real: so are C, K and both halves
    triple, x = circle_dirac(5), circle_unitary_truncation(2, 5)
    c, k = _reduced_parts(triple, x, DEFAULT_POLICY)
    assert c.dtype == k.dtype == np.float64
    for half in localizer_halves(triple, x, 0.1, 0.3):
        assert half.dtype == np.float64
    # one nonzero imaginary entry anywhere keeps the whole assembly complex
    phased = operator_element(x.matrix * np.exp(1e-3j), self_adjoint=False)
    assert {p.dtype for p in _reduced_parts(triple, phased, DEFAULT_POLICY)} == {np.dtype(np.complex128)}


def test_valid_region_takes_the_svd_of_D0_only_when_its_bound_cannot_decide(solve_inputs):
    # [D, x] = 0 exactly for x = e: the Hoelder bound of ||D0|| finds it
    # negligible, and the verdict "unbounded" is confirmed by the SVD of D0
    triple = circle_dirac(3)
    d0 = triple.D0.real
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


def test_index_reads_the_self_adjoint_localizer_gap_from_the_certificate(monkeypatch):
    # for Hermitian x, min over +- of sigma_min(x -+ s) = min_i ||lambda_i| - s| = min|s + Sigma_x|
    import specloc.localizer as loc

    calls = []
    original = loc.min_singular_value
    monkeypatch.setattr(loc, "min_singular_value", lambda m: calls.append(1) or original(m))
    rng = np.random.default_rng(12)
    triple = odd_triple(np.diag(rng.uniform(-2, 2, 4)))
    for seed in range(4):
        x = random_gapped(4, 1, 0.4, self_adjoint=True, seed=seed)
        _, report = index(triple, x, 0.4)
        assert report.s > 0 and calls == []
        g = localizer_gap(x, report.s)
        expected = g * g - report.kappa * report.commutator_norm
        assert report.gap_bound == pytest.approx(expected, abs=x.doubled().tau)
        calls.clear()


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
    # every corner is within Weyl's reach of the centre: one point, two halves;
    # each sample's signature is that of the dense localizer at its point
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


def test_index_solves_corners_out_of_reach_and_reports_their_disagreement(solve_counts):
    # the centre's smallest |eigenvalue| (0.31) is shorter than every spoke
    # (h >= ||D0|| |kappa_q - kappa*| + |s_q - s*| = 3 * 0.075 + 0.25): the
    # corners are solved, and some of their signatures differ from the centre's
    with pytest.raises(InconsistentSignatureError):
        index(circle_dirac(3), circle_unitary_truncation(1, 3), 1.0)
    assert solve_counts["eigvalsh"] > 2


def test_index_solves_every_corner_when_the_localizer_is_not_exactly_hermitian(solve_counts):
    # Weyl's inequality is about Hermitian matrices: a Dirac block Hermitian only
    # within tau makes every half inexact, so no corner is certified
    rng = np.random.default_rng(5)
    dirac = np.diag(rng.uniform(-2, 2, 4)).astype(complex)
    dirac[0, 1] = 1e-16
    x = random_gapped(4, 1, 0.5, seed=6)
    solve_counts.clear()
    _, report = index(odd_triple(dirac), x, 0.5)
    assert solve_counts["eigvalsh"] == 10
    _, exact = index(odd_triple(np.diag(np.diag(dirac))), x, 0.5)
    assert [sig for *_, sig in report.samples] == [sig for *_, sig in exact.samples]


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
    original = loc._even_halves
    monkeypatch.setattr(loc, "_even_halves", lambda *a: calls.append(1) or original(*a))
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
