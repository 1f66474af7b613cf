import numpy as np
import pytest

from specloc import (
    HomotopyPath,
    OperatorElement,
    TolerancePolicy,
    bilateral_shift_truncation,
    circle_dirac,
    circle_unitary_truncation,
    contract_invertible,
    direct_sum_class,
    distinct_by_index,
    equal_certified,
    identity_element,
    index,
    make_witness,
    max_delta,
    min_singular_value,
    odd_triple,
    operator_element,
    sigma_spectrum,
    stabilize,
    verify_path,
    verify_similarity,
)
from specloc.errors import (
    DimensionMismatchError,
    LevelTooSmallError,
    NotGappedError,
    NotInvertibleError,
    ShapeMismatchError,
)


def unitary_exp(h, t):
    """exp(i t h) for self-adjoint h."""
    eigs, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * t * eigs)) @ vecs.conj().T


def constant_path(x, samples=5):
    params = tuple(k / (samples - 1) for k in range(samples))
    return HomotopyPath(tuple(x for _ in params), params)


def test_constant_path_certified():
    cert = verify_path(constant_path(identity_element(2)), 0.5)
    assert cert.verdict and not cert.violations


def test_rotation_path_certified():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    x0 = identity_element(4)
    params = tuple(k / 32 for k in range(33))
    samples = []
    for t in params:
        u = unitary_exp(h, t)
        samples.append(operator_element(u @ x0.matrix @ u.conj().T))
    cert = verify_path(HomotopyPath(tuple(samples), params), 0.5)
    assert cert.verdict
    # Sigma is constant along a conjugation path
    for s in samples:
        np.testing.assert_allclose(sigma_spectrum(s), [-1, -1, -1, -1, 1, 1, 1, 1], atol=1e-12)


def test_linear_path_through_zero_fails():
    e = identity_element(1).matrix
    params = tuple(k / 10 for k in range(11))
    samples = tuple(operator_element((1 - t) * e + t * (-e)) for t in params)
    cert = verify_path(HomotopyPath(samples, params), 0.5)
    assert not cert.verdict
    assert any(kind == "gap" for kind, _ in cert.violations)


def test_big_step_fails_guard():
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    a = identity_element(3)
    b = operator_element(u)  # both gapped, but far apart
    cert = verify_path(HomotopyPath((a, b), (0.0, 1.0)), 0.5)
    assert any(kind == "step" for kind, _ in cert.violations)


def test_step_svd_runs_only_where_the_cheap_bound_does_not_decide(solve_counts):
    # the test_big_step_fails_guard pair: sqrt(||D||_1 ||D||_inf) is not below
    # a_0, so the one step SVD runs, and the exact step still breaks the guard
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    a, b = identity_element(3), operator_element(u)
    for x in (a, b):
        x.doubled()
    solve_counts.clear()
    cert = verify_path(HomotopyPath((a, b), (0.0, 1.0)), 0.5)
    assert solve_counts["svd"] == 1
    assert cert.violations == (("step", 0),)
    assert cert.max_step == np.linalg.norm(u - np.eye(3), 2)
    assert cert.step_margins == (cert.step_guard - cert.max_step,)


def test_refuted_segment_keeps_only_the_steps_next_to_zero():
    # x -> -x through an exact 0: the gap at t = 1/2 fails, and only the two
    # segments at that sample break the per-segment guard
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x = np.eye(6) + 0.3 * g / np.linalg.norm(g, 2)
    params = tuple(k / 8 for k in range(9))
    samples = tuple(operator_element((1 - 2 * t) * x, self_adjoint=False) for t in params)
    cert = verify_path(HomotopyPath(samples, params), 0.0)
    assert cert.violations == (("gap", 4), ("step", 3), ("step", 4))
    assert [k for k, m in enumerate(cert.step_margins) if m <= 0] == [3, 4]


def test_path_shape_validation():
    a = identity_element(2)
    with pytest.raises(ShapeMismatchError):
        HomotopyPath((a, identity_element(3)), (0.0, 1.0))
    with pytest.raises(ShapeMismatchError):
        HomotopyPath((a,), (0.0,))
    with pytest.raises(ShapeMismatchError):
        HomotopyPath((a, a), (0.0, 0.5))
    with pytest.raises(ShapeMismatchError):
        HomotopyPath((a, a, a), (0.0, np.nan, 1.0))
    with pytest.raises(ShapeMismatchError):
        HomotopyPath((a, a), (np.nan, 1.0))
    with pytest.raises(ShapeMismatchError):
        HomotopyPath((a, a), (0.0, np.nan))


def test_stabilize():
    e = identity_element(1)
    up = stabilize(e, 2)
    np.testing.assert_allclose(up.matrix, np.eye(2))
    assert up.block_size == 2
    with pytest.raises(LevelTooSmallError):
        stabilize(up, 1)


def test_stabilize_spectrum():
    x = bilateral_shift_truncation(5)
    up = stabilize(x, 2)
    expected = np.sort(np.concatenate([sigma_spectrum(x), [-1.0] * 5, [1.0] * 5]))
    np.testing.assert_allclose(sigma_spectrum(up), expected, atol=1e-12)
    assert max_delta(up) == pytest.approx(min(max_delta(x), 1.0))


def test_stabilize_associative():
    x = bilateral_shift_truncation(3)
    np.testing.assert_allclose(
        stabilize(stabilize(x, 2), 4).matrix, stabilize(x, 4).matrix
    )


def test_direct_sum_class():
    e = identity_element(2)
    total = direct_sum_class(e, e)
    assert total.block_size == 2 and total.dim == 4
    x = bilateral_shift_truncation(4)
    y = identity_element(4)
    assert max_delta(direct_sum_class(x, y)) == pytest.approx(
        min(max_delta(x), max_delta(y))
    )
    with pytest.raises(DimensionMismatchError):
        direct_sum_class(identity_element(2), identity_element(3))


def test_direct_sum_commutative_up_to_swap():
    rng = np.random.default_rng(2)
    a = operator_element(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    b = operator_element(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ab = direct_sum_class(a, b).matrix
    ba = direct_sum_class(b, a).matrix
    swap = np.zeros((4, 4))
    swap[:2, 2:] = np.eye(2)
    swap[2:, :2] = np.eye(2)
    assert verify_similarity(ab, ba, swap)


def test_contract_identity():
    path = contract_invertible(identity_element(2), steps=33)
    assert len(path.samples) == 33
    np.testing.assert_allclose(path.samples[0].matrix, np.eye(2))
    np.testing.assert_allclose(path.samples[-1].matrix, 1j * np.eye(2))
    assert all(min_singular_value(s.matrix) > 0.7 for s in path.samples)


def test_contract_sign_matrix():
    x = operator_element(np.diag([1.0, -1.0]), self_adjoint=True)
    path = contract_invertible(x, steps=33)
    np.testing.assert_allclose(path.samples[-1].matrix, 1j * np.eye(2))
    assert all(min_singular_value(s.matrix) > 0.7 for s in path.samples)


def test_contract_mixed_phases():
    x = operator_element(np.diag([1.0, 1j]))
    path = contract_invertible(x, steps=33)
    assert all(min_singular_value(s.matrix) > 1e-8 for s in path.samples)


def test_contract_rejects_singular():
    # sample 0 is x itself: its zero test refuses a singular x before any other sample
    for x in (bilateral_shift_truncation(3), operator_element(np.zeros((2, 2)))):
        with pytest.raises(NotInvertibleError, match="element is singular at tolerance"):
            contract_invertible(x)
    with pytest.raises(ValueError, match="steps"):
        contract_invertible(identity_element(2), steps=1)


def test_contract_refuses_a_later_sample_its_zero_test_refutes():
    # sigma_min / sigma_max of x is 1.44 times the doubled zero threshold
    # 64 eps, so sample 0 passes; z falls between the antipodes of x's two
    # eigenvalues, 132.5 degrees from each, and the segment towards z e drops
    # that ratio to 0.78 times the threshold near t = 1/4
    angles = np.deg2rad([-40.0, 55.0])
    x = np.array([[np.exp(1j * angles[0]), 7e6], [0.0, np.exp(1j * angles[1])]])
    with pytest.raises(NotInvertibleError, match="contraction sample t=0.2500 singular"):
        contract_invertible(operator_element(x, self_adjoint=False))


def test_contract_rejects_what_the_delta_zero_certificate_refutes():
    # sigma_min = 1e-14 is above tau(2) but not above the doubled matrix's
    # tau(4): contract_invertible used to return a path whose sample 0
    # verify_path(path, 0) refutes
    x = operator_element(np.diag([1.0, 1e-14]))
    assert not verify_path(HomotopyPath((x, identity_element(2)), (0.0, 1.0)), 0.0).verdict
    with pytest.raises(NotInvertibleError):
        contract_invertible(x)


def test_contract_path_verifies_at_delta_zero():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = a + 3.0 * np.eye(4)  # comfortably invertible
    path = contract_invertible(operator_element(a), steps=65)
    cert = verify_path(path, 0.0)
    assert cert.verdict
    # and at any delta below the path's minimal gap
    delta = 0.5 * min(min_singular_value(s.matrix) for s in path.samples)
    assert verify_path(path, delta).verdict


def test_verify_path_solves_no_contraction_sample_again(solve_counts):
    rng = np.random.default_rng(4)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = operator_element(np.eye(8) + 0.3 * g / np.linalg.norm(g, 2))
    solve_counts.clear()
    path = contract_invertible(x, steps=33)
    assert solve_counts["svd"] == 33  # one per sample, sample 0 included
    solve_counts.clear()
    assert verify_path(path, 0.0).verdict
    assert solve_counts["svd"] == 0  # sqrt(||D||_1 ||D||_inf) decides every step
    # the memo is keyed on the policy: another one solves every sample again
    solve_counts.clear()
    assert verify_path(path, 0.0, policy=TolerancePolicy(1000.0)).verdict
    assert solve_counts["svd"] == 33


def test_witness_equengance_via_constant_path():
    e1 = make_witness(identity_element(1), 0.5)
    e2 = make_witness(stabilize(identity_element(1), 2), 0.5)
    level = max(e1.level, e2.level)
    a = stabilize(e1.plus, level)
    path = constant_path(a, samples=3)
    assert equal_certified(e1, e2, path)


def test_equal_certified_scales_the_end_residual_by_its_own_witness():
    # an end point 4 ulp from 1e6 e matches w2 at w2's scale, whichever witness comes first
    w = make_witness(identity_element(2), 0.5)
    w2 = make_witness(OperatorElement(1e6 * np.eye(2), 1, 2, True), 0.5)
    eps = np.finfo(float).eps
    near = operator_element(1e6 * (1 + 4 * eps) * np.eye(2), self_adjoint=False)
    forward = HomotopyPath((identity_element(2), near), (0.0, 1.0))
    backward = HomotopyPath((near, identity_element(2)), (0.0, 1.0))
    # (1 - t) e + t 1e6 e keeps every singular value >= 1: one segment certifies it
    assert equal_certified(w, w2, forward)
    assert equal_certified(w2, w, backward)
    far = operator_element(1e6 * (1 + 1e-6) * np.eye(2), self_adjoint=False)
    with pytest.raises(ShapeMismatchError):
        equal_certified(w, w2, HomotopyPath((identity_element(2), far), (0.0, 1.0)))


def test_equal_certified_refuses_a_path_at_another_level():
    # both witnesses sit at level 1 (2 x 2); a path of 4 x 4 samples is at level 2
    w = make_witness(identity_element(2), 0.5)
    path = constant_path(identity_element(2, 2), samples=2)
    with pytest.raises(ShapeMismatchError, match="stabilized level"):
        equal_certified(w, w, path)


def test_witness_rejects_ungapped():
    with pytest.raises(NotGappedError):
        make_witness(bilateral_shift_truncation(3), 1.5)


def pair_index(triple, w, kappa, s):
    """Index of the formal difference [w.plus] - [w.minus]."""
    plus, _ = index(triple, w.plus, w.delta, kappa=kappa, s=s)
    minus, _ = index(triple, w.minus, w.delta, kappa=kappa, s=s)
    return plus - minus


def test_witnesses_distinct_by_winding():
    triple = circle_dirac(3)
    w1 = make_witness(circle_unitary_truncation(1, 3), 1.0)
    w2 = make_witness(circle_unitary_truncation(2, 3), 1.0)
    assert distinct_by_index(w1, w2, triple, kappa=0.1, s=0.0)
    assert pair_index(triple, w1, 0.1, 0.0) == 1
    assert pair_index(triple, w2, 0.1, 0.0) == 2


def test_witness_index_invariant_under_stabilization():
    triple = circle_dirac(3)
    x = circle_unitary_truncation(1, 3)
    w = make_witness(x, 1.0)
    w_up = make_witness(stabilize(x, 2), 1.0)
    assert not distinct_by_index(w, w_up, triple, kappa=0.5, s=0.0)
    assert pair_index(triple, w, 0.5, 0.0) == pair_index(triple, w_up, 0.5, 0.0)


def test_distinct_by_index_same_element_under_another_triple():
    # two witnesses of one element are never distinct, whatever triple was used before
    x = circle_unitary_truncation(1, 3)
    d = circle_dirac(3).D0
    wa, wb, wc = (make_witness(x, 1.0) for _ in range(3))
    assert not distinct_by_index(wa, wb, odd_triple(d), kappa=0.5, s=0.0)
    assert not distinct_by_index(wa, wc, odd_triple(-d), kappa=0.5, s=0.0)
    assert pair_index(odd_triple(-d), wa, 0.5, 0.0) == -1


def test_witnesses_equal_under_conjugation():
    rng = np.random.default_rng(4)
    x = identity_element(3)
    h = rng.standard_normal((3, 3))
    h = (h + h.T) / 2
    params = tuple(k / 16 for k in range(17))
    samples = tuple(
        operator_element(unitary_exp(h, t) @ x.matrix @ unitary_exp(h, t).conj().T)
        for t in params
    )
    w1 = make_witness(samples[0], 0.5)
    w2 = make_witness(samples[-1], 0.5)
    assert equal_certified(w1, w2, HomotopyPath(samples, params))
