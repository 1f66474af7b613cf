import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specloc import (
    DEFAULT_POLICY,
    HomotopyPath,
    OperatorElement,
    TolerancePolicy,
    bilateral_shift_truncation,
    bordered,
    circle_dirac,
    delta_singular_check,
    hermitian_spectrum,
    identity_element,
    index,
    is_self_adjoint,
    max_delta,
    operator_element,
    sigma_spectrum,
    verify_path,
)
from specloc.errors import NonFiniteError, NotSelfAdjointError

from oracles import grid_check, s_gap


def random_element(seed, n=4, self_adjoint=False):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if self_adjoint:
        a = (a + a.conj().T) / 2
    return operator_element(a)


def test_bordered_unit():
    e = identity_element(1)
    np.testing.assert_allclose(bordered(e, 0.0), [[0, 1], [1, 0]])
    with pytest.raises(NonFiniteError):
        bordered(e, np.inf)


def test_bordered_zero_element():
    z = operator_element(np.zeros((2, 2)))
    np.testing.assert_allclose(bordered(z, 0.1), 0.1 * np.eye(4))


def test_bordered_shift_spectrum():
    # eigenvalues shift to -1+s, s, 1+s
    x = bilateral_shift_truncation(3)
    eigs = hermitian_spectrum(bordered(x, 0.3)).eigenvalues
    np.testing.assert_allclose(eigs, [-0.7, -0.7, 0.3, 0.3, 1.3, 1.3], atol=1e-10)


def test_sigma_unit():
    np.testing.assert_allclose(sigma_spectrum(identity_element(1)), [-1, 1])


def test_sigma_shift_five():
    # singular values of the 5x5 shift are 1,1,1,1,0
    sigma = sigma_spectrum(bilateral_shift_truncation(5))
    np.testing.assert_allclose(sigma, [-1, -1, -1, -1, 0, 0, 1, 1, 1, 1], atol=1e-12)


def test_sigma_self_adjoint_diag():
    x = operator_element(np.diag([2.0, -3.0]), self_adjoint=True)
    np.testing.assert_allclose(sigma_spectrum(x), [-3, -2, 2, 3], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sigma_is_plus_minus_singular_values(seed):
    # Sigma_x is computed as +-(singular values of x); the independent oracle
    # is its definition, the dense spectrum of bordered(x, 0)
    for x in (random_element(seed), random_element(seed, self_adjoint=True)):
        expected = np.linalg.eigvalsh(bordered(x, 0.0))
        np.testing.assert_allclose(sigma_spectrum(x), expected, atol=1e-12)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_sigma_symmetry(seed):
    sigma = sigma_spectrum(random_element(seed))
    np.testing.assert_allclose(sigma, -sigma[::-1], atol=1e-12)


def test_delta_check_shift():
    x = bilateral_shift_truncation(5)
    assert delta_singular_check(x, 0.5).verdict
    assert not delta_singular_check(x, 1.2).verdict
    for delta in (-1.0, np.inf):
        with pytest.raises(ValueError, match="delta"):
            delta_singular_check(x, delta)


def test_delta_check_zero_element():
    z = operator_element(np.zeros((3, 3)))
    cert = delta_singular_check(z, 0.7)
    assert cert.verdict
    assert cert.delta_max == np.inf


def test_delta_zero_means_invertible():
    assert delta_singular_check(identity_element(2), 0.0).verdict
    assert not delta_singular_check(bilateral_shift_truncation(3), 0.0).verdict


def test_marginal_at_boundary():
    cert = delta_singular_check(identity_element(2), 1.0)
    assert cert.verdict and cert.marginal
    cert = delta_singular_check(identity_element(2), 0.5)
    assert cert.verdict and not cert.marginal


def test_self_adjoint_certificate_zero_test_at_the_doubled_dimension():
    # Sigma_x = {+-1, +-1e-14}; tau(4) = 1.4e-14 makes 1e-14 a zero, so the gap is 1
    x = operator_element(np.diag([1.0, 1e-14]))
    assert x.self_adjoint
    cert = delta_singular_check(x, 0.5)
    assert cert.verdict and cert.delta_max == 1.0
    path = verify_path(HomotopyPath((x, x), (0.0, 1.0)), 0.5)
    assert path.verdict and [dm for _, _, dm in path.sample_trace] == [1.0, 1.0]


def test_element_flagged_self_adjoint_must_be_hermitian():
    x = bilateral_shift_truncation(3)
    for certify in (
        lambda y: delta_singular_check(y, 0.5),
        lambda y: grid_check(y, 0.5),
        sigma_spectrum,
        lambda y: verify_path(HomotopyPath((y, y), (0.0, 1.0)), 0.5),
    ):
        with pytest.raises(NotSelfAdjointError):
            certify(OperatorElement(x.matrix, 1, 3, self_adjoint=True))


def test_element_matrix_must_match_its_block_metadata():
    for args in ((np.zeros((2, 3)),), (np.eye(2), 0, 2), (np.eye(2), 2, 0), (np.eye(4), 2, 3)):
        with pytest.raises(ValueError):
            OperatorElement(*args)


def test_self_adjoint_certificate_builds_no_bordered_matrix(monkeypatch):
    # Sigma_x comes from the singular values of x for every element, self-adjoint
    # or not, and no product path builds the bordered matrix: only the test
    # oracles do.  bordered is replaced in every module that binds it.
    import oracles
    import specloc

    calls = []
    original = specloc.gap.bordered

    def recorded(y, s):
        calls.append(s)
        return original(y, s)

    for module in (specloc, specloc.gap, specloc.clifford, oracles):
        monkeypatch.setattr(module, "bordered", recorded)
    for x in (operator_element(np.diag([2.0, -3.0])), bilateral_shift_truncation(3)):
        sigma_spectrum(x)
        max_delta(x)
        delta_singular_check(x, 0.0)
        cert = delta_singular_check(x, 0.5)
        assert len(cert.s_gaps) == 9
        verify_path(HomotopyPath((x, x), (0.0, 1.0)), 0.5)
        assert calls == []
        # the oracle reaches the replaced function, so the check above can fail
        grid_check(x, 0.5, grid_points=3)
        assert calls == [0.125, 0.25, 0.375]
        calls.clear()
    idx, report = index(circle_dirac(2), identity_element(5), 0.8)
    assert idx == 0 and len(report.samples) == 5
    assert calls == []


def test_certificate_takes_one_svd_of_x(solve_counts):
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (a + a.conj().T) / 2
    noisy = h + 1e-16 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    assert not np.array_equal(noisy, noisy.conj().T)
    for m, flagged, most in ((h, True, 1), (a, False, 1), (noisy, True, 2)):
        solve_counts.clear()
        delta_singular_check(OperatorElement(m, 1, 6, flagged), 0.1)
        # the exactly Hermitian x needs no adjoint norm; within tau, one SVD of x - x*
        assert 1 <= solve_counts["svd"] <= most and solve_counts["eigvalsh"] == 0


def test_flag_is_tested_at_the_doubled_dimension():
    # a flagged x with ||x - x*|| between tau(n) and tau(2n), e.g. a
    # reduce_periodic output, is accepted: the flag is tested at the doubled
    # matrix's tau, not at is_self_adjoint's tau(n)
    n = 4
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = (a - a.conj().T) / 2
    skew /= np.linalg.norm(skew, 2)
    h = np.diag([1.0, -2.0, 3.0, 0.5])
    tau_n = DEFAULT_POLICY.scaled_tol(n, 3.0)
    for multiple, accepted in ((1.5, True), (2.5, False)):
        x = h + (multiple * tau_n / 2) * skew  # ||x - x*|| = multiple * tau(n)
        assert not is_self_adjoint(x)
        element = OperatorElement(x, 1, n, self_adjoint=True)
        if accepted:
            assert delta_singular_check(element, 0.4).verdict
        else:
            with pytest.raises(NotSelfAdjointError):
                delta_singular_check(element, 0.4)


def test_grid_mode_detects_violation():
    x = bilateral_shift_truncation(4)
    check = grid_check(x, 1.2, grid_points=9)
    assert not check.verdict
    assert len(check.s_gaps) == 9


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_mode_agreement(seed):
    rng = np.random.default_rng(seed)
    self_adjoint = bool(seed % 2)
    x = random_element(seed, n=5, self_adjoint=self_adjoint)
    dmax = max_delta(x)
    for factor in (0.4, 0.8, 1.3):
        delta = dmax * factor
        spectrum = delta_singular_check(x, delta).verdict
        grid = grid_check(x, delta, grid_points=9).verdict
        assert spectrum == grid == (factor < 1.0)


@pytest.mark.parametrize("seed", [2, 9])
def test_gap_bound_property(seed):
    # for delta-singular x and s in (0, delta): s_gap >= min(s, delta-s)
    x = random_element(seed, n=4)
    delta = 0.9 * max_delta(x)
    assert delta_singular_check(x, delta).verdict
    for s in np.linspace(0.1, 0.9, 5) * delta:
        assert s_gap(x, s) >= min(s, delta - s) - 1e-12


def test_self_adjoint_similarity():
    # spectrum of bordered(x, s) is {s + lam} U {s - lam} over lam in spec(x)
    x = random_element(13, n=4, self_adjoint=True)
    eigs = hermitian_spectrum(x.matrix).eigenvalues
    s = 0.37
    expected = np.sort(np.concatenate([s + eigs, s - eigs]))
    np.testing.assert_allclose(
        hermitian_spectrum(bordered(x, s)).eigenvalues, expected, atol=1e-12
    )


def test_unitary_scaling_invariance():
    rng = np.random.default_rng(21)
    x = random_element(21, n=4)
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    y = operator_element(q1 @ x.matrix @ q2)
    delta = 0.8 * max_delta(x)
    assert (
        delta_singular_check(x, delta).verdict
        == delta_singular_check(y, delta).verdict
    )
    np.testing.assert_allclose(sigma_spectrum(x), sigma_spectrum(y), atol=1e-12)


def test_s_gap_values():
    assert s_gap(bilateral_shift_truncation(3), 0.3) == pytest.approx(0.3, abs=1e-12)
    assert s_gap(identity_element(1), 0.2) == pytest.approx(0.8, abs=1e-12)
    z = operator_element(np.zeros((2, 2)))
    assert s_gap(z, 0.1) == pytest.approx(0.1, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["general", "hermitian", "shift"]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5]),
)
# |gap - s_gap| = 2.2e-16 here, above x's tau(2) = 1.9e-16 but within the
# bordered matrix's own threshold at s + ||x||
@example(kind="hermitian", n=1, seed=2**32 - 1, frac=1.5)
def test_s_gaps_match_the_bordered_matrix(kind, n, seed, frac):
    # each s_gaps entry min|s + Sigma_x| is the bordered matrix's smallest
    # absolute eigenvalue at that shift, within that matrix's threshold: its
    # eigenvalues s + Sigma_x are rounded at the scale s + ||x||, not ||x||
    if kind == "shift":
        x = bilateral_shift_truncation(n + 1)  # singular, and gapped up to 1
    else:
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "hermitian":
            m = (m + m.conj().T) / 2
        x = OperatorElement(m, 1, n, kind == "hermitian")
    norm = float(np.linalg.norm(x.matrix, 2))
    delta = frac * max(norm, 1.0)
    cert = delta_singular_check(x, delta)
    if delta == 0.0:
        assert cert.s_gaps == ()
        return
    assert [s for s, _ in cert.s_gaps] == [delta * i / 10.0 for i in range(1, 10)]
    for s, gap in cert.s_gaps:
        assert abs(gap - s_gap(x, s)) <= DEFAULT_POLICY.scaled_tol(2 * x.dim, s + norm)


def test_max_delta_values():
    assert max_delta(bilateral_shift_truncation(5)) == pytest.approx(1.0)
    assert max_delta(identity_element(3)) == pytest.approx(1.0)
    x = operator_element(np.diag([2.0, -3.0]), self_adjoint=True)
    assert max_delta(x) == pytest.approx(2.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1e-13, 0.0]),
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, 1.5]),
            st.sampled_from([1.0, 16.0, 1000.0]),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_memoized_certificate_equals_a_fresh_elements(n, seed, column_scale, queries):
    # every certificate of one element after its first equals the certificate
    # of a fresh element with the same matrix: the memo changes no answer.  A
    # column scaled by 1e-13 puts sigma_min between the taus of factors 1 and
    # 1000, so a memo that ignored the policy would change delta_max.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m[:, 0] *= column_scale
    x = operator_element(m)
    for frac, factor in queries:
        policy = TolerancePolicy(factor)
        delta = frac * float(np.linalg.norm(m, 2))
        cert = delta_singular_check(x, delta, policy=policy)
        fresh = delta_singular_check(OperatorElement(m, 1, n, x.self_adjoint), delta, policy=policy)
        assert cert == fresh and cert.s_gaps == fresh.s_gaps


def test_elements_and_certificates_compare_by_value():
    x, y = bilateral_shift_truncation(3), bilateral_shift_truncation(3)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    cx, cy = delta_singular_check(x, 0.5), delta_singular_check(y, 0.5)
    assert cx == cy and hash(cx) == hash(cy) and len({cx, cy}) == 1
    # the memo of x is filled, a fresh twin's is not: neither == nor hash sees it
    twin = bilateral_shift_truncation(3)
    assert "_doubled" in vars(x) and "_doubled" not in vars(twin)
    assert x == twin and hash(x) == hash(twin)
    assert pickle.loads(pickle.dumps(x)) == x == copy.deepcopy(x)


def test_elements_and_certificates_that_differ_are_unequal():
    x = bilateral_shift_truncation(3)
    assert x != bilateral_shift_truncation(4)
    assert x != OperatorElement(2 * x.matrix, 1, 3)
    assert x != OperatorElement(x.matrix, 3, 1)
    assert x != OperatorElement(x.matrix, 1, 3, self_adjoint=True)
    assert x != x.matrix.tolist() and x.__eq__(x.matrix) is NotImplemented
    cert = delta_singular_check(x, 0.5)
    assert cert != delta_singular_check(x, 0.4)
    assert cert != delta_singular_check(identity_element(3), 0.5)
    assert cert != dataclasses.replace(cert, marginal=not cert.marginal)


def test_negative_zero_entries_are_equal_and_hash_alike():
    # np.array_equal(-0.0, 0.0) holds, so the hash must not read the bits
    x = OperatorElement(np.array([[0.0, 1.0], [-0.0, 2.0]]), 1, 2)
    y = OperatorElement(np.array([[-0.0, 1.0], [0.0, 2.0]]), 1, 2)
    assert x.matrix.tobytes() != y.matrix.tobytes()
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    a = dataclasses.replace(delta_singular_check(x, 0.5), sigma_x=np.array([-0.0, 0.0, 1.0]))
    b = dataclasses.replace(a, sigma_x=np.array([0.0, -0.0, 1.0]))
    assert a == b and hash(a) == hash(b)


def test_memo_is_no_dataclass_field():
    x = random_element(5)
    before = repr(x)
    delta_singular_check(x, 0.5)
    assert repr(x) == before
    assert "_doubled" not in {f.name for f in dataclasses.fields(x)}
    assert dataclasses.replace(x).__dict__.get("_doubled") is None


def test_certificate_spectrum_is_read_only():
    x = random_element(6)
    cert = delta_singular_check(x, 0.5)
    with pytest.raises(ValueError):
        cert.sigma_x[0] = 0.0
    with pytest.raises(ValueError):
        cert.sigma_x.setflags(write=True)
    assert np.array_equal(delta_singular_check(x, 0.5).sigma_x, cert.sigma_x)


def test_element_matrix_cannot_be_made_writable():
    # the memo is keyed on (element, policy): the matrix it was read from
    # must not change, so numpy refuses to make it writable, and a copy is
    # a new element that solves again
    x = random_element(5)
    delta_singular_check(x, 0.5)
    with pytest.raises(ValueError):
        x.matrix.setflags(write=True)
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert np.array_equal(twin.matrix, x.matrix) and "_doubled" not in vars(twin)
        with pytest.raises(ValueError):
            twin.matrix.setflags(write=True)


def test_failed_adjoint_test_is_not_memoized(solve_counts):
    # a flagged element that fails the adjoint test raises on every call,
    # solving again each time: only a spectrum that passed is memoized
    x = OperatorElement(bilateral_shift_truncation(3).matrix, 1, 3, self_adjoint=True)
    for _ in range(3):
        solve_counts.clear()
        with pytest.raises(NotSelfAdjointError):
            delta_singular_check(x, 0.5)
        # x, one entry per line: one stacked SVD; then x - x*, whose two
        # components (2 rows by 1 column, 1 by 2) take one SVD each
        assert solve_counts["svd"] == 3
