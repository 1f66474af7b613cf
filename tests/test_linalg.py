import sys

import numpy as np
import pytest

from specloc import (
    DEFAULT_POLICY,
    TolerancePolicy,
    direct_sum,
    doubled_matrix,
    hermitian_spectrum,
    is_singular,
    min_singular_value,
    operator_norm,
    verify_similarity,
    winding_demo,
)
from specloc.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotSelfAdjointError,
    NotSquareError,
    SingularConjugatorError,
)
from specloc.linalg import _EPS, as_matrix, doubled_spectrum, operator_norm_bound


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_eig_hermitian_diagonal():
    eigs = hermitian_spectrum(np.diag([3.0, 1.0, 2.0])).eigenvalues
    np.testing.assert_allclose(eigs, [1, 2, 3])


def test_eig_hermitian_pauli_x():
    eigs = hermitian_spectrum(np.array([[0, 1], [1, 0]])).eigenvalues
    np.testing.assert_allclose(eigs, [-1, 1])


def test_doubled_spectrum_is_plus_minus_singular_values_at_the_doubled_tau():
    # [[0, x], [x*, 0]] for x = [[0, 2], [0, 0]]: eigenvalues -2, 0, 0, 2
    spectrum = doubled_spectrum(np.array([[0.0, 2.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(spectrum.eigenvalues, [-2.0, 0.0, 0.0, 2.0])
    assert spectrum.tau == DEFAULT_POLICY.scaled_tol(4, 2.0)
    assert spectrum.inertia == (1, 2, 1) and spectrum.signature == 0
    with pytest.raises(NotSquareError):
        doubled_spectrum(np.ones((2, 3)))


def test_eig_hermitian_bordered_shift():
    # bordered 3x3 shift at s = 0.3: eigenvalues -1+s, s, 1+s (doubled)
    j3 = np.diag([1.0, 1.0], k=1)
    s = 0.3
    m = np.block([[s * np.eye(3), j3], [j3.T, s * np.eye(3)]])
    np.testing.assert_allclose(
        hermitian_spectrum(m).eigenvalues, [-0.7, -0.7, 0.3, 0.3, 1.3, 1.3], atol=1e-10
    )


def test_eig_hermitian_rejects_non_square():
    with pytest.raises(NotSquareError):
        hermitian_spectrum(np.zeros((2, 3)))
    with pytest.raises(TypeError, match="at least one block"):
        hermitian_spectrum()


def test_eig_hermitian_rejects_asymmetric():
    with pytest.raises(NotSelfAdjointError):
        hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_symmetrizes_roundoff():
    m = np.array([[1.0, 0.5 + 1e-17j], [0.5, 2.0]])
    np.testing.assert_allclose(
        hermitian_spectrum(m).eigenvalues,
        hermitian_spectrum((m + m.conj().T) / 2).eigenvalues,
    )


def test_eig_hermitian_rejects_nan():
    with pytest.raises(NonFiniteError):
        hermitian_spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eig_hermitian_deterministic():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = a + a.conj().T
    first = hermitian_spectrum(h).eigenvalues
    second = hermitian_spectrum(h.copy()).eigenvalues
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eig_hermitian_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = a + a.conj().T
    u = random_unitary(5, seed + 100)
    np.testing.assert_allclose(
        hermitian_spectrum(u @ h @ u.conj().T).eigenvalues,
        hermitian_spectrum(h).eigenvalues,
        atol=1e-12,
    )


def test_inertia_signature_basics():
    spectrum = hermitian_spectrum(np.diag([2.0, -1.0]))
    assert spectrum.inertia == (1, 0, 1)
    assert spectrum.signature == 0
    assert hermitian_spectrum(np.diag([1.0, 1.0, -1.0])).signature == 1


@pytest.mark.parametrize("seed", [4, 5])
def test_inertia_counts_and_negation(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((7, 7))
    h = a + a.T
    spectrum = hermitian_spectrum(h)
    assert sum(spectrum.inertia) == 7
    assert spectrum.signature == -hermitian_spectrum(-h).signature


def test_inertia_counts_a_singular_matrix_in_n_zero():
    # a singular verdict is spelled inertia.n_zero > 0
    spectrum = hermitian_spectrum(np.diag([1.0, 0.0]))
    assert spectrum.inertia == (1, 1, 0)
    assert spectrum.signature == 1


def test_operator_norm_values():
    assert operator_norm(np.eye(3)) == pytest.approx(1.0)
    assert operator_norm(np.diag([0.0, -5.0])) == pytest.approx(5.0)


def test_min_singular_values():
    assert min_singular_value(np.eye(2)) == pytest.approx(1.0)
    assert min_singular_value(np.diag([1.0, 1.0], k=1)) == pytest.approx(0.0, abs=1e-14)
    t = 0.5
    m = (t + 1j * (1 - t)) * np.eye(2)
    assert min_singular_value(m) == pytest.approx(np.sqrt(2) / 2)


def test_direct_sum_and_kron():
    np.testing.assert_allclose(
        direct_sum([[2.0]], [[3.0]]), np.diag([2.0, 3.0])
    )
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3))
    h = a + a.T
    doubled = hermitian_spectrum(np.kron(np.eye(2), h)).eigenvalues
    single = hermitian_spectrum(h).eigenvalues
    np.testing.assert_allclose(doubled, np.sort(np.concatenate([single] * 2)))


def test_direct_sum_norm_and_spectrum():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    ha, hb = a + a.conj().T, b + b.conj().T
    s = direct_sum(ha, hb)
    assert operator_norm(s) == pytest.approx(max(operator_norm(ha), operator_norm(hb)))
    np.testing.assert_allclose(
        hermitian_spectrum(s).eigenvalues,
        hermitian_spectrum(ha, hb).eigenvalues,
        atol=1e-12,
    )


def test_doubled_matrix_layout_and_spectrum():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for s in (0.0, 0.4):
        d = doubled_matrix(a, s)
        np.testing.assert_array_equal(d[:3, :3], s * np.eye(3))
        np.testing.assert_array_equal(d[3:, 3:], s * np.eye(3))
        np.testing.assert_array_equal(d[:3, 3:], a)
        np.testing.assert_array_equal(d[3:, :3], a.conj().T)
        # spectrum s + Sigma_a, Sigma_a = +-sigma_i(a)
        sv = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(
            hermitian_spectrum(d).eigenvalues,
            np.sort(np.concatenate([s - sv, s + sv])),
            atol=1e-12,
        )
    # the graded sum a (+) (-b)
    np.testing.assert_array_equal(direct_sum(a, -a), np.kron(np.diag([1.0, -1.0]), a))


def test_block_forms_keep_a_real_input_real():
    # float64 when every input's dtype is real, complex128 otherwise
    real = np.arange(4.0).reshape(2, 2)
    for m in (real, real.astype(int), real.tolist()):
        assert doubled_matrix(m).dtype == doubled_matrix(m, 0.5).dtype == np.float64
        assert direct_sum(m, -real).dtype == np.float64
    complex_ = real.astype(np.complex128)  # exactly real values, complex dtype
    assert doubled_matrix(complex_).dtype == np.complex128
    assert direct_sum(real, complex_).dtype == direct_sum(complex_, real).dtype == np.complex128
    np.testing.assert_array_equal(doubled_matrix(real, 0.5), doubled_matrix(complex_, 0.5))
    # direct_sum of n copies is the amplification I_n (x) a
    np.testing.assert_array_equal(direct_sum(real, real, real), np.kron(np.eye(3), real))


def test_as_matrix_rejects_arrays_that_are_not_2d():
    for shape in ((4,), (2, 2, 2)):
        with pytest.raises(NotSquareError, match="expected a 2-d array"):
            as_matrix(np.ones(shape))


def test_verify_similarity_reflexive_and_symmetric():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4))
    u = random_unitary(4, 9)
    b = u @ a @ u.conj().T
    assert verify_similarity(a, a, np.eye(4))
    assert verify_similarity(a, b, u)
    assert verify_similarity(b, a, u.conj().T)


def test_verify_similarity_errors():
    with pytest.raises(DimensionMismatchError):
        verify_similarity(np.eye(2), np.eye(3), np.eye(2))
    with pytest.raises(SingularConjugatorError):
        verify_similarity(np.eye(2), np.eye(2), np.zeros((2, 2)))


def test_tolerance_policy_monotone():
    policy = TolerancePolicy(16.0)
    assert policy.tau(np.eye(3)) < policy.tau(10.0 * np.eye(3))
    for factor in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            TolerancePolicy(factor)
    assert DEFAULT_POLICY.zero_threshold_factor == 16.0


def test_is_singular_is_the_doubled_zero_test():
    # sigma_min = 1e-14 lies between tau(2) = 7.1e-15 and tau(4) = 1.4e-14:
    # singular at the doubled matrix's tau, the rule of the delta = 0 certificate
    m = np.diag([1.0, 1e-14])
    assert DEFAULT_POLICY.scaled_tol(2, 1.0) < 1e-14 <= DEFAULT_POLICY.scaled_tol(4, 1.0)
    assert is_singular(m)
    assert not is_singular(np.diag([1.0, 1e-13]))
    with pytest.raises(NotSquareError):
        is_singular(np.ones((2, 3)))


def _count_svds(monkeypatch):
    impl = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    calls = []
    original = impl.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(impl, "svd", counting)
    return calls


def test_kernel_tests_adjointness_at_the_solved_tau(monkeypatch):
    # one SVD per distinct non-Hermitian block (of B - B*); none for Hermitian input
    rng = np.random.default_rng(10)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ha, hb = a + a.conj().T, b + b.conj().T
    calls = _count_svds(monkeypatch)
    hermitian_spectrum(ha, hb)
    assert calls == []
    noisy_a, noisy_b = ha + 1e-17j * np.eye(4), hb + 1e-17j * np.eye(4)
    spectrum = hermitian_spectrum(noisy_a, noisy_b, noisy_a)
    assert len(calls) == 2
    assert np.array_equal(spectrum.eigenvalues, hermitian_spectrum(ha, hb, ha).eigenvalues)
    tau = hermitian_spectrum(ha, hb).tau
    with pytest.raises(NotSelfAdjointError, match=f"{tau:.3e}"):
        hermitian_spectrum(ha + 1e3 * tau * np.diag([1j, 0, 0, 0]), hb)


def test_exactly_hermitian_blocks_are_solved_as_they_are(monkeypatch):
    # B == B* exactly: B itself reaches eigvalsh, and (B + B*) / 2 would give the same bits
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = a + a.conj().T
    noisy = h + 1e-17j * np.eye(5)
    received = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: received.append(m) or original(m))
    spectrum = hermitian_spectrum(h, noisy)
    assert received[0] is h and received[1] is not noisy
    np.testing.assert_array_equal(original(h), original((h + h.conj().T) / 2.0))
    np.testing.assert_array_equal(
        spectrum.eigenvalues, np.sort(np.concatenate([original(h), original(received[1])]))
    )


def test_operator_norm_of_zeros_takes_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD taken")

    monkeypatch.setattr(np.linalg, "norm", no_svd)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert operator_norm(np.zeros((4, 4), dtype=np.complex128)) == 0.0
    assert operator_norm(np.zeros((0, 0))) == 0.0  # empty: no entry, no SVD
    with pytest.raises(NonFiniteError):
        operator_norm(np.array([[0.0, np.nan], [0.0, 0.0]]))


def test_operator_norm_bound_takes_an_svd_only_when_the_cheap_bound_does_not_decide(solve_counts):
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    moduli = np.abs(m)
    cheap = np.sqrt(moduli.sum(axis=0).max()) * np.sqrt(moduli.sum(axis=1).max())
    cheap *= 1.0 + 2 * 5 * _EPS
    exact = operator_norm(m)
    assert exact < cheap
    solve_counts.clear()
    assert operator_norm_bound(m, 2.0 * cheap) == cheap  # decided: the bound itself
    assert operator_norm_bound(np.zeros((5, 5)), 0.0) == 0.0  # exact first
    assert solve_counts["svd"] == 0
    assert operator_norm_bound(m, cheap) == exact  # not below the limit: the SVD
    assert solve_counts["svd"] == 1
    with pytest.raises(NonFiniteError):
        operator_norm_bound(np.array([[0.0, np.inf], [0.0, 0.0]]), 1.0)


def test_operator_norm_bound_does_not_underflow():
    # ||M||_1 ||M||_inf = 1e-400 underflows; the two roots do not
    m = np.full((2, 2), 1e-200)
    assert operator_norm_bound(m, 1.0) >= 2e-200


def _real_and_last_column_complex(n=4):
    # a real symmetric matrix, and a copy whose only nonzero imaginary entry
    # is 1e-300 at (1, n-1): its first column, and the first column of its
    # symmetrized block, are real
    rng = np.random.default_rng(12)
    a = rng.standard_normal((n, n))
    real = a + a.T
    tiny = real.astype(np.complex128)
    tiny[1, n - 1] += 1e-300j
    return real, tiny


def _solve_all_four(m):
    # real or complex arithmetic, the eigenvalues are float64 and the norms floats
    assert hermitian_spectrum(m).eigenvalues.dtype == np.float64
    assert doubled_spectrum(m).eigenvalues.dtype == np.float64
    assert type(operator_norm(m)) is float and type(min_singular_value(m)) is float


def _dtypes(solve_inputs):
    return {np.asarray(a).dtype for _, a in solve_inputs}


def test_real_input_reaches_lapack_as_float64(solve_inputs):
    real, _ = _real_and_last_column_complex()
    for m in (real, real.astype(np.complex128)):
        solve_inputs.clear()
        _solve_all_four(m)
        assert [name for name, _ in solve_inputs] == ["eigvalsh", "svd", "svd", "svd"]
        assert _dtypes(solve_inputs) == {np.dtype(np.float64)}


def test_a_float64_block_reaches_lapack_without_a_copy(solve_inputs):
    # an exactly Hermitian float64 block is solved as it is: no complex copy,
    # no real part taken of one
    real, _ = _real_and_last_column_complex()
    hermitian_spectrum(real, real)
    assert len(solve_inputs) == 1 and solve_inputs[0][1] is real


def test_any_nonzero_imaginary_entry_keeps_complex_arithmetic(solve_inputs):
    # the first column alone never decides "real": an imaginary part of 1e-300
    # in the last column is found by the full scan
    _, tiny = _real_and_last_column_complex()
    first_column = np.diag([1.0, 2.0, 3.0, 4.0]).astype(np.complex128)
    first_column[2, 0], first_column[0, 2] = 1e-300j, -1e-300j
    for m in (tiny, first_column):
        solve_inputs.clear()
        _solve_all_four(m)
        assert _dtypes(solve_inputs) == {np.dtype(np.complex128)}


def test_winding_demo_solves_in_real_arithmetic(solve_counts, solve_inputs):
    # the flagship is real end to end: one eigensolve of R and two SVDs
    # (x, [D, x]), every one of them on a float64 matrix
    idx, _ = winding_demo(2, 25)
    assert idx == 2
    assert (solve_counts["eigvalsh"], solve_counts["svd"]) == (1, 2)
    assert _dtypes(solve_inputs) == {np.dtype(np.float64)}
