import dataclasses

import numpy as np
import pytest

import specloc.clifford as clifford_module

from specloc import (
    bilateral_shift_truncation,
    circle_dirac,
    clifford_rep,
    direct_sum,
    doubled_matrix,
    even_triple,
    embed_low,
    graded_part,
    identity_element,
    max_delta,
    operator_element,
    reduce_periodic,
    relation_residuals,
    sigma_spectrum,
    verify_doubling,
)
from specloc.errors import (
    DimensionMismatchError,
    ModeMismatchError,
    NotOddError,
    NotSelfAdjointError,
)

from oracles import clifford_rep_dense, relation_residual


def test_p1_exact_form():
    rep = clifford_rep(1)
    assert rep.rep_dim == 2 and rep.parity == "odd"
    np.testing.assert_allclose(rep.generators[0], np.diag([1.0, -1.0]))
    np.testing.assert_allclose(rep.grading, [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="at least 1"):
        clifford_rep(0)


def test_p2_exact_form():
    rep = clifford_rep(2)
    assert rep.rep_dim == 2 and rep.parity == "even"
    np.testing.assert_allclose(rep.generators[0], [[0, 1], [1, 0]])
    np.testing.assert_allclose(rep.generators[1], [[0, -1j], [1j, 0]])
    np.testing.assert_allclose(rep.grading, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
def test_relations(p):
    rep = clifford_rep(p)
    assert rep.rep_dim == 2 ** ((p + 1) // 2)
    assert len(rep.generators) == p
    residuals = relation_residual(rep)
    assert max(residuals.values()) < 1e-12
    assert relation_residuals(rep) == residuals


def test_the_models_relations_are_decided_without_a_norm(monkeypatch):
    # every generator and grading is a phase permutation: index maps decide every
    # relation, and the dense route, which always takes a norm, is never reached
    def no_norm(m):
        raise AssertionError("a residual took the dense route")

    monkeypatch.setattr(clifford_module, "operator_norm", no_norm)
    for p in (1, 2, 9, 12):
        residuals = relation_residuals(clifford_rep(p))
        assert set(residuals.values()) == {0.0}
        assert len(residuals) == p * (p + 1) // 2 + 2 * p + 2


@pytest.mark.parametrize("p", range(1, 15))
def test_index_construction_matches_the_kronecker_products(p):
    # by value and by field: X-type generators and the gradings float64, Y-type complex128
    rep, dense = clifford_rep(p), clifford_rep_dense(p)
    assert rep == dense
    for a, b in zip((*rep.generators, rep.grading), (*dense.generators, dense.grading)):
        assert a.dtype == b.dtype


def test_even_grading_is_balanced_diagonal():
    rep = clifford_rep(4)
    half = rep.rep_dim // 2
    np.testing.assert_allclose(
        rep.grading, np.diag([1.0] * half + [-1.0] * half)
    )


def test_graded_part_projectors():
    rep = clifford_rep(2)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    even = graded_part(a, rep, 0)
    odd = graded_part(a, rep, 1)
    np.testing.assert_allclose(even + odd, a)
    np.testing.assert_allclose(graded_part(even, rep, 0), even)
    np.testing.assert_allclose(graded_part(even, rep, 1), np.zeros((2, 2)), atol=1e-15)


def test_graded_parts_match_block_structure():
    # odd p: even part of diag(x, -x) w.r.t. the swap grading vanishes
    rep1 = clifford_rep(1)
    a = np.diag([2.0, -2.0])
    np.testing.assert_allclose(graded_part(a, rep1, 0), np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(graded_part(a, rep1, 1), a)
    # even p: the antidiagonal block form is purely odd
    rep2 = clifford_rep(2)
    rng = np.random.default_rng(1)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    z = np.zeros((3, 3))
    anti = np.block([[z, b], [b.conj().T, z]])
    np.testing.assert_allclose(graded_part(anti, rep2, 1), anti)


def test_graded_part_dimension_check():
    with pytest.raises(DimensionMismatchError):
        graded_part(np.eye(3), clifford_rep(2), 0)
    with pytest.raises(ValueError, match="parity"):
        graded_part(np.eye(2), clifford_rep(2), 2)


def test_embed_low_unit():
    e = identity_element(1)
    emb = embed_low(e, "V0")
    np.testing.assert_allclose(emb.matrix, np.diag([1.0, -1.0]))
    assert emb.self_adjoint and emb.ambient_dim == 2


def test_embed_low_shift_v1():
    x = bilateral_shift_truncation(3)
    emb = embed_low(x, "V1")
    np.testing.assert_allclose(emb.matrix[:3, 3:], x.matrix)
    np.testing.assert_allclose(emb.matrix[3:, :3], x.matrix.conj().T)
    np.testing.assert_allclose(emb.matrix[:3, :3], np.zeros((3, 3)))


def test_embed_low_doubles_sigma():
    x = bilateral_shift_truncation(4)
    sigma = sigma_spectrum(x)
    doubled = sigma_spectrum(embed_low(x, "V1"))
    np.testing.assert_allclose(doubled, np.sort(np.concatenate([sigma, sigma])), atol=1e-12)
    assert max_delta(embed_low(x, "V1")) == pytest.approx(max_delta(x))


def test_embed_low_v0_needs_self_adjoint():
    with pytest.raises(ModeMismatchError):
        embed_low(bilateral_shift_truncation(3), "V0")
    with pytest.raises(ValueError, match="target"):
        embed_low(identity_element(1), "V2")


def test_round_trips():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((3, 3))
    h = operator_element(h + h.T, self_adjoint=True)
    back = reduce_periodic(embed_low(h, "V0"), 0)
    np.testing.assert_allclose(back.matrix, h.matrix)
    assert back.self_adjoint
    x = bilateral_shift_truncation(3)
    back = reduce_periodic(embed_low(x, "V1"), 1)
    np.testing.assert_allclose(back.matrix, x.matrix)


def test_reduce_p2_preserves_sigma():
    # odd element of E (x) CCl_3: diag(a, -a) with a self-adjoint on 2*dn
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = a + a.conj().T
    y = operator_element(
        np.block([[a, np.zeros((4, 4))], [np.zeros((4, 4)), -a]]),
        self_adjoint=True,
    )
    reduced = reduce_periodic(y, 2)
    np.testing.assert_allclose(reduced.matrix, a)
    assert max_delta(reduced) == pytest.approx(max_delta(y))


def test_reduce_periodic_reads_the_grading_without_building_the_representation(monkeypatch):
    # G (x) I at full size is the swap (even p) or diag(I, -I) (odd p), and
    # CCl_{p+1}'s dimension is 2^(p//2 + 1): no model of CCl_{p+1} is built
    def refuse(p):
        raise AssertionError(f"clifford_rep({p}) called")

    monkeypatch.setattr(clifford_module, "clifford_rep", refuse)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 8))
    h = a + a.T
    for p in (4, 5, 6, 7):
        y = direct_sum(h, -h) if p % 2 == 0 else doubled_matrix(a)
        reduced = reduce_periodic(operator_element(y, self_adjoint=True), p)
        assert np.array_equal(reduced.matrix, h if p % 2 == 0 else a)
    with pytest.raises(DimensionMismatchError, match="dimension 32"):
        reduce_periodic(operator_element(doubled_matrix(a), self_adjoint=True), 9)


def test_reduce_rejects_non_odd():
    bad = identity_element(4)  # commutes with any grading
    with pytest.raises(NotOddError):
        reduce_periodic(bad, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        reduce_periodic(bad, -1)
    # an odd size has no grading; size 2 is not a multiple of CCl_3's rep_dim 4
    for y, p in ((identity_element(3), 0), (identity_element(2), 2)):
        with pytest.raises(DimensionMismatchError):
            reduce_periodic(y, p)


def test_reduce_rejects_off_algebra():
    # anticommutes with the swap grading but has off-diagonal blocks
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = operator_element(np.block([[np.zeros((2, 2)), b], [b, np.zeros((2, 2))]]))
    with pytest.raises(NotOddError):
        reduce_periodic(y, 0)
    # sigma_y anticommutes with the swap grading sigma_x but is no diag(a, -a)
    sigma_y = operator_element(np.array([[0.0, 1j], [-1j, 0.0]]))
    with pytest.raises(NotOddError, match="represented algebra"):
        reduce_periodic(sigma_y, 0)


def test_reduce_rejects_non_self_adjoint_odd_input():
    # odd for the diagonal grading of CCl_2 (p = 1) and for the swap grading
    # of CCl_1 (p = 0), but not self-adjoint
    corner = operator_element(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(NotSelfAdjointError):
        reduce_periodic(corner, 1)
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    diagonal = operator_element(np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), -a]]))
    with pytest.raises(NotSelfAdjointError):
        reduce_periodic(diagonal, 0)


def test_verify_doubling_unit():
    e = identity_element(1)
    assert verify_doubling(e, 0.5)
    # both sides of the similarity have eigenvalues {-0.5 x2, 1.5 x2}
    from specloc import bordered, hermitian_spectrum

    np.testing.assert_allclose(
        hermitian_spectrum(np.kron(bordered(e, 0.5), np.eye(2))).eigenvalues,
        [-0.5, -0.5, 1.5, 1.5],
        atol=1e-12,
    )


def test_doubling_eigenvalue_multisets_agree():
    from specloc import bordered, hermitian_spectrum

    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = operator_element(a)
    s = 0.3
    zero, eye = np.zeros((3, 3)), s * np.eye(3)
    ah = a.conj().T
    four = np.block(
        [[eye, zero, zero, a], [zero, eye, ah, zero],
         [zero, a, eye, zero], [ah, zero, zero, eye]]
    )
    np.testing.assert_allclose(
        hermitian_spectrum(four).eigenvalues,
        hermitian_spectrum(np.kron(bordered(x, s), np.eye(2))).eigenvalues,
        atol=1e-12,
    )


def test_verify_doubling_shift():
    assert verify_doubling(bilateral_shift_truncation(3), 0.3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_doubling_random(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert verify_doubling(operator_element(a), 0.4)
    h = operator_element(a + a.conj().T, self_adjoint=True)
    assert verify_doubling(h, 0.4)


def test_triple_and_clifford_arrays_cannot_be_made_writable():
    # frozen like an element's matrix: a private copy numpy refuses to make writable
    d0 = np.eye(2)
    arrays = [circle_dirac(3).D0, even_triple(d0).D0]
    for p in range(1, 9):
        rep = clifford_rep(p)
        arrays += [*rep.generators, rep.grading]
    for a in arrays:
        with pytest.raises(ValueError):
            a.setflags(write=True)
    d0[0, 0] = 5.0
    assert arrays[1][0, 0] == 1.0


def test_clifford_reps_compare_and_hash_by_value():
    # generators are a tuple of arrays: compared element by element, hashed by their shapes
    a, b = clifford_rep(2), clifford_rep(2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != clifford_rep(3) and a != clifford_rep(4)
    flipped = dataclasses.replace(a, generators=(a.generators[1], a.generators[0]))
    assert flipped != a and hash(flipped) == hash(a)
    assert a != dataclasses.replace(a, generators=a.generators[:1])
    assert a != dataclasses.replace(a, grading=-a.grading)
