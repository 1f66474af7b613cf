import numpy as np
import pytest

from specloc import (
    bilateral_shift_truncation,
    build_reduced,
    circle_dirac,
    circle_unitary_truncation,
    commutator_norm,
    delta_singular_check,
    hermitian_spectrum,
    max_delta,
    random_gapped,
    sigma_spectrum,
    winding_demo,
)
from specloc.errors import BadDeltaError, WindingTooLargeError


def test_circle_dirac_small():
    triple = circle_dirac(1)
    np.testing.assert_allclose(triple.D0, np.diag([-1.0, 0.0, 1.0]))
    assert triple.parity == "odd"
    d3 = circle_dirac(3).D0
    assert d3.shape == (7, 7)
    eigs = np.sort(np.real(np.diag(d3)))
    np.testing.assert_allclose(eigs, -eigs[::-1])
    assert 0.0 in eigs
    with pytest.raises(ValueError, match="N must"):
        circle_dirac(0)


def test_truncation_m1_entries():
    # ones on the first superdiagonal: Fourier (j, j+1)
    x = circle_unitary_truncation(1, 1)
    np.testing.assert_allclose(
        x.matrix, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    )


def test_truncation_sigma():
    sigma = sigma_spectrum(circle_unitary_truncation(1, 3))
    np.testing.assert_allclose(
        sigma, [-1] * 6 + [0, 0] + [1] * 6, atol=1e-12
    )
    assert max_delta(circle_unitary_truncation(1, 3)) == pytest.approx(1.0)


def test_truncation_adjoint():
    x = circle_unitary_truncation(2, 3)
    y = circle_unitary_truncation(-2, 3)
    np.testing.assert_allclose(y.matrix, x.matrix.conj().T)


def test_truncation_winding_too_large():
    with pytest.raises(WindingTooLargeError):
        circle_unitary_truncation(5, 2)


def test_bilateral_shift_exact():
    x = bilateral_shift_truncation(3)
    np.testing.assert_allclose(x.matrix, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert delta_singular_check(x, 0.99).verdict
    assert not delta_singular_check(x, 1.01).verdict
    with pytest.raises(ValueError, match="n must"):
        bilateral_shift_truncation(1)


@pytest.mark.parametrize("self_adjoint", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_gapped_contract(seed, self_adjoint):
    x = random_gapped(4, 2, 0.3, self_adjoint=self_adjoint, seed=seed)
    assert x.dim == 8 and x.block_size == 2
    assert delta_singular_check(x, 0.3).verdict
    if self_adjoint:
        np.testing.assert_allclose(x.matrix, x.matrix.conj().T, atol=1e-14)


def test_random_gapped_deterministic():
    a = random_gapped(3, 1, 0.4, seed=42)
    b = random_gapped(3, 1, 0.4, seed=42)
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_random_gapped_bad_delta():
    with pytest.raises(BadDeltaError):
        random_gapped(3, 1, 1.5)


def test_commutator_scaling():
    for m in (1, 2, 3):
        triple = circle_dirac(4)
        x = circle_unitary_truncation(m, 4)
        assert commutator_norm(triple, x) == pytest.approx(abs(m))


def test_winding_demo_fig1():
    idx, report = winding_demo(1, 3, kappa=1.0, s=0.0)
    assert idx == 1
    assert report.reduced_signature == 2
    assert report.signature == 4
    idx, report = winding_demo(2, 3, kappa=0.1, s=0.0)
    assert idx == 2
    assert report.reduced_signature == 4


def test_winding_demo_defaults():
    for m in (-2, -1, 1, 2):
        idx, report = winding_demo(m, 5)
        assert idx == m
        assert report.kappa == pytest.approx(1.0 / (2 * abs(m)))
        assert report.s == 0.0


def test_winding_demo_solves_x_once(solve_counts):
    # at s = 0: one SVD of x for the certificate, which also gives the report's
    # gap bound sigma_min(x), one for ||[D, x]||, one eigensolve of R; the
    # Hoelder bound of ||D0|| decides the region, so D0 takes no SVD
    winding_demo(1, 25)
    assert (solve_counts["svd"], solve_counts["eigvalsh"]) == (2, 1)


def test_winding_demo_at_positive_s(solve_counts):
    # at s > 0 the reduced signature is a solve of its own: one eigensolve per
    # localizer half, one of R
    for m, N, kappa, s in ((1, 3, None, 0.25), (2, 5, 0.1, 0.2), (-1, 4, 0.3, 0.4)):
        solve_counts.clear()
        idx, report = winding_demo(m, N, kappa=kappa, s=s)
        assert solve_counts["eigvalsh"] == 3
        assert (idx, report.s, report.signature) == (m, s, 4 * m)
        reduced = build_reduced(circle_dirac(N), circle_unitary_truncation(m, N), report.kappa)
        assert report.reduced_signature == hermitian_spectrum(reduced).signature == 2 * m


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_winding_demo_stable_in_N(N):
    idx, _ = winding_demo(1, N)
    assert idx == 1


def test_winding_indices_negate():
    up, _ = winding_demo(3, 8)
    down, _ = winding_demo(-3, 8)
    assert up == 3 and down == -3
