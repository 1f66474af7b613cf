import os
import subprocess
import sys

import numpy as np
import pytest

import specloc
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


def test_circle_models_match_their_entrywise_definitions():
    # row j carries its 1-entry in column j + m (Fourier indices -N..N), and the
    # shift's in column i + 1: the same bits as writing the entries one by one
    for N in range(1, 11):
        dim = 2 * N + 1
        for m in range(-3, 4):
            if abs(m) > 2 * N:
                continue
            looped = np.zeros((dim, dim))
            for j in range(-N, N + 1):
                if -N <= j + m <= N:
                    looped[j + N, j + m + N] = 1.0
            x = circle_unitary_truncation(m, N).matrix
            assert x.shape == looped.shape and x.tobytes() == looped.tobytes()
    for n in range(2, 12):
        looped = np.zeros((n, n))
        for i in range(n - 1):
            looped[i, i + 1] = 1.0
        x = bilateral_shift_truncation(n).matrix
        assert x.shape == looped.shape and x.tobytes() == looped.tobytes()


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


def _largest_eigensolve(solve_inputs):
    return max(a.shape[-1] for name, a in solve_inputs if name == "eigvalsh")


def test_winding_demo_solves_x_once(solve_inputs):
    # at an explicit kappa only the delta-gap check runs: x, a partial
    # isometry, holds at most one entry per row and column, so its entries are
    # its components and one stacked SVD of 1x1 blocks solves them; R, a
    # partial permutation between +-kappa D, is solved by its components of at
    # most 2 rows; no region is placed, so neither [D, x] nor D0 is normed
    winding_demo(1, 25)
    assert [a.shape for name, a in solve_inputs if name == "svd"] == [(50, 1, 1)]
    assert _largest_eigensolve(solve_inputs) == 2


def test_winding_demo_at_positive_s(solve_inputs):
    # at s > 0 the reduced signature is a solve of its own: each localizer
    # half is solved by its components (the whole half for m = +-1, two
    # components of 10 and 12 rows for m = 2 at N = 5), then R's, of at most 2 rows
    cases = ((1, 3, None, 0.25, 14), (2, 5, 0.1, 0.2, 12), (-1, 4, 0.3, 0.4, 18))
    for m, N, kappa, s, largest in cases:
        solve_inputs.clear()
        idx, report = winding_demo(m, N, kappa=kappa, s=s)
        assert _largest_eigensolve(solve_inputs) == largest
        assert (idx, report.s, report.signature) == (m, s, 4 * m)
        reduced = build_reduced(circle_dirac(N), circle_unitary_truncation(m, N), report.kappa)
        assert report.reduced_signature == hermitian_spectrum(reduced).signature == 2 * m


def test_winding_demo_does_not_import_numpy_ma():
    # np.unique asked for no indices and no counts imports numpy.ma, about
    # 1 MB of resident memory, whatever the dtype (numpy 2.4 tests
    # np.ma.is_masked before its hash path).  winding_demo(2, 25) reads its
    # monomial pattern by index; x + s*I at (2, 5, s=0.2) is labelled, and
    # _components_by_shape asks np.unique for counts
    probe = ("import sys; from specloc import winding_demo; winding_demo(2, 25); "
             "winding_demo(2, 5, kappa=0.1, s=0.2); print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(specloc.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_winding_demo_stable_in_N(N):
    idx, _ = winding_demo(1, N)
    assert idx == 1


def test_winding_indices_negate():
    up, _ = winding_demo(3, 8)
    down, _ = winding_demo(-3, 8)
    assert up == 3 and down == -3
