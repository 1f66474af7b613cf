"""Property tests: the Hermitian spectral kernel against the dense oracle.

The oracle is ``np.linalg.eigvalsh`` of the symmetrized matrix, with the
zero threshold ``TolerancePolicy.tau`` (an SVD-based operator norm).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specloc import (
    DEFAULT_POLICY,
    HomotopyPath,
    hermitian_spectrum,
    is_self_adjoint,
    operator_norm,
    random_gapped,
    s_gap,
    verify_path,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def hermitian(draw):
    """Seeded random Hermitian matrix, possibly rank-deficient, at a drawn scale."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1e-2, 1.0, 3.0, 1e4]))
    rank = draw(st.integers(0, n))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
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


def oracle_inertia(m):
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    tau = DEFAULT_POLICY.tau(m)
    n_plus = int(np.count_nonzero(eigs > tau))
    n_minus = int(np.count_nonzero(eigs < -tau))
    return eigs, tau, (n_plus, len(eigs) - n_plus - n_minus, n_minus)


@SETTINGS
@given(hermitian())
def test_kernel_eigenvalues_equal_eigvalsh_on_hermitian_input(h):
    assert np.array_equal(hermitian_spectrum(h).eigenvalues, np.linalg.eigvalsh(h))


@SETTINGS
@given(st.one_of(hermitian(), perturbed()))
def test_kernel_tau_and_inertia_match_oracle(m):
    assume(is_self_adjoint(m))
    spectrum = hermitian_spectrum(m)
    eigs, tau, counts = oracle_inertia(m)
    np.testing.assert_array_equal(spectrum.eigenvalues, eigs)
    assert spectrum.tau == pytest.approx(tau, rel=1e-12, abs=0.0)
    assume(not np.any(np.abs(np.abs(eigs) - tau) <= 1e-12 * tau))
    assert tuple(spectrum.inertia) == counts
    assert spectrum.signature == counts[0] - counts[2]


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
    # guard = 0.5 * min over samples of s_gap(x, delta / 2), from eig(bordered(x, s)) = s + Sigma_x
    delta = frac * gap
    xs = tuple(random_gapped(d, n, gap, self_adjoint=sa, seed=seed + k) for k in range(samples))
    params = tuple(k / (samples - 1) for k in range(samples))
    cert = verify_path(HomotopyPath(xs, params), delta, mode="sa" if sa else "general")
    expected = 0.5 * min(s_gap(x, delta / 2.0) for x in xs)
    assert cert.step_guard == pytest.approx(expected, rel=1e-12, abs=0.0)
