"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np

from specloc import (
    HomotopyPath,
    bilateral_shift_truncation,
    bordered,
    build_reduced,
    circle_dirac,
    circle_unitary_truncation,
    clifford_rep,
    contract_invertible,
    delta_singular_check,
    embed_low,
    hermitian_spectrum,
    identity_element,
    index,
    max_delta,
    odd_triple,
    operator_element,
    random_gapped,
    reduce_periodic,
    stabilize,
    valid_region,
    verify_doubling,
    verify_path,
    winding_demo,
)

from oracles import build_generalized, gap_bound_check, grid_check


def signature_of(matrix):
    return hermitian_spectrum(matrix).signature


def test_criterion_1_fig1_reproduction():
    idx1, report1 = winding_demo(1, 3, kappa=1.0, s=0.0)
    assert report1.reduced_signature == 2
    assert idx1 == 1
    idx2, _ = winding_demo(2, 3, kappa=0.1, s=0.0)
    assert idx2 == 2
    print("ACCEPTANCE 1 (Fig. 1 reproduction): PASS "
          f"[m=1: Sig(L_odd)={report1.reduced_signature}, index={idx1}; m=2: index={idx2}]")


def test_criterion_2_winding_sweep():
    results = {}
    for m in (-3, -2, -1, 1, 2, 3):
        idx, _ = winding_demo(m, 8)
        results[m] = idx
        assert idx == m
    print(f"ACCEPTANCE 2 (winding sweep N=8, default kappa/s): PASS {results}")


def test_criterion_3_toeplitz_bordered_spectrum():
    for n in range(3, 9):
        x = bilateral_shift_truncation(n)
        for s in (0.1, 0.3, 0.5):
            eigs = hermitian_spectrum(bordered(x, s)).eigenvalues
            expected = np.sort([s - 1.0] * (n - 1) + [s, s] + [s + 1.0] * (n - 1))
            np.testing.assert_allclose(eigs, expected, atol=1e-10)
            assert set(np.round(expected, 12)) == {
                round(s - 1.0, 12), round(s, 12), round(s + 1.0, 12)
            }
    print("ACCEPTANCE 3 (Toeplitz bordered spectrum {s-1, s, s+1}): PASS "
          "[n=3..8, s in {0.1, 0.3, 0.5}, tol 1e-10]")


def test_criterion_4_unit_localizer_spectrum():
    triple = circle_dirac(3)
    e = identity_element(7)
    lam = np.arange(-3, 4)
    for kappa in (0.1, 0.5, 1.0):
        for s in (0.1, 0.4, 0.8):
            loc = build_generalized(triple, e, kappa, s)
            expected = np.sort(
                [
                    sign * np.sqrt((1 + pm * s) ** 2 + kappa**2 * l**2)
                    for l in lam
                    for sign in (1, -1)
                    for pm in (1, -1)
                ]
            )
            eigs = hermitian_spectrum(loc).eigenvalues
            np.testing.assert_allclose(eigs, expected, atol=1e-10)
            assert signature_of(loc) == 0
    print("ACCEPTANCE 4 (unit localizer spectrum, 3x3 grid): PASS "
          "[eigenvalues match +-sqrt((1+-'s)^2 + k^2 l^2) to 1e-10, Sig=0]")


def test_criterion_5_region_constancy():
    checked = 0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 3))
        delta = float(rng.uniform(0.3, 0.6))
        self_adjoint = bool(rng.integers(0, 2))
        x = random_gapped(d, n, delta, self_adjoint=self_adjoint, seed=2000 + trial)
        triple = odd_triple(np.diag(rng.uniform(-2.0, 2.0, size=d)))
        region = valid_region(triple, x, delta)
        signatures = set()
        for i in range(1, 6):
            s = delta * i / 6.0
            for j in range(1, 6):
                kappa = region.kappa_max(s) * j / 6.0
                report = gap_bound_check(triple, x, kappa, s)
                assert report.passed, (trial, s, kappa)
                loc = build_generalized(triple, x, kappa, s)
                signatures.add(signature_of(loc))
                checked += 1
        assert len(signatures) == 1, (trial, signatures)
    print(f"ACCEPTANCE 5 (region constancy + gap bound): PASS "
          f"[20 elements, {checked} grid points]")


def test_criterion_6_mode_agreement():
    agreements = 0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        size = int(rng.integers(2, 6))
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        if trial % 2:
            a = (a + a.conj().T) / 2
        x = operator_element(a / np.linalg.norm(a, 2))
        dmax = max_delta(x)
        factor = float(rng.uniform(0.3, 1.7))
        if abs(factor - 1.0) < 0.05:
            factor = 1.2
        delta = dmax * factor
        spectrum = delta_singular_check(x, delta).verdict
        grid = grid_check(x, delta, grid_points=9).verdict
        assert spectrum == grid, (trial, delta, dmax)
        agreements += 1
    print(f"ACCEPTANCE 6 (certificate/bordered grid agreement): PASS [{agreements}/100]")


def test_criterion_7_clifford_suite():
    for p in range(1, 13):
        rep = clifford_rep(p)
        eye = np.eye(rep.rep_dim)
        for i, gi in enumerate(rep.generators):
            assert np.linalg.norm(gi - gi.conj().T, 2) < 1e-12
            assert np.linalg.norm(rep.grading @ gi + gi @ rep.grading, 2) < 1e-12
            for j, gj in enumerate(rep.generators):
                target = 2.0 * eye if i == j else 0.0 * eye
                assert np.linalg.norm(gi @ gj + gj @ gi - target, 2) < 1e-12
        assert np.linalg.norm(rep.grading @ rep.grading - eye, 2) < 1e-12

    # embed/reduce round trips are identities
    rng = np.random.default_rng(7)
    h = rng.standard_normal((3, 3))
    h = operator_element(h + h.T, self_adjoint=True)
    assert np.array_equal(reduce_periodic(embed_low(h, "V0"), 0).matrix, h.matrix)
    g = operator_element(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert np.array_equal(reduce_periodic(embed_low(g, "V1"), 1).matrix, g.matrix)

    doublings = 0
    for trial in range(20):
        rng = np.random.default_rng(4000 + trial)
        size = int(rng.integers(1, 5))
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        if trial % 2:
            a = (a + a.conj().T) / 2
        x = operator_element(a)
        s = float(rng.uniform(0.05, 0.9))
        assert verify_doubling(x, s)
        doublings += 1
    print(f"ACCEPTANCE 7 (Clifford suite p<=12, round trips, {doublings} doublings): PASS")


def test_criterion_8_invariance_suite():
    triple = circle_dirac(3)
    x1 = circle_unitary_truncation(1, 3)
    x2 = circle_unitary_truncation(2, 3)

    # additivity under direct sum (amplified Dirac)
    both = operator_element(
        np.block([[x1.matrix, np.zeros((7, 7))], [np.zeros((7, 7)), x2.matrix]]),
        block_size=2,
    )
    idx_both, _ = index(triple, both, 1.0, kappa=0.1, s=0.0)
    idx1, _ = index(triple, x1, 1.0, kappa=0.1, s=0.0)
    idx2, _ = index(triple, x2, 1.0, kappa=0.1, s=0.0)
    assert idx_both == idx1 + idx2 == 3

    # invariance under stabilization
    idx_stab, _ = index(triple, stabilize(x1, 3), 1.0, kappa=0.5, s=0.0)
    assert idx_stab == idx1 == 1

    # invariance under a certified unitary-conjugation homotopy
    # (diagonal phases commute with the diagonal Dirac operator)
    rng = np.random.default_rng(11)
    phases = rng.uniform(-np.pi, np.pi, size=7)
    params = tuple(k / 64 for k in range(65))
    samples = []
    for t in params:
        u = np.diag(np.exp(1j * t * phases))
        samples.append(operator_element(u @ x1.matrix @ u.conj().T))
    cert = verify_path(HomotopyPath(tuple(samples), params), 1.0)
    assert cert.verdict
    idx_conj, _ = index(triple, samples[-1], 1.0, kappa=0.5, s=0.0)
    assert idx_conj == idx1

    # region-mode invariance on random gapped elements
    for seed in (0, 1, 2):
        rng = np.random.default_rng(5000 + seed)
        d = int(rng.integers(2, 5))
        rand_triple = odd_triple(np.diag(rng.uniform(-2, 2, size=d)))
        x = random_gapped(d, 1, 0.4, self_adjoint=False, seed=seed)
        y = random_gapped(d, 1, 0.4, self_adjoint=False, seed=seed + 50)
        ix, _ = index(rand_triple, x, 0.4)
        iy, _ = index(rand_triple, y, 0.4)
        ixy, _ = index(rand_triple, operator_element(
            np.block([[x.matrix, np.zeros((d, d))], [np.zeros((d, d)), y.matrix]]),
            block_size=2), 0.4)
        assert ixy == ix + iy
        i_stab, _ = index(rand_triple, stabilize(x, 2), 0.4)
        assert i_stab == ix

    # Sig(generalized, s=0) = 2 * Sig(reduced) whenever invertible
    cases = [(x1, 1.0), (x2, 0.1), (x1, 0.5)]
    for seed in (3, 4):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        cases.append((random_gapped(d, 1, 0.4, seed=seed), 0.3))
    for x, kappa in cases:
        trip = circle_dirac(3) if x.dim == 7 else odd_triple(
            np.diag(np.random.default_rng(0).uniform(-2, 2, size=x.dim))
        )
        red = build_reduced(trip, x, kappa)
        gen = build_generalized(trip, x, kappa, 0.0)
        red_eigs = hermitian_spectrum(red).eigenvalues
        if np.min(np.abs(red_eigs)) > 1e-10:
            assert signature_of(gen) == 2 * signature_of(red)
    print("ACCEPTANCE 8 (invariance suite): PASS "
          "[additivity, stabilization, conjugation homotopy, s=0 reduction]")


def test_criterion_9_contraction_demo():
    done = 0
    for trial in range(50):
        rng = np.random.default_rng(6000 + trial)
        size = int(rng.integers(2, 9))
        while True:
            a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            if np.linalg.svd(a, compute_uv=False)[-1] > 0.05:
                break
        path = contract_invertible(operator_element(a), steps=65)
        assert len(path.samples) == 65
        worst = min(
            np.linalg.svd(s.matrix, compute_uv=False)[-1] for s in path.samples
        )
        assert worst > 1e-8, (trial, worst)
        done += 1
    print(f"ACCEPTANCE 9 (contraction demo): PASS [{done}/50, 65 samples each, "
          "min singular > 1e-8]")
