#!/usr/bin/env python3
"""Certified homotopies, contraction paths, and class witnesses.

A discrete path certificate needs two things: every sample gapped, and
each step h_k = ||x_{k+1} - x_k|| below the per-segment Weyl guard
a_k = (g_k - tau_k) + (g_{k+1} - tau_{k+1}), where g_k is the mid-gap
min|delta/2 + Sigma_{x_k}| and tau_k the sample's zero threshold.  Then
bordered(y, delta/2) is invertible at every point y of every segment, so
no eigenvalue crosses zero between samples.  Invertible elements of a full matrix
algebra all contract onto a scalar, which is why the delta-gapped
refinement is needed to see any classes at all; the refined classes are
separated by the localizer index.
"""

import numpy as np

from specloc import (
    HomotopyPath,
    circle_dirac,
    circle_unitary_truncation,
    contract_invertible,
    distinct_by_index,
    identity_element,
    index,
    make_witness,
    min_singular_value,
    operator_element,
    stabilize,
    verify_path,
)

# --- contracting invertibles -------------------------------------------------

for label, matrix in [
    ("identity", np.eye(2)),
    ("sign matrix", np.diag([1.0, -1.0])),
    ("mixed phases", np.diag([1.0, 1j])),
]:
    path = contract_invertible(operator_element(matrix), steps=33)
    z = path.samples[-1].matrix[0, 0]
    worst = min(min_singular_value(s.matrix) for s in path.samples)
    print(f"{label}: contracts onto z = {z:.4f}, min singular value {worst:.4f}")

# contraction paths pass the delta = 0 certificate once sampled finely enough
rng = np.random.default_rng(0)
a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 2 * np.eye(5)
path = contract_invertible(operator_element(a), steps=257)
cert = verify_path(path, 0.0)
print("random invertible: certified =", cert.verdict,
      f"(step guard {cert.step_guard:.4f}, max step {cert.max_step:.4f})")

# --- a path that fails --------------------------------------------------------

e = identity_element(1).matrix
params = tuple(k / 10 for k in range(11))
samples = tuple(operator_element((1 - t) * e + t * (-e)) for t in params)
bad = verify_path(HomotopyPath(samples, params), 0.5)
print("\nlinear path e -> -e at delta = 0.5: certified =", bad.verdict)
print("violations:", bad.violations[:4], "...")

# --- witnesses separated by the index ------------------------------------------

triple = circle_dirac(3)
w1 = make_witness(circle_unitary_truncation(1, 3), delta=1.0)
w2 = make_witness(circle_unitary_truncation(2, 3), delta=1.0)
print("\ncircle witnesses m=1 vs m=2 distinct:",
      distinct_by_index(w1, w2, triple, kappa=0.1, s=0.0))
print("indices:", *(index(triple, w.plus, w.delta, kappa=0.1, s=0.0)[0] for w in (w1, w2)))

# stabilization does not change a class
up = stabilize(circle_unitary_truncation(1, 3), 2)
w1_up = make_witness(up, delta=1.0)
print("stabilized witness distinct from original:",
      distinct_by_index(w1, w1_up, triple, kappa=0.5, s=0.0))
