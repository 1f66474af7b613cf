#!/usr/bin/env python3
"""Gap certificates for matrix elements of operator systems.

An element x is delta-gapped when the doubled spectrum
Sigma_x = spec [[0, x], [x*, 0]] avoids (-delta, 0) u (0, delta).
The compression of the bilateral shift is the standard example: it is
singular, yet delta-gapped for every delta < 1.
"""

import numpy as np

from specloc import (
    bilateral_shift_truncation,
    bordered,
    delta_singular_check,
    hermitian_spectrum,
    max_delta,
    operator_element,
    sigma_spectrum,
)

# --- the shift compression ------------------------------------------------

x = bilateral_shift_truncation(5)
print("5x5 shift compression:\n", np.real(x.matrix).astype(int))
print("Sigma_x =", np.round(sigma_spectrum(x), 12))
print("max_delta =", max_delta(x))

for delta in (0.5, 0.99, 1.01):
    cert = delta_singular_check(x, delta)
    print(f"delta = {delta}: verdict = {cert.verdict}, marginal = {cert.marginal}")

# the bordered matrix shifts the spectrum to {s-1, s, s+1}
for s in (0.1, 0.3):
    eigs = np.unique(np.round(hermitian_spectrum(bordered(x, s)).eigenvalues, 10))
    print(f"bordered values at s = {s}: {eigs}")



def bordered_gap(y, s):
    """The bordered matrix's smallest absolute eigenvalue at shift s."""
    return float(np.min(np.abs(hermitian_spectrum(bordered(y, s)).eigenvalues)))


# the s-gap attains the min(s, delta-s) lower bound
print("s-gaps:", [(s, round(bordered_gap(x, s), 12)) for s in (0.1, 0.3, 0.5, 0.7)])

# --- the certificate's s-gaps are the bordered matrix's --------------------

# a self-adjoint element: Sigma_x is read from the singular values of x, one
# half-size solve, and eig(bordered(y, s)) = s + Sigma_x gives each s-gap
# min|s + Sigma_x| without building the full bordered matrix
rng = np.random.default_rng(0)
h = rng.standard_normal((4, 4))
y = operator_element(h + h.T)
dm = max_delta(y)
print("\nrandom self-adjoint element, max_delta =", round(dm, 6))
for delta in (0.5 * dm, 1.5 * dm):
    cert = delta_singular_check(y, delta)
    print(f"delta = {delta:.6f}: verdict = {cert.verdict}")
    for s, g in cert.s_gaps[::4]:
        print(f"  s = {s:.6f}: certificate {g:.12f}, bordered {bordered_gap(y, s):.12f}")

# --- delta = 0 is plain invertibility --------------------------------------

print("\ndelta = 0 (invertibility):")
print("  identity:", delta_singular_check(operator_element(np.eye(3)), 0.0).verdict)
print("  shift:   ", delta_singular_check(x, 0.0).verdict)
