#!/usr/bin/env python3
"""Winding numbers on the truncated circle.

The multiplication operator u(t) = exp(i m t) has winding number m.
Compressing it to the Fourier modes -N..N gives a non-invertible
Toeplitz matrix, but the matrix is still 1-gapped, and pairing it with
the truncated Dirac operator through the spectral localizer recovers m
as a quarter-signature -- already at very small truncation levels.
"""

import numpy as np

from specloc import (
    build_reduced,
    circle_dirac,
    circle_unitary_truncation,
    commutator_norm,
    hermitian_spectrum,
    index,
    max_delta,
    valid_region,
    winding_demo,
)
from specloc.errors import NotGappedError
from specloc.svgplot import eigenvalue_scatter

# --- the m = 1, N = 3 example -------------------------------------------

triple = circle_dirac(3)
x = circle_unitary_truncation(1, 3)
print("truncated Dirac:", np.real(np.diag(triple.D0)))
print("gap of the truncated unitary: max_delta =", max_delta(x))

# the reduced (odd) localizer at kappa = 1
reduced = build_reduced(triple, x, kappa=1.0)
spectrum = hermitian_spectrum(reduced)
print(f"reduced localizer: inertia = {tuple(spectrum.inertia)}, signature = {spectrum.signature}")

idx, report = winding_demo(1, 3, kappa=1.0, s=0.0)
print(f"index = Sig/4 = {idx}   (generalized signature {report.signature})")

with open("circle_m1_N3.svg", "w", encoding="utf-8") as fh:
    fh.write(eigenvalue_scatter(report.eigenvalues, report.signature,
                                "circle m=1, N=3, kappa=1"))
print("wrote circle_m1_N3.svg (red diamonds mark the positive surplus)")

# --- a winding sweep with the default evaluation point ------------------

print("\nwinding sweep at N = 8:")
for m in (-3, -2, -1, 1, 2, 3):
    idx, report = winding_demo(m, 8)
    print(f"  m = {m:+d}: index = {idx:+d}   "
          f"(kappa = {report.kappa:.4f}, min |eig| = {report.min_abs_eig:.3f})")

# --- the analytic constancy cap, and why it does not apply here ----------

print("\nthe analytic constancy cap for m=1, N=3 (delta = 1):")
print(f"  ||[D, x]|| = {commutator_norm(triple, x)}")
print("  the cap min{s, delta-s}^2 / ||[D, x]|| assumes an invertible or")
print("  self-adjoint x; this truncation is singular and not normal, so the cap")
print("  does not hold for it: valid_region places no region for it, and")
print("  default-region index refuses it:")
for name, call in (("valid_region", valid_region), ("index", index)):
    try:
        call(triple, x, delta=1.0)
    except NotGappedError as exc:
        print(f"  {name}: NotGappedError: {exc}")
print("  The index above is read at an explicit point (kappa, s = 0), where")
print("  invertibility is checked directly.")

print("\nreduced localizer spectrum:", np.round(spectrum.eigenvalues, 3))
