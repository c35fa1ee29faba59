#!/usr/bin/env python3
"""Conjugate duality: the surface traced by the negated lightlike normal.

For a nondegenerate surface the conjugate is again spacelike on the cone;
its shape operator is the inverse of the original, its second fundamental
form is unchanged, its induced metric is the third fundamental form, and
conjugating twice returns the original surface.
"""

import numpy as np

from lightcone import catalog, conjugate
from lightcone.surfaces import JetFrame
from lightcone.transforms import verify_conjugate_duality

sphere = catalog.round_sphere(r=2.0)
conj = conjugate(sphere)
th, ph = 1.0, 0.4
print("round sphere r=2 at a sample point:")
print(f"  psi       = {sphere.position(th, ph)}")
print(f"  conjugate = {conj.position(th, ph)}   (radius 1/(2r) = 0.25, antipodal)")

fA = JetFrame(sphere, th, ph).A_val
fB = JetFrame(conj, th, ph).A_val
print(f"  A original  diag {np.diag(fA)}")
print(f"  A conjugate diag {np.diag(fB)}  (inverse: product = {fB[0, 0] * fA[0, 0]:.1f})")

print("\nbumpy sphere, sup residuals over a 20x40 grid:")
patch = catalog.perturbed_sphere(
    catalog.HarmonicSpec(terms=((2, 2, 0.04), (3, 0, 0.02)))
)
res = verify_conjugate_duality(JetFrame(patch, *patch.grid_points((20, 40))))
for name, val in res.items():
    print(f"  {name:<22} {np.max(val):.2e}")

print("\nthe flat paraboloid graph has no conjugate (its normal is constant):")
try:
    conjugate(catalog.paraboloid_graph()).position(0.0, 0.0)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
