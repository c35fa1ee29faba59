#!/usr/bin/env python3
"""Tour of the pointwise geometry on the three reference surfaces.

Round spheres carry a shape operator that is a negative multiple of the
identity; the product cylinder has opposite-sign principal values; the
paraboloid graph has no shape at all in the lightlike normal direction.
"""

import numpy as np

from lightcone import catalog
from lightcone.curvature import second_form_curvature
from lightcone.errors import LightconeError
from lightcone.surfaces import JetFrame, gauss_maps

np.set_printoptions(precision=6, suppress=True)

for r in (0.5, 1.0, 2.0):
    f = JetFrame(catalog.round_sphere(r=r), 1.1, 0.7)
    print(f"round sphere r={r}:")
    print(f"  shape operator  = -I/(2 r^2):\n{f.A_val}")
    print(f"  K = {f.K_val:.6f} = 1/r^2, det A = {f.detA_val:.6f} = 1/(4 r^4)")
    print(f"  curvature of II = {second_form_curvature(f):.12f} (exactly 2 for every radius)")
    print(f"  umbilicity gaps = {f.gap_low:.2e}, {f.gap_high:.2e}\n")

f = JetFrame(catalog.product_cylinder(), 0.4, 1.3)
print("product cylinder:")
print(f"  shape operator:\n{f.A_val}")
print(f"  K = {f.K_val:.2e}, det A = {f.detA_val:.6f}, quartic = {2 * f.detA_val:.6f}")
try:
    second_form_curvature(f)
except LightconeError:
    print("  second form is indefinite, so no curvature of II here\n")

f = JetFrame(catalog.paraboloid_graph(), 0.7, -0.3)
print("paraboloid graph:")
print(f"  normal eta = {f.eta_val} (constant over the whole plane)")
print(f"  shape operator vanishes: max |A| = {np.max(np.abs(f.A_val)):.2e}")
print(f"  mean curvature vector H = {f.H_val} is lightlike: <H,H> = {f.K_val:.2e}")

gf, gp = gauss_maps(f)
print(f"  sphere-valued Gauss maps: position {gf}, normal {gp} (frozen)")
