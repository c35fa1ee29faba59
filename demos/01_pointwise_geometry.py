#!/usr/bin/env python3
"""Tour of the pointwise geometry on the three reference surfaces.

Round spheres carry a shape operator that is a negative multiple of the
identity; the product cylinder has opposite-sign principal values; the
paraboloid graph has no shape at all in the lightlike normal direction.
"""

import numpy as np

from lightcone import catalog, point_geometry
from lightcone.surfaces import JetFrame, gauss_maps

np.set_printoptions(precision=6, suppress=True)

for r in (0.5, 1.0, 2.0):
    patch = catalog.round_sphere(r=r)
    pg = point_geometry(patch, (1.1, 0.7))
    print(f"round sphere r={r}:")
    print(f"  shape operator  = -I/(2 r^2):\n{pg.A}")
    print(f"  K = {pg.K:.6f} = 1/r^2, det A = {pg.detA:.6f} = 1/(4 r^4)")
    print(f"  curvature of II = {pg.K_eta:.12f} (exactly 2 for every radius)")
    print(f"  umbilicity gaps = {pg.gap_low:.2e}, {pg.gap_high:.2e}\n")

cyl = catalog.product_cylinder()
pg = point_geometry(cyl, (0.4, 1.3))
print("product cylinder:")
print(f"  shape operator:\n{pg.A}")
print(f"  K = {pg.K:.2e}, det A = {pg.detA:.6f}, quartic = {2 * pg.detA:.6f}")
print("  second form is indefinite, so no curvature of II here\n")

par = catalog.paraboloid_graph()
pg = point_geometry(par, (0.7, -0.3))
print("paraboloid graph:")
print(f"  normal eta = {pg.eta} (constant over the whole plane)")
print(f"  shape operator vanishes: max |A| = {np.max(np.abs(pg.A)):.2e}")
print(f"  mean curvature vector H = {pg.H} is lightlike: <H,H> = {pg.K:.2e}")

gf, gp = gauss_maps(JetFrame(par, 0.7, -0.3))
print(f"  sphere-valued Gauss maps: position {gf}, normal {gp} (frozen)")
