#!/usr/bin/env python3
"""Conformal expansions e^sigma psi and their transformation laws.

Rescaling a lightcone surface by e^sigma multiplies the induced metric by
e^{2 sigma}; the demo checks the predicted curvature, shape operator and
second-form laws against a direct recomputation on the expanded surface.
"""

import numpy as np

from lightcone import catalog
from lightcone.surfaces import JetFrame
from lightcone.transforms import expand, verify_expansion_laws

rng = np.random.default_rng(7)
base = catalog.round_sphere(r=1.0)

print("homothety: constant sigma = log 3 turns the unit sphere into r = 3")
big = expand(base, lambda uj, vj: uj * 0.0 + np.log(3.0))
print(f"  position at (1.0, 0.5): {big.position(1.0, 0.5)}")

print("\nrandom degree-3 bump, residuals of each law at 60 random points:")
sigma = catalog.HarmonicSpec(
    terms=((1, 1, 0.03), (2, 0, 0.02), (3, -2, 0.015))
).chart_field()
laws = verify_expansion_laws(JetFrame(base, *base.sample_points(60, rng)), sigma)
for name, val in laws.items():
    print(f"  {name:<22} {np.max(val):.2e}")

print("\nexpansion of the flat cylinder by a chart-level sigma works the same:")
cyl = catalog.product_cylinder()
sigma = lambda uj, vj: (uj * uj) * 0.02 + vj * 0.01
laws = verify_expansion_laws(JetFrame(cyl, *cyl.sample_points(60, rng)), sigma)
for name in ("expansion_weingarten", "expansion_second_form", "expansion_curvature"):
    print(f"  {name:<22} {np.max(laws[name]):.2e}")
