#!/usr/bin/env python3
"""The central curvature relation, checked on random bumpy spheres.

Twice the Gauss curvature of the second fundamental form equals
K^2/det A plus a squared connection-difference term minus a squared
gradient term of det A.  The left side comes from the Brioschi formula
applied to the second form, the right side from an independent pipeline:
the two agree to rounding.
"""

import numpy as np

from lightcone import catalog
from lightcone.curvature import curvature_relation, trace_gradient_residual
from lightcone.surfaces import JetFrame

rng = np.random.default_rng(42)

spec = catalog.HarmonicSpec(terms=((2, 0, 0.05), (3, 1, 0.02), (1, -1, 0.02)))
patch = catalog.perturbed_sphere(spec)
u, v = patch.sample_points(5, rng, margin=0.1)

frame = JetFrame(patch, u, v)
out = curvature_relation(frame)
print(f"surface: {patch.name}")
print(f"{'2*Keta':>12} {'K^2/detA':>12} {'II(L,L)':>12} {'grad term':>12} {'residual':>10}")
for k in range(5):
    print(
        f"{2 * out['k_eta'][k]:12.8f} {out['k2_over_d'][k]:12.8f} "
        f"{out['ii_LL'][k]:12.8f} {out['grad_term'][k]:12.8f} "
        f"{out['residual'][k]:10.2e}"
    )

print("\nauxiliary identities at the same points:")
print(f"  II-trace of Ricci vs K^2/detA : {np.max(out['ric_residual']):.2e}")
print(f"  trace of L vs grad log detA   : {np.max(trace_gradient_residual(frame)):.2e}")

print("\nhow the relation collapses on a round sphere (every term but K^2/d dies):")
out = curvature_relation(JetFrame(catalog.round_sphere(r=1.3), 0.9, 2.0))
print(
    f"  2*Keta = {2 * out['k_eta']:.12f}, K^2/detA = {out['k2_over_d']:.12f}, "
    f"II(L,L) = {out['ii_LL']:.2e}, grad term = {out['grad_term']:.2e}"
)
