"""Shared fixtures and independent numerical oracles for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import settings

from lightcone import catalog

# Property tests draw the same examples on every run, and a bounded number
# of them, so the suite stays deterministic and its time steady.
settings.register_profile("tier1", derandomize=True, max_examples=60, deadline=None, database=None)
settings.load_profile("tier1")


# -- finite differences ------------------------------------------------------
#
# Independent derivative oracle.  Stencil weights come from a Vandermonde
# solve, so a (2m+1)-point stencil is exact on polynomials of degree <= 2m;
# with a wide step the only error left on polynomial data is roundoff.


def fd_weights(order, n_points):
    offsets = np.arange(n_points) - n_points // 2
    V = np.vander(offsets, n_points, increasing=True).T.astype(float)
    rhs = np.zeros(n_points)
    rhs[order] = float(math.factorial(order))
    w = np.linalg.solve(V, rhs)
    return offsets, w


def mixed_partial_fd(f, i, j, h=0.5, n_points=11):
    """Central finite-difference mixed partial of f at the origin offset."""
    off_u, w_u = fd_weights(i, n_points)
    off_v, w_v = fd_weights(j, n_points)
    total = 0.0
    for a, wa in zip(off_u, w_u):
        for b, wb in zip(off_v, w_v):
            total += wa * wb * f(a * h, b * h)
    return total / h ** (i + j)


# -- random perturbed spheres -------------------------------------------------


def random_spec(rng, l_max=3, n_terms=4, total_amplitude=0.05):
    """Random harmonic spec with a fixed total amplitude budget."""
    pairs = [(l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)]
    idx = rng.choice(len(pairs), size=min(n_terms, len(pairs)), replace=False)
    raw = rng.uniform(-1.0, 1.0, size=len(idx))
    raw *= total_amplitude / np.sum(np.abs(raw))
    return catalog.HarmonicSpec(
        terms=tuple((pairs[k][0], pairs[k][1], float(a)) for k, a in zip(idx, raw))
    )


def random_perturbed_sphere(rng, l_max=3, total_amplitude=0.05, require_definite=True):
    """Random perturbed sphere, resampled until II stays positive definite.

    The curvature relation presumes a Riemannian second form; small total
    amplitudes keep the family inside that regime, and the loop guards the
    rare draw that leaves it.
    """
    from lightcone.surfaces import JetFrame

    for _ in range(20):
        spec = random_spec(rng, l_max=l_max, total_amplitude=total_amplitude)
        patch = catalog.perturbed_sphere(spec)
        if not require_definite:
            return patch, spec
        u, v = patch.grid_points((24, 48))
        frame = JetFrame(patch, u, v)
        if np.all(frame.ii_positive) and np.min(frame.detA_val) > 1e-3:
            return patch, spec
    raise RuntimeError("could not draw a definite perturbed sphere")


# -- fixtures -----------------------------------------------------------------


@pytest.fixture(scope="session")
def unit_sphere():
    return catalog.round_sphere(r=1.0)


@pytest.fixture(scope="session")
def cylinder():
    return catalog.product_cylinder()


@pytest.fixture(scope="session")
def paraboloid():
    return catalog.paraboloid_graph()


@pytest.fixture(scope="session")
def bumpy_sphere():
    spec = catalog.HarmonicSpec(terms=((2, 0, 0.04), (3, 1, 0.02), (1, -1, 0.03)))
    return catalog.perturbed_sphere(spec)
