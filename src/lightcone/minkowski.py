"""Linear algebra of Minkowski 4-space with signature (-, +, +, +).

Vectors are plain numpy arrays whose last axis has length four; component
zero is the time coordinate.  Everything here is pure and broadcastable.
"""

from __future__ import annotations

import numpy as np

from .errors import NotUnitTimelike

#: Diagonal of the metric tensor in canonical coordinates.
SIGNATURE = np.array([-1.0, 1.0, 1.0, 1.0])

#: Metric tensor as a matrix.
G = np.diag(SIGNATURE)

#: Tolerance of ``boost_to`` on <u, u> = -1 and on each frame vector's norm.
_BOOST_TOL = 1e-10


def vec(x0, x1, x2, x3):
    """Build a Minkowski vector from its four components."""
    return np.array([x0, x1, x2, x3], dtype=float)


def inner(a, b):
    """Signature (-,+,+,+) inner product, broadcast over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (
        -a[..., 0] * b[..., 0]
        + a[..., 1] * b[..., 1]
        + a[..., 2] * b[..., 2]
        + a[..., 3] * b[..., 3]
    )


def boost_to(u):
    """Lorentz transform B with B(-1,0,0,0) = u and B^T G B = G.

    ``u`` must be past-pointing unit timelike (inner(u,u) = -1, u0 < 0);
    these are the observer vectors whose round spheres the catalog builds.
    Constructed by Gram-Schmidt in the Minkowski inner product: the first
    column is -u and the spatial columns come from the canonical seeds
    e1, e2, e3, pivoting on the largest residual norm for stability.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (4,):
        raise NotUnitTimelike(f"expected a 4-vector, got shape {u.shape}")
    if not (abs(float(inner(u, u)) + 1.0) <= _BOOST_TOL and u[0] < 0.0):
        raise NotUnitTimelike(
            f"u must satisfy <u,u> = -1 with u0 < 0, "
            f"got <u,u> = {float(inner(u, u)):g}, u0 = {float(u[0]):g}"
        )

    basis = [-u]  # future-pointing unit timelike
    seeds = [vec(0, 1, 0, 0), vec(0, 0, 1, 0), vec(0, 0, 0, 1)]
    while len(basis) < 4:
        residuals = []
        for s in seeds:
            r = s.copy()
            for b in basis:
                r = r - (inner(r, b) / inner(b, b)) * b
            residuals.append(r)
        norms = [float(inner(r, r)) for r in residuals]
        k = int(np.argmax(norms))
        if norms[k] <= _BOOST_TOL:
            raise NotUnitTimelike("could not complete an orthonormal frame")
        basis.append(residuals[k] / np.sqrt(norms[k]))
        seeds.pop(k)

    return np.stack(basis, axis=1)
