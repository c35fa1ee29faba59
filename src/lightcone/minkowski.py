"""Linear algebra of Minkowski 4-space with signature (-, +, +, +).

Vectors are plain numpy arrays whose last axis has length four; component
zero is the time coordinate.  Everything here is pure and broadcastable.
"""

from __future__ import annotations

import numpy as np

from .errors import LightconeError

#: Diagonal of the metric tensor in canonical coordinates.
SIGNATURE = np.array([-1.0, 1.0, 1.0, 1.0])

#: Metric tensor as a matrix.
G = np.diag(SIGNATURE)

#: Tolerance of ``boost_to`` on <u, u> = -1.
_BOOST_TOL = 1e-10

#: Largest observer component ``boost_to`` squares; four squares of it stay finite.
_COMPONENT_MAX = 1e150


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
    """The pure boost B with B(-1, 0, 0, 0) = u.

    ``u`` must be past-pointing unit timelike (inner(u,u) = -1, u0 < 0);
    these are the observer vectors whose round spheres the catalog builds.
    With -u = (gamma, p), B = [[gamma, p^T], [p, I + p p^T / (1 + gamma)]]:
    the one proper, orthochronous Lorentz map taking (-1, 0, 0, 0) to u
    that fixes every direction orthogonal to p.  It is symmetric, and the
    rest observer u = (-1, 0, 0, 0) gives exactly the identity.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (4,):
        raise LightconeError(f"expected a 4-vector, got shape {u.shape}")
    # Rejected before <u, u> is formed, which would overflow; NaN passes
    # here and fails the test below.
    if np.any(np.abs(u) > _COMPONENT_MAX):
        raise LightconeError(
            f"u must satisfy <u,u> = -1 with u0 < 0, "
            f"got a component beyond {_COMPONENT_MAX:g} in {u.tolist()}"
        )
    if not (abs(float(inner(u, u)) + 1.0) <= _BOOST_TOL and u[0] < 0.0):
        raise LightconeError(
            f"u must satisfy <u,u> = -1 with u0 < 0, "
            f"got <u,u> = {float(inner(u, u)):g}, u0 = {float(u[0]):g}"
        )

    gamma, p = 0.0 - u[0], 0.0 - u[1:]
    return np.block([[gamma, p], [p[:, None], np.eye(3) + np.outer(p, p) / (1.0 + gamma)]])
