"""Real orthonormal spherical harmonics through degree four.

Closed polynomial forms in the direction cosines (x, y, z), so they accept
plain numbers, numpy arrays, or jets.  Normalized so the square integral
over the unit sphere is one.
"""

from __future__ import annotations

import math

_PI = math.pi

L_MAX = 4


def _c(v):
    return math.sqrt(v)


_Y = {
    (0, 0): lambda x, y, z: 0.5 * _c(1 / _PI) + 0.0 * z,
    (1, -1): lambda x, y, z: _c(3 / (4 * _PI)) * y,
    (1, 0): lambda x, y, z: _c(3 / (4 * _PI)) * z,
    (1, 1): lambda x, y, z: _c(3 / (4 * _PI)) * x,
    (2, -2): lambda x, y, z: 0.5 * _c(15 / _PI) * x * y,
    (2, -1): lambda x, y, z: 0.5 * _c(15 / _PI) * y * z,
    (2, 0): lambda x, y, z: 0.25 * _c(5 / _PI) * (3.0 * z * z - 1.0),
    (2, 1): lambda x, y, z: 0.5 * _c(15 / _PI) * x * z,
    (2, 2): lambda x, y, z: 0.25 * _c(15 / _PI) * (x * x - y * y),
    (3, -3): lambda x, y, z: 0.25 * _c(35 / (2 * _PI)) * y * (3.0 * x * x - y * y),
    (3, -2): lambda x, y, z: 0.5 * _c(105 / _PI) * x * y * z,
    (3, -1): lambda x, y, z: 0.25 * _c(21 / (2 * _PI)) * y * (5.0 * z * z - 1.0),
    (3, 0): lambda x, y, z: 0.25 * _c(7 / _PI) * z * (5.0 * z * z - 3.0),
    (3, 1): lambda x, y, z: 0.25 * _c(21 / (2 * _PI)) * x * (5.0 * z * z - 1.0),
    (3, 2): lambda x, y, z: 0.25 * _c(105 / _PI) * z * (x * x - y * y),
    (3, 3): lambda x, y, z: 0.25 * _c(35 / (2 * _PI)) * x * (x * x - 3.0 * y * y),
    (4, -4): lambda x, y, z: 0.75 * _c(35 / _PI) * x * y * (x * x - y * y),
    (4, -3): lambda x, y, z: 0.75 * _c(35 / (2 * _PI)) * y * z * (3.0 * x * x - y * y),
    (4, -2): lambda x, y, z: 0.75 * _c(5 / _PI) * x * y * (7.0 * z * z - 1.0),
    (4, -1): lambda x, y, z: 0.75 * _c(5 / (2 * _PI)) * y * z * (7.0 * z * z - 3.0),
    (4, 0): lambda x, y, z: (3.0 / 16.0)
    * _c(1 / _PI)
    * (z * z * (35.0 * z * z - 30.0) + 3.0),
    (4, 1): lambda x, y, z: 0.75 * _c(5 / (2 * _PI)) * x * z * (7.0 * z * z - 3.0),
    (4, 2): lambda x, y, z: (3.0 / 8.0)
    * _c(5 / _PI)
    * (7.0 * z * z - 1.0)
    * (x * x - y * y),
    (4, 3): lambda x, y, z: 0.75 * _c(35 / (2 * _PI)) * x * z * (x * x - 3.0 * y * y),
    (4, 4): lambda x, y, z: (3.0 / 16.0)
    * _c(35 / _PI)
    * (x * x * (x * x - 3.0 * y * y) - y * y * (3.0 * x * x - y * y)),
}


def real_harmonic(l, m, x, y, z):
    """Real orthonormal harmonic Y_{l,m} at direction cosines (x, y, z)."""
    try:
        f = _Y[(l, m)]
    except KeyError:
        raise ValueError(
            f"degree/order ({l}, {m}) outside the supported range l <= {L_MAX}"
        ) from None
    return f(x, y, z)

