"""Real orthonormal spherical harmonics.

Through degree four: closed polynomial forms in the direction cosines
(x, y, z), so they accept plain numbers, numpy arrays, or jets.  Of any
degree: ``harmonic_basis``, numeric values at (theta, phi) from the
normalized associated-Legendre recurrence.  Both are normalized so the
square integral over the unit sphere is one, and neither carries the
Condon-Shortley phase: Y_{1,1} = sqrt(3 / 4 pi) x.
"""

from __future__ import annotations

import math

import numpy as np

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


def basis_index(l, m):
    """Column of Y_{l,m} in ``harmonic_basis``: degree-major, m from -l to l."""
    return l * l + l + m


def harmonic_basis(l_max, theta, phi):
    """Every real orthonormal harmonic of degree <= l_max at flat (theta, phi) nodes.

    Returns an array (n, (l_max + 1)^2) whose column ``basis_index(l, m)``
    holds Y_{l,m}; the leading (L + 1)^2 columns are the basis of degree
    <= L for every L <= l_max.  The fully normalized Legendre functions
    p_l^m = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) P_l^m(cos theta) come from the
    three-term recurrence in l, started from the sectoral p_m^m, and
    Y_{l,+-m} = sqrt(2) p_l^m (cos m phi, sin m phi) for m > 0.  The
    array is the transpose of a row-per-harmonic buffer, so each column is
    contiguous.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    t, s = np.cos(theta), np.sin(theta)
    out = np.empty(((l_max + 1) ** 2, theta.size))
    sectoral = np.full(theta.size, 0.5 / math.sqrt(_PI))
    for m in range(l_max + 1):
        if m:
            sectoral = math.sqrt((2 * m + 1) / (2 * m)) * s * sectoral
            cos_m, sin_m = math.sqrt(2.0) * np.cos(m * phi), math.sqrt(2.0) * np.sin(m * phi)
        prev, cur = None, sectoral
        for l in range(m, l_max + 1):
            if l == m + 1:
                prev, cur = cur, math.sqrt(2 * m + 3) * t * cur
            elif l > m + 1:
                a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
                b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
                prev, cur = cur, a * (t * cur - b * prev)
            if m:
                np.multiply(cur, cos_m, out=out[basis_index(l, m)])
                np.multiply(cur, sin_m, out=out[basis_index(l, -m)])
            else:
                out[basis_index(l, 0)] = cur
    return out.T
