"""Real orthonormal spherical harmonics from one recurrence in the direction cosines.

``real_harmonic`` evaluates Y_{l,m} at direction cosines (x, y, z) given
as plain numbers, numpy arrays or jets, at any degree.  With q_l^m the
fully normalized associated Legendre function divided by sin^m theta, a
polynomial in z,

    Y_{l,0} = q_l^0(z),   Y_{l,+-m} = sqrt(2) q_l^m(z) (Re, Im) (x + i y)^m.

q_m^m is a constant and the three-term recurrence in l (Holmes and
Featherstone, J. Geodesy 76, 2002) builds q_l^m from it.  The harmonics
are normalized so the square integral over the unit sphere is one, and
carry no Condon-Shortley phase: Y_{1,1} = sqrt(3 / 4 pi) x.
"""

from __future__ import annotations

import math

import numpy as np

#: Highest degree a harmonic spec or search config may name.
L_MAX = 4


def real_harmonic(pairs, x, y, z):
    """Y_{l,m} at direction cosines (x, y, z) for each (l, m) of ``pairs``, in order.

    Only the orders and degrees that ``pairs`` names are formed, and the
    pairs of one order share its Legendre chain.
    """
    pairs = [(l, m) for l, m in pairs]
    out = dict.fromkeys(pairs)  # filled in as each pair is formed
    top = {}
    for l, m in pairs:
        if not abs(m) <= l:
            raise ValueError(f"degree/order ({l}, {m}) needs 0 <= |m| <= l")
        top[abs(m)] = max(top.get(abs(m), l), l)
    q_mm, re, im = 0.5 / math.sqrt(math.pi), None, None
    for m in range(max(top, default=-1) + 1):
        if m:
            q_mm *= math.sqrt((2 * m + 1) / (2 * m))
            re, im = (x, y) if m == 1 else (re * x - im * y, re * y + im * x)
        if m not in top:
            continue
        prev, cur = None, q_mm
        for l in range(m, top[m] + 1):
            if l == m + 1:
                prev, cur = cur, z * (math.sqrt(2 * m + 3) * cur)
            elif l > m + 1:
                a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
                b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
                prev, cur = cur, (z * cur - prev * b) * a
            if not m:
                if (l, 0) in out:
                    out[l, 0] = cur if l else z * 0.0 + cur  # the constant takes z's shape
                continue
            for order, part in ((m, re), (-m, im)):
                if (l, order) in out:
                    out[l, order] = part * (cur * math.sqrt(2.0))
    return [out[l, m] for l, m in pairs]


def basis_index(l, m):
    """Column of Y_{l,m} in ``harmonic_basis``: degree-major, m from -l to l."""
    return l * l + l + m


def harmonic_basis(l_max, theta, phi):
    """Every real orthonormal harmonic of degree <= l_max at flat (theta, phi) nodes.

    Returns an array (n, (l_max + 1)^2) whose column ``basis_index(l, m)``
    holds Y_{l,m}; the leading (L + 1)^2 columns are the basis of degree
    <= L for every L <= l_max.  Each column is contiguous.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    s = np.sin(theta)
    pairs = [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    return np.stack(real_harmonic(pairs, s * np.cos(phi), s * np.sin(phi), np.cos(theta))).T
