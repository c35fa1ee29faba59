"""Real orthonormal spherical harmonics from one recurrence in the direction cosines.

``directions`` maps the chart point (theta, phi) to the direction cosines
(x, y, z), and ``real_harmonic`` evaluates Y_{l,m} at them, at any degree;
both take plain numbers, numpy arrays or jets.  With q_l^m the
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

from . import jets

#: Highest degree a harmonic spec or search config may name.
L_MAX = 4


def directions(theta, phi, rotation=None):
    """Direction cosines (sin theta cos phi, sin theta sin phi, cos theta), as a list.

    A ``rotation`` of shape (..., 3, 3), one 3x3 matrix or one per point,
    is applied to the direction: a chart centred off the poles of a closed
    surface (``surfaces.centred``) passes its rotations.
    """
    st, ct = jets.sin(theta), jets.cos(theta)
    cp, sp = jets.cos(phi), jets.sin(phi)
    w = [st * cp, st * sp, ct]
    if rotation is not None:
        R = np.asarray(rotation, dtype=float)
        w = [w[0] * R[..., k, 0] + w[1] * R[..., k, 1] + w[2] * R[..., k, 2] for k in range(3)]
    return w


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

