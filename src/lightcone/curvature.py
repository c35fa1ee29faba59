"""Second-level curvature machinery.

Brioschi's intrinsic Gauss curvature of an arbitrary jet-valued metric
serves as the independent oracle for both the induced metric and the
eta-second fundamental form.  On top of it sit the Codazzi residual, the
difference tensor between the two Levi-Civita connections, the trace
identity tying that tensor to the logarithmic gradient of the determinant
curvature, and the residual of the relation

    2 K^II = K^2 / det A + II(L, L) - II(grad det A, grad det A) / (4 det A^2)

which links the curvature of II to the induced curvature and the
determinant of the shape operator.

Contractions over the 2-wide chart indices are broadcast products summed
in index order from 0, nested where the inner index is summed first, so
each gives the bits of the matching ``np.einsum`` call, the oracle of the
tests, at a fraction of its cost.  Only II(L, L) is regrouped, into stages.
"""

from __future__ import annotations

import numpy as np

from .errors import LightconeError
from .jets import Jet2

#: The paper's standing hypothesis fails where |det A| <= DEGENERACY_FLOOR:
#: verify's nondegeneracy gate, the conjugate and the difference tensor all
#: read this one value.
DEGENERACY_FLOOR = 1e-8


def degenerate(detA):
    """Where |det A| is at or below the floor; written so that NaN is degenerate."""
    return ~(np.abs(detA) > DEGENERACY_FLOOR)


def christoffels(E, F, G, gi):
    """Levi-Civita symbols of the metric (E, F, G), as an array indexed [..., c, a, b].

    Built from the first partials of the jets E, F, G and the inverse-metric
    values ``gi`` (an array [..., a, b]) that the caller already holds.
    """
    # dg[..., p, a, b] = d_p g_ab, symmetric in (a, b).
    dg = np.stack(
        [_stack2(E.partial(*p), F.partial(*p), F.partial(*p), G.partial(*p))
         for p in ((1, 0), (0, 1))],
        axis=-3,
    )
    # t[..., d, a, b] = d_a g_db + d_b g_da - d_d g_ab
    t = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    return (gi[..., :, 0, None, None] * t[..., None, 0, :, :]
            + gi[..., :, 1, None, None] * t[..., None, 1, :, :]) * 0.5


def brioschi_curvature(E, F, G):
    """Gauss curvature of the metric (E, F, G) from the jets' two derivative levels."""
    e, f, g = E.value, F.value, G.value
    det = e * g - f * f
    if np.any(det == 0.0):
        raise LightconeError("metric determinant vanishes at the base point")
    Eu, Ev = E.partial(1, 0), E.partial(0, 1)
    Gu, Gv = G.partial(1, 0), G.partial(0, 1)
    Fu, Fv = F.partial(1, 0), F.partial(0, 1)
    Evv = E.partial(0, 2)
    Guu = G.partial(2, 0)
    Fuv = F.partial(1, 1)

    a11 = -0.5 * Evv + Fuv - 0.5 * Guu
    m1 = _det3(
        a11, 0.5 * Eu, Fu - 0.5 * Ev,
        Fv - 0.5 * Gu, e, f,
        0.5 * Gv, f, g,
    )
    m2 = _det3(
        np.zeros_like(e), 0.5 * Ev, 0.5 * Gu,
        0.5 * Ev, e, f,
        0.5 * Gu, f, g,
    )
    return (m1 - m2) / det**2


def brioschi_gradient(E, F, G):
    """Gradient of ``brioschi_curvature`` in the Taylor coefficients of E, F and G.

    Returns one array per jet, of shape (6,) + batch: the derivative in its
    coefficients through order two, in graded order.  The formula reads the
    value, both first partials and one second partial of each (E_vv, F_uv,
    G_uu), so two rows of each are zero.  With the minors expanded, the
    curvature is N / det^2 with det = e g - f^2 and

        N = a11 det - b (d g - f h) + c (d f - e h)
            + (E_v^2 g - 2 E_v G_u f + G_u^2 e) / 4,

    a11 = -E_vv / 2 + F_uv - G_uu / 2, b = E_u / 2, c = F_u - E_v / 2,
    d = F_v - G_u / 2 and h = G_v / 2.
    """
    e, f, g = E.value, F.value, G.value
    Eu, Ev, Fu, Fv, Gu, Gv = (J.partial(*p) for J in (E, F, G) for p in ((1, 0), (0, 1)))
    det = e * g - f * f
    inv = 1.0 / det
    inv2 = inv * inv
    a11 = -0.5 * E.partial(0, 2) + F.partial(1, 1) - 0.5 * G.partial(2, 0)
    b, c, d, h = 0.5 * Eu, Fu - 0.5 * Ev, Fv - 0.5 * Gu, 0.5 * Gv
    # The partials of N in b, c, d and h.
    nb, nc, nd, nh = f * h - d * g, d * f - e * h, c * f - b * g, b * f - c * e
    n = a11 * det + b * nb + c * nc + 0.25 * (Ev * Ev * g - 2.0 * Ev * Gu * f + Gu * Gu * e)
    K = n * inv2
    out = [np.zeros((6,) + det.shape) for _ in range(3)]
    # Rows: the value, then the coefficients of v, u, v^2, uv and u^2; a
    # coefficient of u^i v^j is the partial over i! j!.
    out[0][0] = (a11 * g - c * h + 0.25 * Gu * Gu) * inv2 - 2.0 * K * g * inv
    out[0][1] = (0.5 * (Ev * g - Gu * f) - 0.5 * nc) * inv2
    out[0][2] = 0.5 * nb * inv2
    out[0][3] = -inv
    out[1][0] = (b * h + c * d - 2.0 * a11 * f - 0.5 * Ev * Gu) * inv2 + 4.0 * K * f * inv
    out[1][1] = nd * inv2
    out[1][2] = nc * inv2
    out[1][4] = inv
    out[2][0] = (a11 * e - b * d + 0.25 * Ev * Ev) * inv2 - 2.0 * K * e * inv
    out[2][1] = 0.5 * nh * inv2
    out[2][2] = (0.5 * (Gu * e - Ev * f) - 0.5 * nd) * inv2
    out[2][5] = -inv
    return tuple(out)


def _det3(a, b, c, d, e, f, g, h, i):
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _stack2(m00, m01, m10, m11):
    """A stack of 2x2 matrices from its four (broadcast) entries."""
    entries = (m00, m01, m10, m11)
    out = np.empty(np.broadcast_shapes(*map(np.shape, entries)) + (2, 2),
                   dtype=np.result_type(*entries))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = entries
    return out


def _mat2(m):
    """The values of a nested 2x2 of jets or arrays, stacked [..., a, b]."""
    return _stack2(*(x.value if isinstance(x, Jet2) else x for row in m for x in row))


def _det2(m):
    """Determinants of a stack of 2x2 matrices."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _inv2(m, det=None):
    """Inverse of a stack of 2x2 matrices: the adjugate over the determinant."""
    if det is None:
        det = _det2(m)
    inv = np.empty_like(m)
    inv[..., 0, 0] = m[..., 1, 1]
    inv[..., 1, 1] = m[..., 0, 0]
    inv[..., 0, 1] = -m[..., 0, 1]
    inv[..., 1, 0] = -m[..., 1, 0]
    return inv / det[..., None, None]


def second_form_curvature(frame):
    """Gauss curvature of the eta-second fundamental form, once II is definite."""
    if not np.all(frame.ii_positive):
        raise LightconeError(
            f"{frame.patch.name}: second fundamental form is not positive definite"
        )
    return frame.K_eta


def codazzi_residual(frame):
    """Metric norm of (nabla_X A)Y - (nabla_Y A)X over the chart basis.

    The lightlike normal is parallel in the normal bundle, so the Codazzi
    equation forces this antisymmetric part to vanish identically.
    """
    na = frame.nabla_A
    w = na[..., 0, :, 1] - na[..., 1, :, 0]
    g = frame.g_val
    return np.sqrt(sum(w[..., c] * g[..., c, d] * w[..., d] for c, d in np.ndindex(2, 2)))


def difference_tensor(frame):
    """L = (1/2) A^{-1} (nabla A), the connection difference tensor; read ``frame.difference``.

    ``L[..., a, b, c]`` is the output component c of L(e_a, e_b), the
    difference of the II and induced Levi-Civita connections.  It is
    symmetric in (a, b), and lowering the output index with II makes it
    totally symmetric.
    """
    detA = frame.detA_val
    if np.any(degenerate(detA)):
        raise LightconeError(
            f"{frame.patch.name}: |det A| <= {DEGENERACY_FLOOR:.1e} "
            f"(min {np.min(np.abs(detA)):.3e})"
        )
    inv = _inv2(frame.A_val, detA)
    na = frame.nabla_A
    # Formed as [a, c, b], the layout of nabla_A, and read as [a, b, c].
    acb = sum(inv[..., None, :, d, None] * na[..., :, None, d, :] for d in range(2))
    return 0.5 * np.swapaxes(acb, -2, -1)


def lowered_difference(frame):
    """L with its output index lowered by II, ``[..., a, b, f]``: totally symmetric."""
    L, ii = frame.difference, frame.II_val
    return sum(L[..., e, None] * ii[..., None, None, e, :] for e in range(2))


def trace_gradient_residual(frame):
    """Residual of the identity tying the II-trace of L to grad(log det A).

    Returned at each point as the largest component of the II-lowered
    difference between the contracted tensor and grad(det A) / (2 det A).
    """
    ii_inv, L, d_det = frame.II_inv_val, frame.difference, frame.detA_grad
    tr_l = sum(sum(ii_inv[..., a, b, None] * L[..., a, b, :] for b in range(2)) for a in range(2))
    grad = sum(ii_inv[..., :, d] * d_det[..., d, None] for d in range(2))
    v = tr_l - grad / (2.0 * frame.detA_val[..., None])
    w = sum(frame.II_val[..., :, c] * v[..., c, None] for c in range(2))
    return np.max(np.abs(w), axis=-1)


def curvature_relation(frame):
    """Both sides of the central curvature relation, plus diagnostics.

    Returns a dict with the residual, the Brioschi curvature of II, the
    three right-hand-side pieces, and the residual of the auxiliary trace
    identity tr_II(Ric) = K^2 / det A.
    """
    keta = second_form_curvature(frame)
    detA = frame.detA_val
    L = frame.difference
    ii_inv = frame.II_inv_val

    # II(L, L) = h^ac h^bd L_ab^e L_cd^f II_ef, h = II^-1, in stages: lower
    # L's output index, raise its two input indices, contract with L.
    low = lowered_difference(frame)
    up = sum(ii_inv[..., a, :, None, None] * low[..., None, a, :, :] for a in range(2))
    up = sum(ii_inv[..., b, None, :, None] * up[..., :, b, None, :] for b in range(2))
    ii_LL = sum(up[..., c, d, f] * L[..., c, d, f] for c, d, f in np.ndindex(2, 2, 2))
    d_det = frame.detA_grad
    grad_sq = sum(ii_inv[..., a, b] * d_det[..., a] * d_det[..., b] for a, b in np.ndindex(2, 2))
    k2_over_d = frame.K_val**2 / detA
    rhs = k2_over_d + ii_LL - grad_sq / (4.0 * detA**2)
    residual = np.abs(2.0 * keta - rhs)

    # Auxiliary identity: the II-trace of the Ricci form of the induced
    # metric equals K^2/det A.  Uses the Brioschi K for independence.
    k_br = frame.K_brioschi
    g = frame.g_val
    ric_tr = k_br * sum(sum(ii_inv[..., a, b] * g[..., b, a] for b in range(2)) for a in range(2))
    ric_residual = np.abs(ric_tr - k_br**2 / detA)

    return {
        "residual": residual,
        "k_eta": keta,
        "k2_over_d": k2_over_d,
        "ii_LL": ii_LL,
        "grad_term": grad_sq / (4.0 * detA**2),
        "ric_residual": ric_residual,
    }
