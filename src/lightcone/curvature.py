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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, DegeneracyViolation, NotRiemannianII
from .jets import Jet2
from .surfaces import _inv2, _stack2

#: Smallest |det A| at which the difference tensor is built.
_DEGENERACY_FLOOR = 1e-10


@dataclass
class MetricField:
    """Symmetric 2x2 metric in chart coordinates with jet-valued entries."""

    E: Jet2
    F: Jet2
    G: Jet2

    def det_val(self):
        e, f, g = self.E.value, self.F.value, self.G.value
        return e * g - f * f

    def require_nondegenerate(self):
        if np.any(self.det_val() == 0.0):
            raise DegenerateMetric("metric determinant vanishes at the base point")


def christoffels(m, gi=None):
    """Levi-Civita symbols of a metric field, as an array indexed [..., c, a, b].

    Built from the first partials of E, F, G and the inverse-metric values
    ``gi`` (an array [..., a, b]); a caller that already holds them passes
    them in, otherwise they are formed from the adjugate.
    """
    if gi is None:
        m.require_nondegenerate()
        e, f, g, det = m.E.value, m.F.value, m.G.value, m.det_val()
        gi = _stack2(g / det, -f / det, -f / det, e / det)
    # dg[..., p, a, b] = d_p g_ab, symmetric in (a, b).
    dg = np.stack(
        [_stack2(m.E.partial(*p), m.F.partial(*p), m.F.partial(*p), m.G.partial(*p))
         for p in ((1, 0), (0, 1))],
        axis=-3,
    )
    # t[..., d, a, b] = d_a g_db + d_b g_da - d_d g_ab
    t = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    return (gi[..., :, 0, None, None] * t[..., None, 0, :, :]
            + gi[..., :, 1, None, None] * t[..., None, 1, :, :]) * 0.5


def brioschi_curvature(m):
    """Gauss curvature of a metric field from E, F, G and two derivative levels."""
    m.require_nondegenerate()
    E, F, G = m.E, m.F, m.G
    Eu, Ev = E.partial(1, 0), E.partial(0, 1)
    Gu, Gv = G.partial(1, 0), G.partial(0, 1)
    Fu, Fv = F.partial(1, 0), F.partial(0, 1)
    Evv = E.partial(0, 2)
    Guu = G.partial(2, 0)
    Fuv = F.partial(1, 1)
    e, f, g = E.value, F.value, G.value

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
    det = e * g - f * f
    return (m1 - m2) / det**2


def _det3(a, b, c, d, e, f, g, h, i):
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def second_form_curvature(frame):
    """Gauss curvature of the eta-second fundamental form, once II is definite."""
    if not np.all(frame.ii_positive):
        raise NotRiemannianII(
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
    return np.sqrt(np.einsum("...c,...cd,...d->...", w, g, w))


@dataclass
class DifferenceTensor:
    """Difference of the II and induced Levi-Civita connections.

    ``L[..., a, b, c]`` is the output component c of L(e_a, e_b); the tensor
    is symmetric in (a, b), and lowering the output index with II makes it
    totally symmetric.
    """

    L: np.ndarray
    lowered: np.ndarray


def difference_tensor(frame):
    """L = (1/2) A^{-1} (nabla A), the connection difference tensor; read ``frame.difference``."""
    detA = frame.detA_val
    if np.any(np.abs(detA) < _DEGENERACY_FLOOR):
        raise DegeneracyViolation(
            f"{frame.patch.name}: |det A| fell below {_DEGENERACY_FLOOR:.1e} "
            f"(min {np.min(np.abs(detA)):.3e})"
        )
    inv = _inv2(frame.A_val, detA)
    L = 0.5 * np.einsum("...cd,...adb->...abc", inv, frame.nabla_A)
    lowered = np.einsum("...abc,...cd->...abd", L, frame.II_val)
    return DifferenceTensor(L=L, lowered=lowered)


def trace_gradient_residual(frame):
    """Residual of the identity tying the II-trace of L to grad(log det A).

    Returned as the sup of the components of the II-lowered difference
    between the contracted tensor and grad(det A) / (2 det A).
    """
    lt = frame.difference
    ii_inv = frame.II_inv_val
    tr_l = np.einsum("...ab,...abc->...c", ii_inv, lt.L)
    grad = np.einsum("...cd,...d->...c", ii_inv, frame.detA_grad)
    v = tr_l - grad / (2.0 * frame.detA_val[..., None])
    w = np.einsum("...bc,...c->...b", frame.II_val, v)
    return np.max(np.abs(w), axis=-1)


def curvature_relation(frame):
    """Both sides of the central curvature relation, plus diagnostics.

    Returns a dict with the residual, the Brioschi curvature of II, the
    three right-hand-side pieces, and the residual of the auxiliary trace
    identity tr_II(Ric) = K^2 / det A.
    """
    keta = second_form_curvature(frame)
    detA = frame.detA_val
    lt = frame.difference
    ii = frame.II_val
    ii_inv = frame.II_inv_val

    ii_LL = np.einsum(
        "...ac,...bd,...abe,...cdf,...ef->...",
        ii_inv, ii_inv, lt.L, lt.L, ii,
    )
    d_det = frame.detA_grad
    grad_sq = np.einsum("...ab,...a,...b->...", ii_inv, d_det, d_det)
    k2_over_d = frame.K_val**2 / detA
    rhs = k2_over_d + ii_LL - grad_sq / (4.0 * detA**2)
    residual = np.abs(2.0 * keta - rhs)

    # Auxiliary identity: the II-trace of the Ricci form of the induced
    # metric equals K^2/det A.  Uses the Brioschi K for independence.
    k_br = frame.K_brioschi
    ric_tr = k_br * np.einsum("...ab,...ba->...", ii_inv, frame.g_val)
    ric_residual = np.abs(ric_tr - k_br**2 / detA)

    return {
        "residual": residual,
        "k_eta": keta,
        "k2_over_d": k2_over_d,
        "ii_LL": ii_LL,
        "grad_term": grad_sq / (4.0 * detA**2),
        "ric_residual": ric_residual,
    }
