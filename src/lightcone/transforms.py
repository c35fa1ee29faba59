"""Surface transforms: the conjugate immersion and conformal expansions.

The conjugate of a patch is the surface traced by the negated lightlike
normal; it lives on the lightcone again and is an immersion exactly when
the shape operator is nowhere degenerate.  Expansion rescales the chart by
e^sigma, deforming the induced metric conformally.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import jets
from .curvature import DEGENERACY_FLOOR, degenerate
from .errors import DegeneracyViolation
from .jets import Jet2
from .minkowski import inner as mink_inner
from .surfaces import JetFrame, SurfacePatch

#: Grid on which ``conjugate`` checks the degeneracy floor.
_CONJUGATE_CHECK_GRID = (24, 48)


class ScalarField:
    """A smooth scalar on a chart domain, evaluable on coordinate jets."""

    def __init__(self, fn: Callable[[Jet2, Jet2], Jet2]):
        self._fn = fn

    def __call__(self, uj, vj):
        out = self._fn(uj, vj)
        if not isinstance(out, Jet2):
            out = Jet2.constant(np.broadcast_to(np.asarray(out, float), uj.batch_shape))
        return out

    @classmethod
    def constant(cls, c):
        return cls(lambda uj, vj: Jet2.constant(np.full(np.broadcast_shapes(uj.batch_shape, vj.batch_shape), float(c))))


def conjugate(patch):
    """The surface traced by minus the lightlike normal of ``patch``.

    Inherits the parametrization of the original chart.  Raises
    DegeneracyViolation (with the offending point) when the shape operator
    degenerates anywhere on a 24x48 check grid, since the map then fails to
    be an immersion.
    """
    _require_immersion(JetFrame(patch, *patch.grid_points(_CONJUGATE_CHECK_GRID)))
    return _conjugate_patch(patch)


def _require_immersion(frame):
    """Raise DegeneracyViolation where |det A| on the frame is at the floor."""
    bad = degenerate(frame.detA_val)
    if np.any(bad):
        k = int(np.argmax(bad))
        u, v = np.broadcast_arrays(frame.u, frame.v)
        raise DegeneracyViolation(
            f"{frame.patch.name}: conjugate undefined, |det A| <= {DEGENERACY_FLOOR:.1e} "
            f"at (u, v) = ({u.flat[k]:.6g}, {v.flat[k]:.6g})"
        )


def _conjugate_patch(patch):
    """The conjugate chart of ``patch`` and of its rotated twin.

    Unlike ``conjugate``, no det A floor is tested here; the chart reads the
    normal of a ``patch`` frame, which is guarded like every frame.
    """

    def chart(uj, vj):
        return -JetFrame(patch, uj.value, vj.value).eta

    return SurfacePatch(
        name=f"conjugate({patch.name})",
        chart=chart,
        domain=patch.domain,
        closed=patch.closed,
        rotated=None if patch.rotated is None else _conjugate_patch(patch.rotated),
    )


def third_fundamental_form(frame):
    """<A^2 u, v> in the chart basis; the induced metric of the conjugate."""
    A = frame.A_val
    A2 = np.einsum("...cd,...da->...ca", A, A)
    return np.einsum("...ca,...cb->...ab", A2, frame.g_val)


def verify_conjugate_duality(frame):
    """Sup residuals of the conjugate-duality identities at the frame's points.

    Raises DegeneracyViolation where the frame's shape operator degenerates.
    Returns a dict with:
      * ``weingarten_inverse``: sup || A~ . A - I ||
      * ``second_form_match``:  sup || II~ - II ||
      * ``curvature_ratio``:    sup | K~ - K / det A |
      * ``third_form_match``:   sup || first form of conjugate - <A^2 ., .> ||
      * ``double_conjugate``:   ``double_conjugate_residual`` of the two frames
    """
    _require_immersion(frame)
    conj = JetFrame(_conjugate_patch(frame.patch), frame.u, frame.v)
    prod = np.einsum("...cd,...da->...ca", conj.A_val, frame.A_val)
    return {
        "weingarten_inverse": float(np.max(np.abs(prod - np.eye(2)))),
        "second_form_match": float(np.max(np.abs(conj.II_val - frame.II_val))),
        "curvature_ratio": float(np.max(np.abs(conj.K_val - frame.K_val / frame.detA_val))),
        "third_form_match": float(np.max(np.abs(conj.g_val - third_fundamental_form(frame)))),
        "double_conjugate": double_conjugate_residual(frame, conj),
    }


def double_conjugate_residual(frame, conj):
    """Sup distance between a surface and its double conjugate.

    The double conjugate is traced by minus the normal of the conjugate, so
    its position is read off ``conj``, the conjugate's frame at the points
    of ``frame``.
    """
    return float(np.max(np.abs(-conj.eta_val - frame.psi_val)))


def expand(patch, sigma):
    """Conformal expansion: the chart (u, v) -> e^sigma(u, v) psi(u, v)."""

    def chart(uj, vj):
        return patch.chart(uj, vj).scale(jets.exp(sigma(uj, vj)))

    return SurfacePatch(
        name=f"expand({patch.name})",
        chart=chart,
        domain=patch.domain,
        closed=patch.closed,
        rotated=None,
    )


def _sigma_calculus(frame, sigma):
    """Jet of sigma plus its gradient, Hessian and Laplacian on the frame."""
    s = sigma(Jet2.variable("u", frame.u), Jet2.variable("v", frame.v))
    ds, hess = frame.covariant_hessian(s)
    gi = frame.gi_val
    grad = np.einsum("...ab,...b->...a", gi, ds)
    grad2 = np.einsum("...a,...a->...", ds, grad)
    lap = np.einsum("...ab,...ab->...", gi, hess)
    return s, ds, grad, grad2, hess, lap


def verify_expansion_laws(frame, sigma):
    """Residuals of the conformal transformation laws at the frame's points.

    Compares the directly computed geometry of the expanded surface with
    the predicted shape operator, second form, curvature and normal:

      * A' = e^{-2s} (A + Hess-op + |grad s|^2/2 I - ds (.) grad s)
      * II' = II + ds (x) ds - |grad s|^2/2 g - Hess s
      * K' = (K - Lap s) e^{-2s}
      * eta' = e^{-s} eta, so <psi', eta'> = 1 pairs the expanded chart
        with the rescaled normal.
    """
    f = frame
    s, ds, grad, grad2, hess, lap = _sigma_calculus(f, sigma)
    fe = JetFrame(expand(f.patch, sigma), f.u, f.v)

    sv = s.value
    e2 = np.exp(-2.0 * sv)
    hess_op = np.einsum("...cb,...ba->...ca", f.gi_val, hess)
    eye = np.eye(2)
    pred_A = e2[..., None, None] * (
        f.A_val
        + hess_op
        + 0.5 * grad2[..., None, None] * eye
        - np.einsum("...a,...c->...ca", ds, grad)
    )
    res_A = np.max(np.abs(fe.A_val - pred_A), axis=(-2, -1))

    pred_II = (
        f.II_val
        + np.einsum("...a,...b->...ab", ds, ds)
        - 0.5 * grad2[..., None, None] * f.g_val
        - hess
    )
    res_II = np.max(np.abs(fe.II_val - pred_II), axis=(-2, -1))

    pred_K = (f.K_val - lap) * e2
    res_K = np.abs(fe.K_val - pred_K)

    # Trace consistency: minus the trace of the predicted operator must
    # reproduce the curvature law on its own.
    res_trace = np.abs(-np.einsum("...aa->...", pred_A) - pred_K)

    # The rescaled normal needs position and tangential corrections to stay
    # normal once sigma varies; the pairing with the expanded chart is
    # nevertheless exactly one for the plain rescaling.
    tang = (
        grad[..., 0:1] * f.psi_u.values + grad[..., 1:2] * f.psi_v.values
    )
    pred_eta = np.exp(-sv)[..., None] * (
        f.eta_val - 0.5 * grad2[..., None] * f.psi_val - tang
    )
    res_eta = np.max(np.abs(fe.eta_val - pred_eta), axis=-1)
    res_pair = np.abs(
        mink_inner(fe.psi_val, np.exp(-sv)[..., None] * f.eta_val) - 1.0
    )
    res_metric = np.max(
        np.abs(fe.g_val - np.exp(2.0 * sv)[..., None, None] * f.g_val), axis=(-2, -1)
    )

    return {
        "weingarten": float(np.max(res_A)),
        "second_form": float(np.max(res_II)),
        "curvature": float(np.max(res_K)),
        "trace_consistency": float(np.max(res_trace)),
        "normal": float(np.max(res_eta)),
        "pairing": float(np.max(res_pair)),
        "metric": float(np.max(res_metric)),
    }
