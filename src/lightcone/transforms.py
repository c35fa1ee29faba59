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
from .errors import DegeneracyViolation
from .jets import Jet2
from .minkowski import inner as mink_inner
from .surfaces import JetFrame, SurfacePatch


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


def conjugate(patch, check_grid=(24, 48), floor=1e-8, _validate=True):
    """The surface traced by minus the lightlike normal of ``patch``.

    Inherits the parametrization of the original chart.  Raises
    DegeneracyViolation (with the offending point) when the shape operator
    degenerates anywhere on the check grid, since the map then fails to be
    an immersion.
    """
    if _validate:
        u, v = patch.grid_points(check_grid)
        frame = JetFrame(patch, u, v)
        bad = np.abs(frame.detA_val) <= floor
        if np.any(bad):
            k = int(np.argmax(bad))
            raise DegeneracyViolation(
                f"{patch.name}: conjugate undefined, |det A| <= {floor:.1e} "
                f"at (u, v) = ({u[k]:.6g}, {v[k]:.6g})"
            )

    def chart(uj, vj):
        inner = JetFrame(patch, uj.value, vj.value, check=False)
        return -inner.eta

    rotated = None
    if patch.rotated is not None:
        rotated = conjugate(patch.rotated, _validate=False)
    return SurfacePatch(
        name=f"conjugate({patch.name})",
        chart=chart,
        domain=patch.domain,
        closed=patch.closed,
        rotated=rotated,
    )


def third_fundamental_form(frame):
    """<A^2 u, v> in the chart basis; the induced metric of the conjugate."""
    A = frame.A_val
    A2 = np.einsum("...cd,...da->...ca", A, A)
    return np.einsum("...ca,...cb->...ab", A2, frame.g_val)


def verify_conjugate_duality(patch, grid=(24, 48)):
    """Sup residuals of the conjugate-duality identities over a grid.

    Returns a dict with:
      * ``weingarten_inverse``: sup || A~ . A - I ||
      * ``second_form_match``:  sup || II~ - II ||
      * ``curvature_ratio``:    sup | K~ - K / det A |
      * ``third_form_match``:   sup || first form of conjugate - <A^2 ., .> ||
    """
    conj = conjugate(patch, check_grid=grid)
    u, v = patch.grid_points(grid)
    f = JetFrame(patch, u, v)
    fc = JetFrame(conj, u, v)
    prod = np.einsum("...cd,...da->...ca", fc.A_val, f.A_val)
    eye = np.eye(2)
    r1 = float(np.max(np.abs(prod - eye)))
    r2 = float(np.max(np.abs(fc.II_val - f.II_val)))
    r3 = float(np.max(np.abs(fc.K_val - f.K_val / f.detA_val)))
    third = third_fundamental_form(f)
    r4 = float(np.max(np.abs(fc.g_val - third)))
    return {
        "weingarten_inverse": r1,
        "second_form_match": r2,
        "curvature_ratio": r3,
        "third_form_match": r4,
    }


def double_conjugate_residual(patch, grid=(16, 32)):
    """Sup distance between the original chart and its double conjugate.

    The double conjugate is traced by minus the normal of the conjugate, so
    its position is read off one frame of the conjugate.
    """
    u, v = patch.grid_points(grid)
    conj = JetFrame(conjugate(patch, check_grid=grid), u, v)
    return float(np.max(np.abs(-conj.eta_val - patch.position(u, v))))


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


def verify_expansion_laws(patch, sigma, points):
    """Residuals of the conformal transformation laws at sample points.

    Compares the directly computed geometry of the expanded surface with
    the predicted shape operator, second form, curvature and normal:

      * A' = e^{-2s} (A + Hess-op + |grad s|^2/2 I - ds (.) grad s)
      * II' = II + ds (x) ds - |grad s|^2/2 g - Hess s
      * K' = (K - Lap s) e^{-2s}
      * eta' = e^{-s} eta, so <psi', eta'> = 1 pairs the expanded chart
        with the rescaled normal.
    """
    u, v = points
    f = JetFrame(patch, u, v)
    s, ds, grad, grad2, hess, lap = _sigma_calculus(f, sigma)
    fe = JetFrame(expand(patch, sigma), u, v)

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
