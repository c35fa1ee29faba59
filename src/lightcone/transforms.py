"""Surface transforms: the conjugate immersion and conformal expansions.

The conjugate of a patch is the surface traced by the negated lightlike
normal; it lives on the lightcone again and is an immersion exactly when
the shape operator is nowhere degenerate.  Expansion rescales the chart by
e^sigma, deforming the induced metric conformally.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import jets
from .curvature import DEGENERACY_FLOOR, _mat2, degenerate
from .errors import LightconeError
from .jets import Jet2
from .minkowski import inner as mink_inner
from .surfaces import JetFrame, SurfacePatch


def conjugate(patch):
    """The surface traced by minus the lightlike normal of ``patch``.

    Inherits the parametrization of the original chart, and has no
    ``expansion``: the conjugate is not given as e^sigma times a round
    sphere, so no chart can be centred on it.  Each evaluation builds the
    ``patch`` frame at the evaluated points, and raises LightconeError
    (with the offending point) where its shape operator degenerates, since
    the map then fails to be an immersion; building the conjugate tests no
    point.
    """

    def chart(uj, vj):
        return _conjugate_position(JetFrame(patch, uj.value, vj.value))

    return _conjugate_patch(patch, chart)


def _conjugate_patch(patch, chart):
    """The conjugate of ``patch`` as a ``SurfacePatch`` with the given chart."""
    return SurfacePatch(
        name=f"conjugate({patch.name})",
        chart=chart,
        domain=patch.domain,
        closed=patch.closed,
    )


def _conjugate_position(frame):
    """The conjugate's position jet, -eta, at the points of ``frame``."""
    _require_immersion(frame)
    return -frame.eta


def _require_immersion(frame):
    """Raise LightconeError where |det A| on the frame is at the floor."""
    bad = degenerate(frame.detA_val)
    if np.any(bad):
        k = int(np.argmax(bad))
        u, v = np.broadcast_arrays(frame.u, frame.v)
        raise LightconeError(
            f"{frame.patch.name}: conjugate undefined, |det A| <= {DEGENERACY_FLOOR:.1e} "
            f"at (u, v) = ({u.flat[k]:.6g}, {v.flat[k]:.6g})"
        )


def third_fundamental_form(frame):
    """<A^2 u, v> in the chart basis; the induced metric of the conjugate."""
    A = frame.A_val
    A2 = np.einsum("...cd,...da->...ca", A, A)
    return np.einsum("...ca,...cb->...ab", A2, frame.g_val)


def verify_conjugate_duality(frame):
    """Residuals of the conjugate-duality identities, one per point of the frame.

    The conjugate frame is built on the position -eta of ``frame``, bit for
    bit what the chart of ``conjugate(frame.patch)`` gives at its points.
    Raises LightconeError, as that chart does, where the frame's shape
    operator degenerates.
    Returns a dict keyed by the ``verify`` check names of per-point largest entries:
      * ``conjugate_weingarten``:  | A~ . A - I |
      * ``conjugate_second_form``: | II~ - II |
      * ``conjugate_curvature``:   | K~ - K / det A |
      * ``third_form``:            | first form of conjugate - <A^2 ., .> |
      * ``double_conjugate``:      ``double_conjugate_residual`` of the two frames
    """
    position = _conjugate_position(frame)

    def chart(uj, vj):
        # -eta is known only at the frame's points; anywhere else it would be wrong.
        if not (np.array_equal(uj.value, frame.u) and np.array_equal(vj.value, frame.v)):
            raise ValueError("this conjugate chart is evaluable only at the points of its frame")
        return position

    conj = JetFrame(_conjugate_patch(frame.patch, chart), frame.u, frame.v)
    return conjugate_duality_residuals(frame, conj)


def conjugate_duality_residuals(frame, conj):
    """The residuals of ``verify_conjugate_duality``.

    ``conj`` is the conjugate's frame at the points of ``frame``.
    """
    prod = np.einsum("...cd,...da->...ca", conj.A_val, frame.A_val)
    return {
        "conjugate_weingarten": np.max(np.abs(prod - np.eye(2)), axis=(-2, -1)),
        "conjugate_second_form": np.max(np.abs(conj.II_val - frame.II_val), axis=(-2, -1)),
        "conjugate_curvature": np.abs(conj.K_val - frame.K_val / frame.detA_val),
        "third_form": np.max(np.abs(conj.g_val - third_fundamental_form(frame)), axis=(-2, -1)),
        "double_conjugate": double_conjugate_residual(frame, conj),
    }


def double_conjugate_residual(frame, conj):
    """Per point, the largest coordinate of a surface minus its double conjugate.

    The double conjugate is traced by minus the normal of the conjugate, so
    its position is read off ``conj``, the conjugate's frame at the points
    of ``frame``.
    """
    return np.max(np.abs(-conj.eta_val - frame.psi_val), axis=-1)


def expand(patch, sigma):
    """Conformal expansion (u, v) -> e^sigma psi; sigma maps the coordinate jets to a Jet2."""

    def chart(uj, vj):
        return patch.chart(uj, vj).scale(jets.exp(sigma(uj, vj)))

    return SurfacePatch(
        name=f"expand({patch.name})",
        chart=chart,
        domain=patch.domain,
        closed=patch.closed,
    )


#: What ``expansion_law`` predicts for e^s psi: nested 2x2 lists ``g``, ``II``
#: and ``A``; ``K``, ``detII``, ``detA`` = det II' / det g', and the squared
#: norm ``grad2`` of the gradient of s.  The terms of II' come along: the
#: partials ``ds``, the gradient ``grad`` and the Hessian entries ``hess``
#: (indexed a + b).  II and its terms are jets valid through order two; the
#: rest are values, or floats where the base makes them constant.
Expanded = namedtuple("Expanded", "g II A K detII detA grad2 ds grad hess")


def expansion_law(base, s):
    """The geometry of e^s psi from the ``surfaces.Geometry`` of psi and the jet of s.

      * g' = e^{2s} g
      * II' = II + ds (x) ds - |grad s|^2/2 g - Hess s
      * A' = e^{-2s} (A + Hess-op + |grad s|^2/2 I - ds (.) grad s)
      * K' = (K - Lap s) e^{-2s}, Lap s the trace of Hess-op.

    II' and its terms are formed entry by entry (a symmetric one indexed by
    a + b), as jets truncated at order two, all that Brioschi's formula
    reads; a float 0.0 entry of the base drops the terms it enters.
    """
    su, sv = s.d("u"), s.d("v")
    ds = (su.truncated(2), sv.truncated(2))
    dd = (su.d("u"), su.d("v"), sv.d("v"))
    gam, g = base.gamma, base.g
    hess = [_sub(_sub(dd[a + b], _mul(gam[0][a][b], ds[0])), _mul(gam[1][a][b], ds[1]))
            for a, b in ((0, 0), (0, 1), (1, 1))]
    grad = [_add(_mul(base.gi[a][0], ds[0]), _mul(base.gi[a][1], ds[1])) for a in (0, 1)]
    grad2 = _add(_mul(ds[0], grad[0]), _mul(ds[1], grad[1]))
    half = 0.5 * grad2
    dsds = (ds[0] * ds[0], ds[0] * ds[1], ds[1] * ds[1])
    II = [[_sub(_sub(_add(base.II[a][b], dsds[a + b]), _mul(half, g[a][b])), hess[a + b])
           for b in (0, 1)] for a in (0, 1)]

    e2, conformal = np.exp(-2.0 * s.value), np.exp(2.0 * s.value)
    gi, A, K, h, d, gr, half, grad2 = map(
        _values, (base.gi, base.A, base.K, hess, ds, grad, half, grad2))
    hop = [[gi[c][0] * h[a] + gi[c][1] * h[1 + a] for a in (0, 1)] for c in (0, 1)]
    A = [[e2 * (A[c][a] + hop[c][a] + half * float(c == a) - d[a] * gr[c]) for a in (0, 1)]
         for c in (0, 1)]
    g = [[conformal * x for x in row] for row in _values(g)]
    (i00, i01), (i10, i11) = _values(II)
    det_ii = i00 * i11 - i01 * i10
    return Expanded(g, II, A, (K - (hop[0][0] + hop[1][1])) * e2, det_ii,
                    det_ii / (g[0][0] * g[1][1] - g[0][1] * g[1][0]), grad2, ds, grad, hess)


def second_form_pullback(base, law, cot):
    """A cotangent on II' carried back to the partials and the Hessian of a change of s.

    ``law`` is ``expansion_law(base, s)`` and ``cot`` = (c00, c01, c11) a
    cotangent on the Taylor coefficients through order two of II'_00,
    II'_01 and II'_11, as ``curvature.brioschi_gradient`` gives.  A change
    t of s changes II' by the term of ``expansion_law`` that is linear in t,

        dt (x) ds + ds (x) dt - <grad s, grad t> g - Hess t,

    where <grad s, grad t> = grad_c s * d_c t.  Returns the cotangents on
    the coefficients of (d_u t, d_v t) and on those of the Hessian entries
    of t (indexed a + b), whose pairing with them is that of ``cot`` with
    the change of II'.  Each truncated product is pulled back by
    ``jets.product_pullback``.
    """
    c00, c01, c11 = cot
    ds, grad, g = law.ds, law.grad, base.g
    pull = jets.product_pullback
    # The cotangent of <grad s, grad t>, which enters each entry times -g_ab.
    c_dot = -(pull(c00, g[0][0]) + pull(c01, g[0][1]) + pull(c11, g[1][1]))
    c_dt = (2.0 * pull(c00, ds[0]) + pull(c01, ds[1]) + pull(c_dot, grad[0]),
            pull(c01, ds[0]) + 2.0 * pull(c11, ds[1]) + pull(c_dot, grad[1]))
    return c_dt, (-c00, -c01, -c11)


def _values(m):
    """The values of a jet, or of the entries of a (nested) list or tuple."""
    if isinstance(m, (list, tuple)):
        return [_values(x) for x in m]
    return m.value if isinstance(m, Jet2) else m


def _mul(a, b):
    """a * b, where a float 0.0 is an exact zero (as in ``_add`` and ``_sub``)."""
    return 0.0 if (type(a) is float and a == 0.0) or (type(b) is float and b == 0.0) else a * b


def _add(a, b):
    return a if type(b) is float and b == 0.0 else b if type(a) is float and a == 0.0 else a + b


def _sub(a, b):
    return a if type(b) is float and b == 0.0 else -b if type(a) is float and a == 0.0 else a - b


def verify_expansion_laws(frame, sigma):
    """Residuals of the conformal transformation laws, one per point of the frame.

    Compares the directly computed geometry of the expanded surface with
    the prediction of ``expansion_law`` from the frame's own geometry;
    ``sigma`` maps the coordinate jets to a ``Jet2``, as in ``expand``.
    Returns a dict keyed by the ``verify`` check names of per-point largest entries:
      * ``expansion_weingarten``:  | A' - predicted A' |
      * ``expansion_second_form``: | II' - predicted II' |
      * ``expansion_curvature``:   | K' - predicted K' |
      * ``expansion_trace``:       | tr(predicted A') + predicted K' |
      * ``expansion_normal``:      | eta' - e^{-s} (eta - |grad s|^2/2 psi - grad s) |
      * ``expansion_pairing``:     | <psi', e^{-s} eta> - 1 |
      * ``expansion_metric``:      | g' - predicted g' |
    """
    f = frame
    s = sigma(Jet2.variable("u", f.u), Jet2.variable("v", f.v))
    law = expansion_law(f.geometry, s)
    fe = JetFrame(expand(f.patch, sigma), f.u, f.v)
    pred_A = _mat2(law.A)
    grad, e1 = _values(law.grad), np.exp(-s.value)[..., None]
    tang = grad[0][..., None] * f.psi_u_val + grad[1][..., None] * f.psi_v_val
    pred_eta = e1 * (f.eta_val - 0.5 * law.grad2[..., None] * f.psi_val - tang)
    return {
        "expansion_weingarten": np.max(np.abs(fe.A_val - pred_A), axis=(-2, -1)),
        "expansion_second_form": np.max(np.abs(fe.II_val - _mat2(law.II)), axis=(-2, -1)),
        "expansion_curvature": np.abs(fe.K_val - law.K),
        "expansion_trace": np.abs(-np.einsum("...aa->...", pred_A) - law.K),
        "expansion_normal": np.max(np.abs(fe.eta_val - pred_eta), axis=-1),
        "expansion_pairing": np.abs(mink_inner(fe.psi_val, e1 * f.eta_val) - 1.0),
        "expansion_metric": np.max(np.abs(fe.g_val - _mat2(law.g)), axis=(-2, -1)),
    }
