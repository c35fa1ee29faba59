"""Surface transforms: the conjugate immersion and conformal expansions.

The conjugate of a patch is the surface traced by the negated lightlike
normal; it lives on the lightcone again and is an immersion exactly when
the shape operator is nowhere degenerate.  Expansion rescales the chart by
e^sigma, deforming the induced metric conformally.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable

import numpy as np

from . import jets
from .curvature import DEGENERACY_FLOOR, _mat2, degenerate
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
    """Residuals of the conjugate-duality identities, one per point of the frame.

    Raises DegeneracyViolation where the frame's shape operator degenerates.
    Returns a dict keyed by the ``verify`` check names of per-point largest entries:
      * ``conjugate_weingarten``:  | A~ . A - I |
      * ``conjugate_second_form``: | II~ - II |
      * ``conjugate_curvature``:   | K~ - K / det A |
      * ``third_form``:            | first form of conjugate - <A^2 ., .> |
      * ``double_conjugate``:      ``double_conjugate_residual`` of the two frames
    """
    _require_immersion(frame)
    conj = JetFrame(_conjugate_patch(frame.patch), frame.u, frame.v)
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


#: What ``expansion_law`` predicts for e^s psi: nested 2x2 lists ``g``, ``II``
#: (jets valid through order two) and ``A``; ``K``, ``detII``, ``detA`` =
#: det II' / det g', and the gradient of s, ``grad``, with squared norm
#: ``grad2``.  All but II are values, or floats where the base makes them
#: constant.
Expanded = namedtuple("Expanded", "g II A K detII detA grad grad2")


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
    gi, A, K, h, ds, grad, half, grad2 = map(
        _values, (base.gi, base.A, base.K, hess, ds, grad, half, grad2))
    hop = [[gi[c][0] * h[a] + gi[c][1] * h[1 + a] for a in (0, 1)] for c in (0, 1)]
    A = [[e2 * (A[c][a] + hop[c][a] + half * float(c == a) - ds[a] * grad[c]) for a in (0, 1)]
         for c in (0, 1)]
    g = [[conformal * x for x in row] for row in _values(g)]
    (i00, i01), (i10, i11) = _values(II)
    det_ii = i00 * i11 - i01 * i10
    return Expanded(g, II, A, (K - (hop[0][0] + hop[1][1])) * e2, det_ii,
                    det_ii / (g[0][0] * g[1][1] - g[0][1] * g[1][0]), grad, grad2)


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
    the prediction of ``expansion_law`` from the frame's own geometry.
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
    grad, e1 = law.grad, np.exp(-s.value)[..., None]
    tang = grad[0][..., None] * f.psi_u.values + grad[1][..., None] * f.psi_v.values
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
