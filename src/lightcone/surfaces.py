"""Pointwise geometry of spacelike charts through the future lightcone.

A chart maps lifted coordinate jets to a jet-valued Minkowski vector; from
that single evaluation the frame below derives the induced metric, the
canonical lightlike normal, both Weingarten routes, the second fundamental
form, curvatures and inequality gaps.  A quantity stays a jet only when
some caller reads its derivatives (the metric, the normal, the shape
operator, II and the curvatures feed the curvature calculus); everything
read only as a value is computed from value arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import curvature
from .curvature import _det2, _inv2, _mat2, _stack2
from .errors import (
    DegenerateNormalFrame, GaussMapUndefined, LightconeError, NotOnLightcone, NotSpacelike,
)
from .jets import Jet2, JetVec4
from .minkowski import inner

_E0 = np.array([1.0, 0.0, 0.0, 0.0])
#: Largest |<psi, psi>| a chart point may have and still count as on the cone.
_ON_CONE_TOL = 1e-9
#: Smallest |eta_0| for which the normal's Gauss map is defined.
_GAUSS_MAP_TOL = 1e-14


class Geometry(NamedTuple):
    """A surface's geometry at some points, the base of ``transforms.expansion_law``.

    ``g``, ``gi``, ``II`` and ``A`` are nested 2x2 tuples, ``gamma[c][a][b]``
    the Christoffel symbols and ``K`` the curvature.  An entry is a jet, a
    value array or a float; ``JetFrame.geometry`` gives the values of a
    frame, ``catalog.round_geometry`` jets and floats.
    """

    g: tuple
    gi: tuple
    II: tuple
    A: tuple
    K: object
    gamma: tuple


@dataclass(frozen=True, eq=False)
class SurfacePatch:
    """A chart (u, v) -> psi(u, v) into the future lightcone.

    ``chart`` receives two lifted coordinate jets (possibly batched) and
    returns a JetVec4.  ``closed`` marks spherical (theta, phi) charts whose
    domain covers a closed surface; those get quadrature grids and a
    ``rotated`` twin chart for checks near the coordinate poles.
    ``expansion`` is (spec, r) when the chart is e^sigma times the round
    sphere of radius r, sigma the spec's harmonic sum; ``SphereGrid`` then
    builds its table by the expansion law.
    """

    name: str
    chart: Callable[[Jet2, Jet2], JetVec4]
    domain: tuple
    closed: bool = False
    rotated: Optional["SurfacePatch"] = None
    expansion: Optional[tuple] = None

    def sample_points(self, n, rng, margin=0.05):
        """Uniform random interior points of the chart domain."""
        (u0, u1), (v0, v1) = self.domain
        du, dv = (u1 - u0) * margin, (v1 - v0) * margin
        u = rng.uniform(u0 + du, u1 - du, size=n)
        v = rng.uniform(v0 + dv, v1 - dv, size=n)
        return u, v

    def grid_points(self, shape, margin=0.02):
        """Uniform interior grid, flattened."""
        (u0, u1), (v0, v1) = self.domain
        nu, nv = shape
        du, dv = (u1 - u0) * margin, (v1 - v0) * margin
        u = np.linspace(u0 + du, u1 - du, nu)
        v = np.linspace(v0 + dv, v1 - dv, nv)
        U, V = np.meshgrid(u, v, indexing="ij")
        return U.ravel(), V.ravel()

    def position(self, u, v):
        """Chart value(s) as plain Minkowski coordinates, from order-zero jets."""
        psi = self.chart(Jet2.variable("u", np.asarray(u, float), valid=0),
                         Jet2.variable("v", np.asarray(v, float), valid=0))
        return psi.values


class JetFrame:
    """Every geometric quantity of a patch at one or many points.

    The frame is the single evaluation pass everything else reads from:
    metric and inverse, Christoffel symbols, the lightlike normal with
    <eta,eta> = 0 and <psi,eta> = 1, the shape operator by tangential
    projection, the eta-second fundamental form, mean curvature vector and
    the determinant/trace curvatures.  Only what the curvature calculus
    differentiates is a jet; the guards are written so that NaN fails them.
    ``K_eta``, ``K_brioschi``, ``nabla_A`` and ``difference`` are built
    once, on first read.
    """

    def __init__(self, patch, u, v):
        self.patch = patch
        self.u = np.asarray(u, dtype=float)
        self.v = np.asarray(v, dtype=float)

        uj = Jet2.variable("u", self.u)
        vj = Jet2.variable("v", self.v)
        psi = patch.chart(uj, vj)
        self.psi = psi
        self.psi_u = psi.d("u")
        self.psi_v = psi.d("v")
        self.psi_uu = self.psi_u.d("u")
        self.psi_uv = self.psi_u.d("v")
        self.psi_vv = self.psi_v.d("v")

        cone = inner(self.psi_val, self.psi_val)
        if not (np.all(np.abs(cone) <= _ON_CONE_TOL) and np.all(self.psi0_val > 0.0)):
            raise NotOnLightcone(
                f"{patch.name}: max |<psi,psi>| = {np.max(np.abs(cone)):.3e}, "
                f"min psi0 = {np.min(psi[0].value):.3e}"
            )

        E = self.psi_u.dot(self.psi_u)
        F = self.psi_u.dot(self.psi_v)
        G = self.psi_v.dot(self.psi_v)
        detg = E * G - F * F
        if not (np.all(E.value > 0.0) and np.all(detg.value > 0.0)):
            raise NotSpacelike(
                f"{patch.name}: induced metric not positive definite "
                f"(min E = {np.min(E.value):.3e}, min det g = {np.min(detg.value):.3e})"
            )
        self.E, self.F, self.G, self.detg = E, F, G, detg
        iE = G / detg
        iG = E / detg
        iF = -F / detg
        self.g = ((E, F), (F, G))
        self.gi = ((iE, iF), (iF, iG))

        # Normal-plane basis {psi, n}: project the time axis off the tangent
        # plane.  On the cone <e0, psi> = -psi0 < 0, so this seed never
        # degenerates and the combination below is the unique normal with
        # <eta,eta> = 0 and <psi,eta> = 1.  <e0, X> = -X0 is read off the time
        # component as 0 - X0, so that zero coefficients are +0.0.
        e0 = JetVec4.constant(_E0)
        zero = Jet2.constant(0.0)
        s_u = zero - self.psi_u[0]
        s_v = zero - self.psi_v[0]
        t_u = iE * s_u + iF * s_v
        t_v = iF * s_u + iG * s_v
        n = e0 - self.psi_u.scale(t_u) - self.psi_v.scale(t_v)
        pn = psi.dot(n)
        if np.any(np.abs(pn.value) < 1e-13):
            raise DegenerateNormalFrame(f"{patch.name}: normal-plane solve degenerated")
        nn = n.dot(n)
        self.eta = psi.scale(-nn / (pn * pn * 2.0)) + n.scale(1.0 / pn)
        self.eta_u = self.eta.d("u")
        self.eta_v = self.eta.d("v")

        # Shape operator of eta by tangential projection of its derivative.
        m_uu = self.eta_u.dot(self.psi_u)
        m_vu = self.eta_u.dot(self.psi_v)
        m_uv = self.eta_v.dot(self.psi_u)
        m_vv = self.eta_v.dot(self.psi_v)
        A00 = -(iE * m_uu + iF * m_vu)
        A10 = -(iF * m_uu + iG * m_vu)
        A01 = -(iE * m_uv + iF * m_vv)
        A11 = -(iF * m_uv + iG * m_vv)
        self.A = ((A00, A01), (A10, A11))

        # II(X, Y) = -<A X, Y>, assembled in the chart basis.
        g = self.g
        self.II = tuple(
            tuple(-(self.A[0][a] * g[0][b] + self.A[1][a] * g[1][b]) for b in range(2))
            for a in range(2)
        )

        self.detA = A00 * A11 - A01 * A10
        self.trA = A00 + A11
        self.K = -self.trA

    @cached_property
    def gamma(self):
        """Christoffel symbols of the induced metric, indexed [..., c, a, b]."""
        return curvature.christoffels(self.E, self.F, self.G, self.gi_val)

    @cached_property
    def iivec(self):
        """Vector-valued second fundamental form, indexed [..., a, b, 4]."""
        uu, uv, vv = self.psi_uu.values, self.psi_uv.values, self.psi_vv.values
        dd = np.stack([np.stack([uu, uv], axis=-2), np.stack([uv, vv], axis=-2)], axis=-3)
        gam = self.gamma[..., None]
        return (dd - self.psi_u.values[..., None, None, :] * gam[..., 0, :, :, :]
                - self.psi_v.values[..., None, None, :] * gam[..., 1, :, :, :])

    @cached_property
    def K_eta(self):
        """Brioschi curvature of the eta-second fundamental form, ungated."""
        II = self.II
        # Off-diagonal entries agree analytically; averaging symmetrizes rounding.
        return curvature.brioschi_curvature(II[0][0], (II[0][1] + II[1][0]) * 0.5, II[1][1])

    @cached_property
    def K_brioschi(self):
        """Brioschi curvature of the induced metric: the intrinsic route to K."""
        return curvature.brioschi_curvature(self.E, self.F, self.G)

    @cached_property
    def nabla_A(self):
        """(nabla_a A)^c_b as a value array of shape (..., 2, 2, 2) = [a, c, b]."""
        A = self.A
        out = np.empty(self.A_val.shape[:-2] + (2, 2, 2))
        for a, c, b in np.ndindex(2, 2, 2):
            out[..., a, c, b] = A[c][b].partial(1 - a, a)
        gam = np.swapaxes(self.gamma, -3, -2)  # [a, c, b]
        Av = self.A_val
        out += sum(gam[..., :, :, d, None] * Av[..., None, None, d, :] for d in range(2))
        out -= sum(gam[..., :, None, d, :] * Av[..., None, :, d, None] for d in range(2))
        return out

    @cached_property
    def difference(self):
        """The connection difference tensor L[..., a, b, c] (``curvature.difference_tensor``)."""
        return curvature.difference_tensor(self)

    # -- value-level views --------------------------------------------------

    @cached_property
    def geometry(self):
        """The value ``Geometry`` of the frame."""
        def entries(m):
            return ((m[..., 0, 0], m[..., 0, 1]), (m[..., 1, 0], m[..., 1, 1]))

        gam = self.gamma
        return Geometry(*map(entries, (self.g_val, self.gi_val, self.II_val, self.A_val)),
                        self.K_val, (entries(gam[..., 0, :, :]), entries(gam[..., 1, :, :])))

    @cached_property
    def g_val(self):
        return _mat2(self.g)

    @cached_property
    def gi_val(self):
        return _mat2(self.gi)

    @cached_property
    def A_val(self):
        return _mat2(self.A)

    @cached_property
    def II_val(self):
        return _mat2(self.II)

    @cached_property
    def II_inv_val(self):
        return _inv2(self.II_val)

    @cached_property
    def detA_grad(self):
        """Chart gradient of det A, indexed [..., a]."""
        return np.stack([self.detA.partial(1, 0), self.detA.partial(0, 1)], axis=-1)

    @cached_property
    def K_val(self):
        return self.K.value

    @cached_property
    def detA_val(self):
        return self.detA.value

    @cached_property
    def gap_low(self):
        return self.K_val**2 - 4.0 * self.detA_val

    @cached_property
    def gap_high(self):
        A = self.A_val
        tr_sq = np.einsum("...ab,...ba->...", A, A)
        return 2.0 * tr_sq - self.K_val**2

    @cached_property
    def psi0_val(self):
        return self.psi[0].value

    @cached_property
    def psi_val(self):
        return self.psi.values

    @cached_property
    def eta_val(self):
        return self.eta.values

    @cached_property
    def H_val(self):
        """Mean curvature vector, half the metric trace of the vector form."""
        ii, gi = self.iivec, self.gi_val[..., None]
        return 0.5 * (ii[..., 0, 0, :] * gi[..., 0, 0, :] + ii[..., 0, 1, :] * gi[..., 0, 1, :]
                      + ii[..., 1, 0, :] * gi[..., 1, 0, :] + ii[..., 1, 1, :] * gi[..., 1, 1, :])

    @cached_property
    def H2_val(self):
        return inner(self.H_val, self.H_val)

    @cached_property
    def sqrt_detg_val(self):
        return np.sqrt(self.detg.value)

    @cached_property
    def ii_positive(self):
        II = self.II_val
        return (II[..., 0, 0] > 0.0) & (_det2(II) > 0.0)

    # -- secondary computations ---------------------------------------------

    def covariant_hessian(self, f):
        """Gradient [..., a] and Christoffel-corrected Hessian [..., a, b] of a scalar jet."""
        df = np.stack([f.partial(1, 0), f.partial(0, 1)], axis=-1)
        ddf = _stack2(f.partial(2, 0), f.partial(1, 1), f.partial(1, 1), f.partial(0, 2))
        gam = self.gamma
        return df, (ddf - gam[..., 0, :, :] * df[..., 0, None, None]
                    - gam[..., 1, :, :] * df[..., 1, None, None])

    def weingarten_closed_form(self):
        """Shape operator from the height function psi0 and its metric Hessian.

        Independent of the projection route: uses only psi0, the gradient
        norm and the Christoffel-corrected Hessian.
        """
        p0 = self.psi0_val
        gi = self.gi_val
        dp, hess = self.covariant_hessian(self.psi[0])
        up = gi[..., 0] * dp[..., 0, None] + gi[..., 1] * dp[..., 1, None]
        grad2 = dp[..., 0] * up[..., 0] + dp[..., 1] * up[..., 1]
        lam = (grad2 + 1.0) / (p0 * p0 * 2.0)
        hop = (gi[..., :, 0, None] * hess[..., None, 0, :]
               + gi[..., :, 1, None] * hess[..., None, 1, :])
        return hop / p0[..., None, None] - lam[..., None, None] * np.eye(2)

    def position_weingarten_residual(self):
        """Largest |<psi_a, psi>|, |<psi_a, eta>| per point: d psi has no normal part."""
        t = np.stack([self.psi_u.values, self.psi_v.values], axis=-2)
        n = np.stack([self.psi_val, self.eta_val], axis=-2)
        return np.max(np.abs(inner(t[..., :, None, :], n[..., None, :, :])), axis=(-2, -1))

    def normal_parallel_residual(self):
        """Euclidean size of the normal component of each eta derivative.

        The lightlike normal is parallel along the surface, so its derivative
        must be purely tangential.
        """
        gi = self.gi_val
        pu, pv = self.psi_u.values, self.psi_v.values
        out = []
        for deta in (self.eta_u.values, self.eta_v.values):
            su = inner(deta, pu)[..., None]
            sv = inner(deta, pv)[..., None]
            tu = gi[..., 0, 0, None] * su + gi[..., 0, 1, None] * sv
            tv = gi[..., 1, 0, None] * su + gi[..., 1, 1, None] * sv
            out.append(np.linalg.norm(deta - pu * tu - pv * tv, axis=-1))
        return np.maximum(out[0], out[1])

    def second_form_inner_residual(self):
        """|<II, II> - 2 K| from the vector-valued second fundamental form."""
        gi, ii = self.gi_val, self.iivec
        ip = inner(ii[..., :, :, None, None, :], ii[..., None, None, :, :, :])
        val = 0.0
        for a, b, c, d in np.ndindex(2, 2, 2, 2):
            val = val + gi[..., a, c] * gi[..., b, d] * ip[..., a, b, c, d]
        return np.abs(val - 2.0 * self.K_val)


def gauss_maps(frame):
    """The two sphere-valued Gauss maps, normalized to unit time component.

    The first is the direction of the position, the second the direction of
    the lightlike normal; both are future null directions scaled so the time
    coordinate equals one.
    """
    psi = frame.psi_val
    eta = frame.eta_val
    gf = psi / psi[..., 0:1]
    if np.any(np.abs(eta[..., 0]) < _GAUSS_MAP_TOL):
        raise GaussMapUndefined("normal has zero time component")
    gp = eta / eta[..., 0:1]
    return gf, gp


# -- extremal points ----------------------------------------------------------

#: Scan grid of the umbilic search.
UMBILIC_GRID = (32, 64)


def closed_extremum(patch, field, grid):
    """Single-point JetFrame at the least point of a field on a closed surface.

    ``field(frame)`` returns the field as a jet of valid order 2 or more and
    the scale of its rounding noise per point.  The chart and its
    pole-rotated twin are both searched, since a point at a coordinate pole
    is invisible to the chart; a patch without a twin raises
    LightconeError.  On each, one JetFrame over the ``grid``
    nodes gives the field's value, gradient and Hessian, and Newton starts
    from the ``_extreme_nodes`` with those.  A step goes only along the
    Hessian eigendirections whose eigenvalue exceeds 1e-8 of the scale (on
    round spheres both callers' fields are constant and it is noise below
    1e-10), and is kept only if theta stays between the first and last
    scanned row and the gradient norm shrinks.  Each chart is thus searched
    only where it is regular; the band it drops around its poles lies on
    its twin's equator.  A start stops when its step is not kept, when it
    has no such direction, at a step below 1e-12 or after 8 steps.  The
    least find wins, in the coordinates of its chart with phi wrapped to
    [0, 2 pi).
    """
    if patch.rotated is None:
        raise LightconeError(f"{patch.name}: no pole-rotated twin to search near the poles")
    best = None
    for chart in (patch, patch.rotated):
        u, v = chart.grid_points(grid)
        first, last = u[0], u[-1]  # theta of the first and last scanned row
        k, (found, grad, hess, scale) = _scan_starts(field, chart, u, v)
        u, v, live = u[k], v[k], np.arange(k.size)
        for _ in range(8):
            lam, vec = np.linalg.eigh(hess)
            ok = lam > 1e-8 * scale[:, None]
            lam = np.where(ok, lam, np.inf)  # no step along the other directions
            step = np.einsum("nab,nb->na", vec, np.einsum("nab,na->nb", vec, grad) / lam)
            tu, tv = u[live] - step[:, 0], v[live] - step[:, 1]
            ok = np.any(ok, axis=-1) & (first <= tu) & (tu <= last)
            if not np.any(ok):
                break
            live, grad, step, tu, tv = live[ok], grad[ok], step[ok], tu[ok], tv[ok]
            trial, new_grad, hess, scale = _field_derivatives(field, JetFrame(chart, tu, tv))
            kept = np.hypot(*new_grad.T) < np.hypot(*grad.T)
            u[live[kept]], v[live[kept]], found[live[kept]] = tu[kept], tv[kept], trial[kept]
            ok = kept & (np.hypot(step[:, 0], step[:, 1]) >= 1e-12)
            live, grad, hess, scale = live[ok], new_grad[ok], hess[ok], scale[ok]
        j = int(np.argmin(found))
        if best is None or found[j] < best[0]:
            best = (found[j], chart, float(u[j]), float(v[j] % (2.0 * np.pi)))
    _, chart, u, v = best
    return JetFrame(chart, u, v)


def _field_derivatives(field, frame):
    """Value, gradient (n, 2), Hessian (n, 2, 2) and scale of a field jet."""
    jet, scale = field(frame)
    d_uu, d_uv, d_vv = jet.partial(2, 0), jet.partial(1, 1), jet.partial(0, 2)
    grad = np.stack([jet.partial(1, 0), jet.partial(0, 1)], axis=-1)
    hess = np.stack([np.stack([d_uu, d_uv], axis=-1), np.stack([d_uv, d_vv], axis=-1)], axis=-2)
    return jet.value, grad, hess, scale


def _scan_starts(field, chart, u, v):
    """The ``_extreme_nodes`` of a scan and the field derivatives there, from one JetFrame.

    The scan frame is dropped on return, so it is not held while Newton runs.
    """
    frame = JetFrame(chart, u, v)
    scan = _field_derivatives(field, frame)
    psi = frame.psi_val
    k = _extreme_nodes(psi[:, 1:] / psi[:, :1], scan[0])
    return k, tuple(a[k] for a in scan)


def _extreme_nodes(directions, value):
    """Indices of up to 4 least-value nodes whose unit directions lie over 0.25 apart.

    The directions psi[1:] / psi[0] do not depend on the chart, so the
    starts are kept apart on the sphere, not in the chart domain.
    """
    far = np.ones(value.size, dtype=bool)  # from every start so far
    starts = []
    for k in np.argsort(value):
        if far[k]:
            starts.append(k)
            if len(starts) == 4:
                break
            far &= np.linalg.norm(directions - directions[k], axis=-1) > 0.25
    return np.array(starts)


def umbilic_point_search(patch):
    """Locate a point where both curvature-inequality gaps (nearly) vanish.

    On a closed surface an umbilic point must exist; ``closed_extremum``
    minimizes the gap jet K^2 - 4 det A from a ``UMBILIC_GRID`` scan.
    Returns (u, v, gap_low, gap_high) in the coordinates of the winning chart.
    """
    f = closed_extremum(patch, lambda f: (f.K * f.K - 4.0 * f.detA, f.K_val**2), UMBILIC_GRID)
    return float(f.u), float(f.v), float(f.gap_low), float(f.gap_high)
