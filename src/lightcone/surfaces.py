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

from . import curvature, harmonics, jets
from .curvature import _det2, _inv2, _mat2, _stack2
from .errors import LightconeError
from .jets import Jet2, JetVec4
from .minkowski import boost_to, inner

_E0 = np.array([1.0, 0.0, 0.0, 0.0])
#: The (theta, phi) domain of a ``direction_chart``.
_SPHERE_DOMAIN = ((0.0, np.pi), (0.0, 2.0 * np.pi))
#: Largest |<psi, psi>| a chart point may have and still count as on the cone:
#: the JetFrame guard and the tolerance of verify's on_cone check.
ON_CONE_TOL = 1e-9
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
    domain covers a closed surface.  ``expansion`` is (sigma, r, observer)
    when the chart is the ``direction_chart`` of e^sigma times the round
    sphere of radius r, seen by the past unit timelike ``observer`` (None
    for the unboosted chart); ``sigma`` maps direction-cosine jets to a
    jet.  The triple describes the surface completely: ``centred`` charts
    of it come from the triple, and ``SphereGrid`` builds its table from it
    by the expansion law and takes no closed chart without it.
    """

    name: str
    chart: Callable[[Jet2, Jet2], JetVec4]
    domain: tuple
    closed: bool = False
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
        """Chart value(s) as plain Minkowski coordinates, from order-zero jets; no guard runs."""
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

        # Value arrays are new arrays, since a view keeps its whole jet alive;
        # each intermediate jet is dropped once the next step has read it.
        psi = patch.chart(Jet2.variable("u", self.u), Jet2.variable("v", self.v))
        (self.psi_val, self.psi_v_val, self.psi_u_val,
         self.psi_vv_val, self.psi_uv_val, self.psi_uu_val) = psi.partials(2)
        self.psi0 = psi[0].truncated(2).copy()
        cone = inner(self.psi_val, self.psi_val)
        if not (np.all(np.abs(cone) <= ON_CONE_TOL) and np.all(self.psi0_val > 0.0)):
            raise LightconeError(
                f"{patch.name}: max |<psi,psi>| = {np.max(np.abs(cone)):.3e}, "
                f"min psi0 = {np.min(self.psi0_val):.3e}"
            )
        psi_u, psi_v = psi.d("u"), psi.d("v")
        psi = psi.truncated(3).copy()  # the normal reads it through order three

        E = psi_u.dot(psi_u)
        F = psi_u.dot(psi_v)
        G = psi_v.dot(psi_v)
        detg = E * G - F * F
        if not (np.all(E.value > 0.0) and np.all(detg.value > 0.0)):
            raise LightconeError(
                f"{patch.name}: induced metric not positive definite "
                f"(min E = {np.min(E.value):.3e}, min det g = {np.min(detg.value):.3e})"
            )
        self.E, self.F, self.G = E, F, G
        self.g = ((E, F), (F, G))
        self.sqrt_detg_val = np.sqrt(detg.value)
        iE = G / detg
        iG = E / detg
        iF = -F / detg
        del detg
        self.gi_val = _mat2(((iE, iF), (iF, iG)))

        # Normal-plane basis {psi, n}: project the time axis off the tangent
        # plane.  On the cone <e0, psi> = -psi0 < 0, so this seed never
        # degenerates and the combination below is the unique normal with
        # <eta,eta> = 0 and <psi,eta> = 1.  <e0, X> = -X0 is read off the time
        # component as 0 - X0, so that zero coefficients are +0.0.
        zero = Jet2.constant(0.0)
        s_u = zero - psi_u[0]
        s_v = zero - psi_v[0]
        t_u = iE * s_u + iF * s_v
        t_v = iF * s_u + iG * s_v
        del s_u, s_v
        # A reads the inverse metric, and II reads psi_u and psi_v, through
        # order two; a product reads its operands only through its result's
        # order, so each is cut as soon as its last order-three product is made.
        iE, iF, iG = (x.truncated(2).copy() for x in (iE, iF, iG))
        n = JetVec4.constant(_E0) - psi_u.scale(t_u)
        psi_u = psi_u.truncated(2).copy()
        n._sub_into(psi_v.scale(t_v))
        del t_u, t_v
        psi_v = psi_v.truncated(2).copy()
        pn = psi.dot(n)
        if np.any(np.abs(pn.value) < 1e-13):
            raise LightconeError(f"{patch.name}: normal-plane solve degenerated")
        nn = n.dot(n)
        # eta = psi (-nn / 2 pn^2) + n / pn, summed in place onto the second
        # term: addition commutes, so the bits are those of the sum as written.
        eta = n.scale(1.0 / pn)
        del n
        eta._add_into(psi.scale(-nn / (pn * pn * 2.0)))
        del psi, nn, pn
        self.eta = eta
        self.eta_val, self.eta_v_val, self.eta_u_val = eta.partials(1)

        # II(X, Y) = <d eta(X), Y>, so II_ab = <eta_a, psi_b>; the shape
        # operator A = -g^-1 II^T is its tangential projection.
        eta_u, eta_v = eta.d("u"), eta.d("v")
        m_uu = eta_u.dot(psi_u)
        m_vu = eta_u.dot(psi_v)
        m_uv = eta_v.dot(psi_u)
        m_vv = eta_v.dot(psi_v)
        del eta_u, eta_v, psi_u, psi_v
        self.II = ((m_uu, m_vu), (m_uv, m_vv))
        A00 = -(iE * m_uu + iF * m_vu)
        A10 = -(iF * m_uu + iG * m_vu)
        A01 = -(iE * m_uv + iF * m_vv)
        A11 = -(iF * m_uv + iG * m_vv)
        self.A = ((A00, A01), (A10, A11))

        self.detA = A00 * A11 - A01 * A10
        self.K = -(A00 + A11)

    @cached_property
    def gamma(self):
        """Christoffel symbols of the induced metric, indexed [..., c, a, b]."""
        return curvature.christoffels(self.E, self.F, self.G, self.gi_val)

    @cached_property
    def iivec(self):
        """Vector-valued second fundamental form, indexed [..., a, b, 4]."""
        uu, uv, vv = self.psi_uu_val, self.psi_uv_val, self.psi_vv_val
        dd = np.stack([np.stack([uu, uv], axis=-2), np.stack([uv, vv], axis=-2)], axis=-3)
        gam = self.gamma[..., None]
        return (dd - self.psi_u_val[..., None, None, :] * gam[..., 0, :, :, :]
                - self.psi_v_val[..., None, None, :] * gam[..., 1, :, :, :])

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

    @property
    def psi0_val(self):
        return self.psi0.value

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
        dp, hess = self.covariant_hessian(self.psi0)
        up = gi[..., 0] * dp[..., 0, None] + gi[..., 1] * dp[..., 1, None]
        grad2 = dp[..., 0] * up[..., 0] + dp[..., 1] * up[..., 1]
        lam = (grad2 + 1.0) / (p0 * p0 * 2.0)
        hop = (gi[..., :, 0, None] * hess[..., None, 0, :]
               + gi[..., :, 1, None] * hess[..., None, 1, :])
        return hop / p0[..., None, None] - lam[..., None, None] * np.eye(2)

    def position_weingarten_residual(self):
        """Largest |<psi_a, psi>|, |<psi_a, eta>| per point: d psi has no normal part."""
        t = np.stack([self.psi_u_val, self.psi_v_val], axis=-2)
        n = np.stack([self.psi_val, self.eta_val], axis=-2)
        return np.max(np.abs(inner(t[..., :, None, :], n[..., None, :, :])), axis=(-2, -1))

    def normal_parallel_residual(self):
        """Euclidean size of the normal component of each eta derivative.

        The lightlike normal is parallel along the surface, so its derivative
        must be purely tangential.
        """
        gi = self.gi_val
        pu, pv = self.psi_u_val, self.psi_v_val
        out = []
        for deta in (self.eta_u_val, self.eta_v_val):
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
        raise LightconeError("normal has zero time component")
    gp = eta / eta[..., 0:1]
    return gf, gp


# -- blocked sweeps -----------------------------------------------------------

#: Most points in one block of a pointwise table: one frame of ``_sweep``, or
#: the theta rings of one block of ``integrals.expansion_table``.  ``_blocks``
#: splits a table into the fewest blocks that fit, of sizes within one row,
#: so verify's 8392 points at 64x128 take five frames of 1678 or 1679 points.
#: There the ``verify-pointwise`` benchmark peaks at 64.6 MB, against 62.1 MB
#: with a ``_BLOCK`` of 1024, 68.3 MB with 4096 and 83.0 MB in one frame of
#: all points (medians of 5 seeds on 2 cores).  One frame ran fastest (run_s
#: 0.29 s, against 0.34 s with 2048 and 0.36 s with 4096, medians of 10
#: interleaved seeds), so the block trades about 0.05 s for 18 MB.  The
#: ``global-grid`` benchmark peaks at 75.0 MB with 2048, 74.7 MB with 4096
#: and 76.5 MB in one pass, so no block sets it.  ``export cylinder --grid
#: 128x256`` peaks at 49.5 MB, against 122 MB with its ``geometry_table`` in
#: one frame.
_BLOCK = 2048


def _blocks(n_rows, row_size=1):
    """The fewest slices of consecutive rows that fit in ``_BLOCK`` points, of equal sizes.

    A block holds at most ``_BLOCK // row_size`` rows, at least one; the
    sizes of any two blocks differ by at most one row.
    """
    count = -(-n_rows // max(1, _BLOCK // row_size))
    return [slice(n_rows * k // count, n_rows * (k + 1) // count) for k in range(count)]


def _sweep(patch, points, read):
    """``read(frame)`` over frames of the ``_blocks`` of the points, in one store.

    ``read`` returns a dict of arrays, one entry per point of its frame.
    After the first block's read, the store holds one array per key, over
    all points, with that entry's trailing shape and dtype; each block
    writes its entries into its own slice, and a key that a block lacks is
    dropped.  The result holds each key that every block returned, in the
    order of the first block.  Jet arithmetic is pointwise, so each entry
    has the bits of one frame of all points, and each block's frame is
    dropped before the next is built.  A frame guard that rejects a block
    raises its own error, with figures over that block's points.
    """
    u, v = points
    store = None
    for block in _blocks(u.size):
        part = read(JetFrame(patch, u[block], v[block]))
        if store is None:
            store = {key: np.empty((u.size,) + x.shape[1:], x.dtype) for key, x in part.items()}
        for key in list(store):
            if key in part:
                store[key][block] = part[key]
            else:
                del store[key]
        del part  # so that no block's read outlives it while the next frame is built
    return store


# -- extremal points ----------------------------------------------------------

#: Longest Newton step, in radians on the sphere of directions: a trial stays
#: pi/4 or more from the poles of the chart centred on its iterate.
_MAX_STEP = np.pi / 4
#: Gradient norm, over the field's rounding scale, at which a start stops.
_GRADIENT_FLOOR = 1e-13
#: Newton starts besides the two poles: the least-value nodes kept apart.
_STARTS = 16


def centring(theta, phi):
    """Rotations (..., 3, 3) with columns w(theta, phi), e_phi and -e_theta.

    Each takes the direction of the chart point (pi/2, 0) to that of
    (theta, phi), so the chart it centres (``centred``) is regular there.
    """
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    rows = (st * cp, -sp, -ct * cp), (st * sp, cp, -ct * sp), (ct, 0.0 * sp, st)
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1) for row in rows], axis=-2)


def direction_chart(name, expansion, rotation=None):
    """The closed (theta, phi) chart of the expansion (sigma, r, observer).

    psi = B (r, r w) e^sigma(w) at the directions w = directions(theta, phi,
    rotation), B the boost taking (-1, 0, 0, 0) to the observer, or the
    identity if it is None.  The patch carries the expansion unless it is
    rotated: its nodes are then not those of the main chart.
    """
    sigma, r, observer = expansion
    B = np.eye(4) if observer is None else boost_to(observer)

    def chart(tj, pj):
        x, y, z = harmonics.directions(tj, pj, rotation)
        return JetVec4(r, x * r, y * r, z * r).linear_map(B).scale(jets.exp(sigma(x, y, z)))

    return SurfacePatch(name, chart, _SPHERE_DOMAIN, closed=True,
                        expansion=expansion if rotation is None else None)


def centred(patch, rotation):
    """The ``direction_chart`` of a closed patch's ``expansion``, rotated by ``rotation``."""
    if patch.expansion is None:
        raise LightconeError(f"{patch.name}: no expansion to centre a chart on")
    return direction_chart(patch.name, patch.expansion, rotation)


def closed_extremum(patch, theta, phi, value, field):
    """Least point of a field on a closed surface: (theta, phi, one-point JetFrame).

    ``patch`` is a closed chart with an ``expansion``; ``value`` holds the
    field's values at the main-chart points (``theta``, ``phi``), and
    ``field(frame)`` returns the field as a jet of valid order 2 or more and
    the scale of its rounding noise per point.  Newton starts from the
    ``_extreme_nodes`` of those values and the two poles, and reads each
    start and iterate at the centre of a chart centred on it: Riemannian
    Newton on the sphere of directions (Absil, Mahony and Sepulchre, 2008,
    ch. 6), saddle-free (steps divide by |eigenvalue|, Dauphin et al. 2014)
    along eigendirections whose |eigenvalue| exceeds 1e-8 of the scale.
    README.md gives the rules.
    """
    k = _extreme_nodes(harmonics.directions(theta, phi), value)
    theta, phi = np.append(theta[k], [0.0, np.pi]), np.append(phi[k], [0.0, 0.0])
    rotation, moved = centring(theta, phi), np.zeros(theta.size, dtype=bool)
    found, grad, hess, scale = _field_derivatives(
        field, JetFrame(centred(patch, rotation), np.pi / 2, 0.0))
    live = np.flatnonzero(np.hypot(*grad.T) > _GRADIENT_FLOOR * scale)
    grad, hess, scale = grad[live], hess[live], scale[live]
    for _ in range(8):
        lam, vec = np.linalg.eigh(hess)
        ok = np.abs(lam) > 1e-8 * scale[:, None]
        lam = np.where(ok, np.abs(lam), np.inf)  # no step along the other directions
        step = -np.einsum("nab,nb->na", vec, np.einsum("nab,na->nb", vec, grad) / lam)
        ok = np.any(ok, axis=-1) & (np.hypot(*step.T) <= _MAX_STEP)
        if not np.any(ok):
            break
        live, grad, step = live[ok], grad[ok], step[ok]
        trial = rotation[live] @ centring(np.pi / 2 + step[:, 0], step[:, 1])
        frame = JetFrame(centred(patch, trial), np.pi / 2, 0.0)
        val, new_grad, hess, scale = _field_derivatives(field, frame)
        kept = (np.hypot(*new_grad.T) < np.hypot(*grad.T)) | (val < found[live])
        rotation[live[kept]], found[live[kept]], moved[live[kept]] = trial[kept], val[kept], True
        ok = kept & (np.hypot(*new_grad.T) > _GRADIENT_FLOOR * scale)
        live, grad, hess, scale = live[ok], new_grad[ok], hess[ok], scale[ok]
    j = int(np.argmin(found))
    if moved[j]:
        x, y, z = rotation[j, :, 0]
        theta[j], phi[j] = np.arctan2(np.hypot(x, y), z), np.arctan2(y, x) % (2.0 * np.pi)
    return float(theta[j]), float(phi[j]), JetFrame(centred(patch, rotation[j]), np.pi / 2, 0.0)


def _field_derivatives(field, frame):
    """Value, gradient (n, 2), Hessian (n, 2, 2) and scale of a field jet."""
    jet, scale = field(frame)
    d_uv = jet.partial(1, 1)
    hess = _stack2(jet.partial(2, 0), d_uv, d_uv, jet.partial(0, 2))
    return jet.value, np.stack([jet.partial(1, 0), jet.partial(0, 1)], axis=-1), hess, scale


def _extreme_nodes(directions, value):
    """Indices of up to ``_STARTS`` least-value nodes whose unit directions lie over 0.25 apart.

    ``directions`` holds the direction cosines x, y, z of the nodes, each
    indexed like ``value``, so the starts are kept apart on the sphere of
    directions, not in the chart domain.
    """
    x, y, z = directions
    far = np.ones(value.size, dtype=bool)  # from every start so far
    starts = []
    for k in np.argsort(value):
        if far[k]:
            starts.append(k)
            if len(starts) == _STARTS:
                break
            far &= (x - x[k]) ** 2 + (y - y[k]) ** 2 + (z - z[k]) ** 2 > 0.25**2
    return np.array(starts, dtype=int)


def umbilic_point_search(patch, theta, phi, gap_low):
    """(theta, phi, gap_low, gap_high) where both curvature-inequality gaps (nearly) vanish.

    On a closed surface an umbilic point must exist; ``closed_extremum``
    minimizes the gap jet K^2 - 4 det A on the closed chart ``patch``,
    starting from the least of the values ``gap_low`` at the chart points
    (``theta``, ``phi``), such as those of ``verify``'s sweep, and the poles.
    """
    theta, phi, f = closed_extremum(patch, theta, phi, gap_low,
                                    lambda f: (f.K * f.K - 4.0 * f.detA, f.K_val**2))
    return theta, phi, float(f.gap_low), float(f.gap_high)
