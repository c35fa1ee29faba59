"""Constructors for the concrete test surfaces.

Round spheres (possibly boosted), the flat product cylinder, the flat
paraboloid graph, radial graphs over the unit sphere, and the
harmonic-perturbation family that drives the verification sweeps and the
constant-curvature search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import CoordinateOverflow, NonpositiveRadialFunction, NonpositiveRadius
from .harmonics import L_MAX, real_harmonic
from .jets import JetVec4
from .minkowski import boost_to, vec
from .surfaces import Geometry, SurfacePatch
from .transforms import ScalarField

_SPHERE_DOMAIN = ((0.0, np.pi), (0.0, 2.0 * np.pi))
#: Grid on which ``graph_over_sphere`` checks that the radial function is positive.
_GRAPH_CHECK_GRID = (24, 48)
#: Half-widths of the chart rectangles of the two flat surfaces.
_CYLINDER_EXTENT = 1.5
_PARABOLOID_EXTENT = 2.0

#: Quarter turn about the y axis; sends the chart poles to equatorial points.
_POLE_SWAP = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])


def _direction_jets(tj, pj, rotation=None):
    st, ct = jets.sin(tj), jets.cos(tj)
    cp, sp = jets.cos(pj), jets.sin(pj)
    w = [st * cp, st * sp, ct]
    if rotation is not None:
        R = np.asarray(rotation, dtype=float)
        w = [w[0] * R[k, 0] + w[1] * R[k, 1] + w[2] * R[k, 2] for k in range(3)]
    return w


def _sphere_patch(name, embed, expansion=None):
    """A closed (theta, phi) chart psi = embed(w) over the sphere of directions w.

    ``embed`` maps the three direction-cosine jets to a JetVec4.  The twin
    for checks near the coordinate poles embeds the pole-swapped directions,
    so it covers the same surface with its poles on the main chart's equator.
    """

    def make_chart(rotation):
        return lambda tj, pj: embed(*_direction_jets(tj, pj, rotation))

    rotated = SurfacePatch(
        name=name + "/rotated", chart=make_chart(_POLE_SWAP), domain=_SPHERE_DOMAIN, closed=True
    )
    return SurfacePatch(
        name=name, chart=make_chart(None), domain=_SPHERE_DOMAIN, closed=True, rotated=rotated,
        expansion=expansion,
    )


def _round_embedding(r, u=None):
    """w -> B (r, r w), B the boost taking (-1, 0, 0, 0) to u; 0 < r * r < inf must hold."""
    r = float(r)
    if not (r > 0.0 and 0.0 < r * r < np.inf):
        raise NonpositiveRadius(
            f"radius must be positive and finite, with a finite square above 0; got {r}"
        )
    B = boost_to(vec(-1.0, 0.0, 0.0, 0.0) if u is None else np.asarray(u, dtype=float))

    def embed(x, y, z):
        return JetVec4(r, x * r, y * r, z * r).linear_map(B)

    return embed


def round_sphere(u=None, r=1.0):
    """The round sphere cut out by an observer u at radius r.

    The chart is (theta, phi) -> B (r, r w(theta, phi)) with B the boost
    taking (-1, 0, 0, 0) to u, so <u, psi> = r holds identically.  A
    given observer is part of the name.
    """
    embed = _round_embedding(r, u)
    obs = "" if u is None else ", u=(" + ", ".join(f"{c:g}" for c in np.asarray(u, float)) + ")"
    return _sphere_patch(f"round-sphere(r={r:g}{obs})", embed)


def round_geometry(tj, r):
    """The ``surfaces.Geometry`` of the round sphere of radius r at colatitude jets ``tj``.

    g = r^2 (dtheta^2 + sin^2 dphi^2), II = g / (2 r^2), A = -I / (2 r^2)
    and K = 1 / r^2; the Christoffel symbols that do not vanish are
    Gamma^theta_phiphi = -sin cos and Gamma^phi_thetaphi = cot.
    """
    r2 = float(r) ** 2
    st, ct = jets.sin(tj), jets.cos(tj)
    sin2 = st * st
    cot = ct / st
    return Geometry(
        g=((r2, 0.0), (0.0, sin2 * r2)),
        gi=((1.0 / r2, 0.0), (0.0, 1.0 / (sin2 * r2))),
        II=((0.5, 0.0), (0.0, sin2 * 0.5)),
        A=((-0.5 / r2, 0.0), (0.0, -0.5 / r2)),
        K=1.0 / r2,
        gamma=(((0.0, 0.0), (0.0, -(st * ct))), ((0.0, cot), (cot, 0.0))),
    )


def product_cylinder():
    """Flat complete surface (cosh x, sinh x, cos y, sin y) on a rectangle.

    The canonical example with indefinite second fundamental form: the
    shape operator has eigenvalues of opposite sign everywhere.
    """

    def chart(uj, vj):
        return JetVec4(jets.cosh(uj), jets.sinh(uj), jets.cos(vj), jets.sin(vj))

    return SurfacePatch(
        name="product-cylinder",
        chart=chart,
        domain=((-_CYLINDER_EXTENT, _CYLINDER_EXTENT), (0.0, 2.0 * np.pi)),
    )


def paraboloid_graph():
    """Flat isometric graph with identically vanishing shape operator."""

    def chart(uj, vj):
        q = (uj * uj + vj * vj) * 0.5
        return JetVec4(q + 0.5, q - 0.5, uj, vj)

    return SurfacePatch(
        name="paraboloid-graph",
        chart=chart,
        domain=((-_PARABOLOID_EXTENT, _PARABOLOID_EXTENT),) * 2,
    )


@dataclass(frozen=True)
class HarmonicSpec:
    """A finite real-spherical-harmonic expansion for log-radial bumps.

    Serialized as a JSON array of [degree, order, amplitude] triples.
    """

    terms: tuple = ()

    def __post_init__(self):
        for l, m, a in self.terms:
            if not (0 <= l <= L_MAX and -l <= m <= l):
                raise ValueError(f"bad harmonic index ({l}, {m})")
            if not np.isfinite(a):
                raise ValueError(f"amplitude for ({l}, {m}) is not finite")

    @classmethod
    def from_json(cls, text):
        """Parse a spec; degrees and orders must be integral, and no entry a boolean."""
        terms = []
        for l, m, a in json.loads(text):
            if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (l, m, a)):
                raise ValueError(f"term {[l, m, a]} must hold three numbers")
            if not all(isinstance(x, int) or x.is_integer() for x in (l, m)):
                raise ValueError(f"harmonic index ({l}, {m}) must be integral")
            terms.append((int(l), int(m), float(a)))
        return cls(terms=tuple(terms))

    def cartesian(self, x, y, z):
        """Evaluate the expansion at direction cosines (numbers or jets)."""
        harmonics = real_harmonic([(l, m) for l, m, _ in self.terms], x, y, z)
        total = 0.0
        for (_, _, a), Y in zip(self.terms, harmonics):
            total = Y * a + total
        return total

    def chart_field(self):
        """The expansion as a ScalarField on the (theta, phi) sphere chart."""
        return ScalarField(lambda tj, pj: self.cartesian(*_direction_jets(tj, pj)))

    def pack(self, pairs):
        """Coefficient vector in the order of ``pairs`` (absent terms are 0)."""
        lut = {(l, m): a for l, m, a in self.terms}
        return np.array([lut.get(p, 0.0) for p in pairs])

    @classmethod
    def unpack(cls, pairs, values):
        return cls(terms=tuple((l, m, float(a)) for (l, m), a in zip(pairs, values)))


def graph_over_sphere(f_cart):
    """Radial graph psi = f(w) (1, w) over the unit sphere.

    ``f_cart`` maps direction cosines (as jets) to a positive jet; any
    smooth metric on the sphere can be realized this way.
    """

    def embed(x, y, z):
        f = f_cart(x, y, z)
        return JetVec4(f, f * x, f * y, f * z)

    patch = _sphere_patch("radial-graph", embed)
    u, v = patch.grid_points(_GRAPH_CHECK_GRID)
    vals = patch.position(u, v)[..., 0]
    if np.any(vals <= 0.0):
        raise NonpositiveRadialFunction(
            f"radial function reaches {np.min(vals):.3e} on the check grid"
        )
    return patch


def perturbed_sphere(spec, r=1.0):
    """The round sphere of radius r expanded to psi_round(w) exp(sigma(w)) by the spec.

    By the addition theorem, sum_m Y_lm^2 = (2l + 1) / (4 pi), so sigma is
    at most sum |a| sqrt((2l + 1) / (4 pi)).  As for the radius, the spec is
    rejected unless (r e^sigma)^2 is finite at that bound.
    """
    round_embed = _round_embedding(r)
    sigma = sum(abs(a) * math.sqrt((2 * l + 1) / (4 * math.pi)) for l, _, a in spec.terms)
    try:
        scale = (float(r) * math.exp(sigma)) ** 2
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise CoordinateOverflow(
            f"spec amplitudes allow sigma up to {sigma:g}; (r e^sigma)^2 must be finite"
        )

    def embed(x, y, z):
        return round_embed(x, y, z).scale(jets.exp(spec.cartesian(x, y, z)))

    return _sphere_patch(
        f"perturbed-sphere(r={r:g}, {len(spec.terms)} terms)", embed, expansion=(spec, float(r))
    )
