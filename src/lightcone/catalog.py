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

from . import harmonics, jets
from .errors import LightconeError
from .harmonics import L_MAX, real_harmonic
from .jets import Jet2, JetVec4
from .surfaces import Geometry, SurfacePatch, direction_chart

#: Half-widths of the chart rectangles of the two flat surfaces.
_CYLINDER_EXTENT = 1.5
_PARABOLOID_EXTENT = 2.0


def _radius(r):
    """r as a float; 0 < r * r < inf must hold."""
    r = float(r)
    if not (r > 0.0 and 0.0 < r * r < np.inf):
        raise LightconeError(
            f"radius must be positive and finite, with a finite square above 0; got {r}"
        )
    return r


def round_sphere(u=None, r=1.0):
    """The round sphere cut out by an observer u at radius r.

    The chart is (theta, phi) -> B (r, r w(theta, phi)) with B the boost
    taking (-1, 0, 0, 0) to u, so <u, psi> = r holds identically.  A
    given observer is part of the name.  The sphere is the empty-spec
    member of the expansion family, seen by the observer u.
    """
    r = _radius(r)
    obs = None if u is None else np.asarray(u, dtype=float)
    # Flat, so that an observer of any shape reaches boost_to's check.
    label = "" if u is None else ", u=(" + ", ".join(f"{c:g}" for c in obs.flat) + ")"
    return direction_chart(f"round-sphere(r={r:g}{label})", (HarmonicSpec().cartesian, r, obs))


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
        """The expansion as a jet at direction-cosine jets; the zero jet if there are no terms."""
        if not self.terms:
            shape = np.broadcast_shapes(x.batch_shape, y.batch_shape, z.batch_shape)
            return Jet2.constant(np.zeros(shape))
        values = real_harmonic([(l, m) for l, m, _ in self.terms], x, y, z)
        return jets.weighted_sum(values, [a for _, _, a in self.terms])

    def chart_field(self):
        """The expansion on the (theta, phi) sphere chart: coordinate jets to a jet."""
        return lambda tj, pj: self.cartesian(*harmonics.directions(tj, pj))

    def pack(self, pairs):
        """Coefficient vector in the order of ``pairs`` (absent terms are 0)."""
        lut = {(l, m): a for l, m, a in self.terms}
        return np.array([lut.get(p, 0.0) for p in pairs])

    @classmethod
    def unpack(cls, pairs, values):
        return cls(terms=tuple((l, m, float(a)) for (l, m), a in zip(pairs, values)))


def graph_over_sphere(sigma):
    """Radial graph psi = e^sigma(w) (1, w) over the unit sphere.

    ``sigma`` maps direction cosines (as jets) to a jet; any smooth metric
    on the sphere is conformal to the round one, so every closed radial
    graph f(w) (1, w) is this one with sigma = log f.  The patch carries
    (sigma, 1, None) as its ``expansion``, as ``perturbed_sphere`` does.
    """
    return direction_chart("radial-graph", (sigma, 1.0, None))


def perturbed_sphere(spec, r=1.0):
    """The round sphere of radius r expanded to psi_round(w) exp(sigma(w)) by the spec.

    By the addition theorem, sum_m Y_lm^2 = (2l + 1) / (4 pi), so sigma is
    at most sum |a| sqrt((2l + 1) / (4 pi)).  As for the radius, the spec is
    rejected unless (r e^sigma)^2 is finite at that bound.
    """
    r = _radius(r)
    sigma = sum(abs(a) * math.sqrt((2 * l + 1) / (4 * math.pi)) for l, _, a in spec.terms)
    try:
        scale = (r * math.exp(sigma)) ** 2
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise LightconeError(
            f"spec amplitudes allow sigma up to {sigma:g}; (r e^sigma)^2 must be finite"
        )
    return direction_chart(f"perturbed-sphere(r={r:g}, {len(spec.terms)} terms)",
                           (spec.cartesian, r, None))
