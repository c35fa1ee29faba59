"""Quadrature over closed spherical charts and the global curvature checks.

The grid is Gauss-Legendre in cos(theta) crossed with uniform phi nodes, so
every node is strictly interior to the chart and analytic integrands
converge spectrally.  The area element is evaluated as sqrt(det g)/sin(theta)
against the cos(theta) measure.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import transforms
from .catalog import round_geometry
from .curvature import _det2, brioschi_curvature
from .errors import LightconeError
from .harmonics import directions
from .jets import Jet2
from .minkowski import boost_to
from .surfaces import _blocks, _sweep, closed_extremum

#: Grid of the ``table_oracle`` check.
TABLE_ORACLE_GRID = (16, 32)


def sphere_quadrature(n_theta, n_phi):
    """Flat nodes and weights of the sphere quadrature.

    Gauss-Legendre in cos(theta), with theta ascending, crossed with n_phi
    uniform phi nodes.  Returns theta, phi and each node's weight against
    d(cos theta) dphi, so an area element sqrt(det g) dtheta dphi enters as
    weight * sqrt(det g) / sin(theta).
    """
    t, wt = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    TH, PH = np.meshgrid(np.arccos(t[::-1]), phi, indexing="ij")
    weights = np.repeat(wt[::-1], n_phi) * (2.0 * np.pi / n_phi)
    return TH.ravel(), PH.ravel(), weights


def geometry_table(patch, u, v):
    """Value-level arrays at arbitrary chart points, read through ``surfaces._sweep``.

    Returns a dict of flat arrays: the metric values E, F, G, psi0,
    sqrt_detg, K, detA, gap_low, gap_high, H2, ii_positive and K_eta (all
    NaN if II is singular at any point, by ``_keta_unless_singular`` over
    all points).  The sweep builds one ``JetFrame`` per block of points, and
    jet arithmetic is pointwise, so but for that NaN each entry is bit for
    bit the same whichever points share the call.  The frame's guards raise
    if any point is off the cone, has psi0 <= 0 (``min psi0``) or a metric
    that is not positive definite.
    """
    def read(frame):
        det_ii = _det2(frame.II_val)
        return {
            "E": frame.E.value,
            "F": frame.F.value,
            "G": frame.G.value,
            "psi0": frame.psi0_val,
            "sqrt_detg": frame.sqrt_detg_val,
            "K": frame.K_val,
            "detA": frame.detA_val,
            "gap_low": frame.gap_low,
            "gap_high": frame.gap_high,
            "H2": frame.H2_val,
            "ii_positive": frame.ii_positive,
            "K_eta": _keta_unless_singular(det_ii, lambda: frame.K_eta),
            "det_ii": det_ii,
        }

    points = tuple(np.asarray(x, dtype=float).ravel() for x in (u, v))
    return _keta_over_all_nodes(_sweep(patch, points, read))


def expansion_table(patch, n_theta, n_phi):
    """The ``geometry_table`` entries of an expanded round sphere by the expansion law.

    ``patch.expansion`` is (sigma, r, observer): the surface is e^sigma
    times the round sphere of radius r, boosted by B = ``boost_to(observer)``
    unless the observer is None, and ``sigma`` maps direction-cosine jets
    to a jet.  A Lorentz map leaves every entry but psi0 as it is, and
    turns psi0 = r e^sigma into r e^sigma (B_00 + B_0i w_i) at the
    direction w.  The law runs on blocks of consecutive theta rings, as
    many as fit in ``surfaces._BLOCK`` nodes (at least one), each a column
    of theta jets against the row of phi jets.  The blocks' entries are
    flattened theta-major and concatenated, in the order of
    ``sphere_quadrature``'s nodes; jet arithmetic is pointwise, so they are
    bit for bit those at the flat nodes.  K_eta is all NaN if II is
    singular at any node, by ``_keta_unless_singular`` over all nodes.
    """
    sigma, r, observer = patch.expansion
    TH, PH, _ = sphere_quadrature(n_theta, n_phi)
    th, ph = TH.reshape(n_theta, n_phi)[:, :1], PH[None, :n_phi]
    B = None if observer is None else boost_to(observer)
    parts = [_ring_entries(sigma, r, B, th[rings], ph) for rings in _blocks(n_theta, n_phi)]
    return _keta_over_all_nodes({k: np.concatenate([p[k] for p in parts]) for k in parts[0]})


def _ring_entries(sigma, r, B, th, ph):
    """``expansion_table``'s flat entries on a column of theta rings, and det II."""
    tj, pj = Jet2.variable("u", th), Jet2.variable("v", ph)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = sigma(*directions(tj, pj))
        law = transforms.expansion_law(round_geometry(tj, r), s)
        entries = expansion_entries(law, s, r)
        entries["det_ii"] = law.detII
        if B is not None:
            x, y, z = directions(th, ph)
            entries["psi0"] = entries["psi0"] * (B[0, 0] + B[0, 1] * x + B[0, 2] * y + B[0, 3] * z)
    return {k: np.broadcast_to(a, (th.shape[0], ph.shape[1])).ravel() for k, a in entries.items()}


def _keta_unless_singular(det_ii, keta):
    """``keta()``, or all NaN if II is singular at any of the nodes of ``det_ii``.

    Brioschi's formula for K_eta divides by det II, so ``keta`` is called
    only where no det II is zero.  A table built in blocks applies the rule
    to each block and again over all its nodes (``_keta_over_all_nodes``).
    """
    return np.full(np.shape(det_ii), np.nan) if np.any(det_ii == 0.0) else keta()


def _keta_over_all_nodes(table):
    """The table without its ``det_ii`` entry, K_eta all NaN if any det II is zero."""
    det_ii = table.pop("det_ii")
    table["K_eta"] = _keta_unless_singular(det_ii, lambda: table["K_eta"])
    return table


def expansion_entries(law, s, r):
    """The ``geometry_table`` entries of e^s times the round sphere of radius r.

    ``law`` is ``transforms.expansion_law`` of the round sphere's
    ``surfaces.Geometry`` on jets (from ``catalog.round_geometry``) and of
    ``s``, the jet of sigma at the same (broadcast) points; the caller
    builds it, under ``np.errstate`` that ignores overflow and invalid
    values, and may read its jets too.  H2 is K, the identity <H, H> = K of
    every surface on the cone.  A sigma so large that e^{4 sigma} overflows
    leaves inf or NaN entries, without a warning; the non-degeneracy gate
    ``ii_weights`` rejects them.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        (E, F), (_, G) = law.g
        (a00, a01), (a10, a11) = law.A
        II, K, detA, det_ii = law.II, law.K, law.detA, law.detII
        return {
            "E": E,
            "F": F,
            "G": G,
            "psi0": r * np.exp(s.value),
            "sqrt_detg": np.sqrt(E * G - F * F),
            "K": K,
            "detA": detA,
            "gap_low": K**2 - 4.0 * detA,
            "ii_positive": (II[0][0].value > 0.0) & (det_ii > 0.0),
            "K_eta": _keta_unless_singular(
                det_ii, lambda: brioschi_curvature(II[0][0], II[0][1], II[1][1])
            ),
            "gap_high": 2.0 * (a00 * a00 + a01 * a10 + a10 * a01 + a11 * a11) - K**2,
            "H2": K,
        }


def induced_weights(weights, sin_theta, table):
    """Induced area weights at a table's nodes from their ``sphere_quadrature`` weights."""
    return weights * table["sqrt_detg"] / sin_theta


def worst_relative_gap(pairs, alike):
    """Largest |a - b| / max(1, |b|) over the entries of the (a, b) pairs.

    Equal entries, or NaN on both sides, agree; NaN on one side only makes
    the gap NaN.  ``alike`` false (the two routes gate apart) gives inf.
    """
    if not alike:
        return np.inf
    gaps = [0.0]
    with np.errstate(invalid="ignore", over="ignore"):
        for a, b in pairs:
            gap = np.abs(a - b) / np.maximum(1.0, np.abs(b))
            gaps.append(np.max(np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, gap)))
    return float(np.max(gaps))


def table_oracle(patch):
    """Largest gap between the expansion-law table and ``geometry_table`` on the oracle grid.

    Each float entry is compared by ``worst_relative_gap`` against the
    ``geometry_table`` entry; ``ii_positive`` must be equal, or the gap is inf.
    """
    TH, PH, _ = sphere_quadrature(*TABLE_ORACLE_GRID)
    fast, oracle = expansion_table(patch, *TABLE_ORACLE_GRID), geometry_table(patch, TH, PH)
    return worst_relative_gap(
        ((fast[k], b) for k, b in oracle.items() if k != "ii_positive"),
        np.array_equal(fast["ii_positive"], oracle["ii_positive"]),
    )


class SphereGrid:
    """Quadrature grid with cached pointwise geometry over a closed chart.

    The patch must carry an ``expansion``, (sigma, r, observer), as every
    closed chart of ``catalog`` does, and the table comes from
    ``expansion_table``; ``oracle_gap`` checks it against ``geometry_table``.
    ``weights`` is the induced area measure and ``ii_weights`` that of II.
    """

    def __init__(self, patch, n_theta=64, n_phi=128):
        if patch.expansion is None:
            raise LightconeError(f"{patch.name}: quadrature grids need a closed spherical chart "
                                 "of e^sigma times a round sphere, with its expansion")
        self.patch = patch
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        self.TH, self.PH, w2 = sphere_quadrature(self.n_theta, self.n_phi)
        self.table = expansion_table(patch, self.n_theta, self.n_phi)
        self.weights = induced_weights(w2, np.sin(self.TH), self.table)

    @cached_property
    def oracle_gap(self):
        """``table_oracle`` of the patch, computed on first read."""
        return table_oracle(self.patch)

    @property
    def n_nodes(self):
        return self.TH.size

    @cached_property
    def ii_weights(self):
        """II area weights, sqrt(det A) times the induced ones.

        The one test of the non-degeneracy hypothesis: raises unless det A is
        finite and positive and II is definite at every node, where det II > 0
        keeps K_eta finite.
        """
        t = self.table
        if not (np.all((t["detA"] > 0.0) & (t["detA"] < np.inf)) and np.all(t["ii_positive"])):
            raise LightconeError(
                f"{self.patch.name}: II area element needs finite det A > 0 and definite II "
                f"at every grid node (min det A {np.min(t['detA']):.3e})"
            )
        return self.weights * np.sqrt(t["detA"])

    def integrate(self, field):
        """Quadrature of a per-node scalar against the induced area element."""
        return float(np.sum(np.asarray(field, dtype=float) * self.weights))

    def area(self):
        return self.integrate(np.ones(self.n_nodes))

    def gauss_bonnet(self):
        """Total curvature of the induced metric; 4 pi on any sphere."""
        return self.integrate(self.table["K"])

    def gauss_bonnet_second_form(self):
        """Total curvature of II against its own area element; also 4 pi."""
        return float(np.sum(self.table["K_eta"] * self.ii_weights))

    def second_form_area(self):
        """Area of the surface in the II metric.

        At most 2 pi for every compact nondegenerate surface, with equality
        exactly on round spheres; ``global``'s ``second_form_area_bound``
        check judges it.
        """
        return float(np.sum(self.ii_weights))

    def second_curvature_floor(self):
        """Inequality chain at the maximizer of det A.

        At the true maximizer the gradient term of the curvature relation
        drops, forcing 2 K_eta >= K^2/det A there; combined with the gap
        inequality the ratio is at least 4.  At a grid node the gradient
        term is O(h^2), not zero, so ``closed_extremum`` minimizes -det A
        from the grid's own nodes and table.  Below 8x16 those nodes miss
        the maximizer's basin, so such grids raise.  Returns the point in
        the chart's (theta, phi), the ratio and the slack of each inequality.
        """
        if self.n_theta < 8 or self.n_phi < 16:
            raise LightconeError(
                f"{self.n_theta}x{self.n_phi} grid is too small for the curvature floor: "
                "the search needs n_theta >= 8 and n_phi >= 16"
            )
        self.ii_weights  # the non-degeneracy gate
        theta, phi, frame = closed_extremum(self.patch, self.TH, self.PH, -self.table["detA"],
                                            lambda f: (-f.detA, np.abs(f.detA_val)))
        ratio = float(frame.K_val**2 / frame.detA_val)
        return {
            "point": (theta, phi),
            "ratio": ratio,
            "keta_slack": 2.0 * float(frame.K_eta) - ratio,
            "floor_slack": ratio - 4.0,
        }
