"""Quadrature over closed spherical charts and the global curvature checks.

The grid is Gauss-Legendre in cos(theta) crossed with uniform phi nodes, so
every node is strictly interior to the chart and analytic integrands
converge spectrally.  The area element is evaluated as sqrt(det g)/sin(theta)
against the cos(theta) measure.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DegeneracyViolation
from .surfaces import JetFrame, _det2, newton_extremum

#: Nodes per ``JetFrame`` in the ``geometry_table`` sweep.
_CHUNK = 2048


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
    """Value-level arrays at arbitrary chart points.

    Returns a dict of flat arrays: the metric values E, F, G, psi0,
    sqrt_detg, K, detA, gap_low, gap_high, H2, ii_positive and K_eta (NaN
    where II is singular).  Points are swept in chunks of ``_CHUNK`` that
    bound memory and concatenated in order, so the result is the same for
    any chunk size.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    parts = [
        _table_chunk(patch, u[s : s + _CHUNK], v[s : s + _CHUNK])
        for s in range(0, u.size, _CHUNK)
    ]
    return {k: np.concatenate([p[k] for p in parts], axis=0) for k in parts[0]}


def _table_chunk(patch, u, v):
    """The table entries of one chunk; its frame is freed on return."""
    frame = JetFrame(patch, u, v)
    out = {
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
    }
    if np.any(_det2(frame.II_val) == 0.0):
        out["K_eta"] = np.full(u.size, np.nan)
    else:
        out["K_eta"] = frame.K_eta
    return {k: np.atleast_1d(a) for k, a in out.items()}


class SphereGrid:
    """Quadrature grid with cached pointwise geometry over a closed chart.

    ``weights`` is the induced area measure and ``ii_weights`` that of II.
    """

    def __init__(self, patch, n_theta=64, n_phi=128):
        if not patch.closed:
            raise DegeneracyViolation(
                f"{patch.name}: quadrature grids need a closed spherical chart"
            )
        self.patch = patch
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        self.TH, self.PH, w2 = sphere_quadrature(self.n_theta, self.n_phi)
        self.table = geometry_table(patch, self.TH, self.PH)
        self.weights = w2 * self.table["sqrt_detg"] / np.sin(self.TH)

    @property
    def n_nodes(self):
        return self.TH.size

    @cached_property
    def ii_weights(self):
        """II area weights, sqrt(det A) times the induced ones.

        The one test of the non-degeneracy hypothesis: raises unless det A > 0
        and II is definite at every node, where det II > 0 keeps K_eta finite.
        """
        t = self.table
        if np.any(t["detA"] <= 0.0) or not np.all(t["ii_positive"]):
            raise DegeneracyViolation(
                f"{self.patch.name}: II area element needs det A > 0 and definite II "
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

    def second_curvature_floor(self, tol=1e-6):
        """Inequality chain at the maximizer of det A.

        At the true maximizer the gradient term of the curvature relation
        drops, forcing 2 K_eta >= K^2/det A there; combined with the gap
        inequality the ratio is at least 4.  The grid node of largest det A
        is refined first by ``newton_extremum``, because at the node itself
        the gradient term is O(h^2), not zero.  Returns the point, the ratio
        and the slack of each inequality.
        """
        self.ii_weights  # the non-degeneracy gate
        k = int(np.argmax(self.table["detA"]))
        u, v, _ = newton_extremum(
            self.patch, self.TH[k], self.PH[k], lambda f: (f.detA, np.abs(f.detA_val)),
            maximize=True,
        )
        frame = JetFrame(self.patch, u, v)
        ratio = frame.K_val[0] ** 2 / frame.detA_val[0]
        keta = frame.K_eta[0]
        return {
            "point": (float(u[0]), float(v[0] % (2.0 * np.pi))),
            "ratio": float(ratio),
            "k_eta": float(keta),
            "keta_slack": float(2.0 * keta - ratio),
            "floor_slack": float(ratio - 4.0),
            "passes": bool(2.0 * keta >= ratio - tol and ratio >= 4.0 - tol),
        }
