"""First Laplace eigenvalue of the induced metric on a closed surface.

Cotangent-weight discretization on the triangulated quadrature grid closed
by two pole fans.  The poles are coordinate singularities only, so the pole
vertices take their positions straight from the chart; edge lengths are
Minkowski chords, which agree with intrinsic distances to second order on a
spacelike surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenSolverFailure
from .integrals import sphere_quadrature
from .minkowski import inner


def _mesh(patch, nt, np_):
    """Vertices (chart positions at the quadrature nodes and poles) and triangles."""
    verts = np.empty((nt * np_ + 2, 4))
    th, ph, _ = sphere_quadrature(nt, np_)
    verts[:-2] = patch.position(th, ph)
    north = nt * np_
    south = north + 1
    verts[north] = patch.position(0.0, 0.0)
    verts[south] = patch.position(np.pi, 0.0)

    def node(i, j):
        return i * np_ + j % np_

    quads = []
    for i in range(nt - 1):
        for j in range(np_):
            a, b = node(i, j), node(i, j + 1)
            c, d = node(i + 1, j), node(i + 1, j + 1)
            quads.append((a, b, c))
            quads.append((b, d, c))
    fans = []
    for j in range(np_):
        fans.append((north, node(0, j), node(0, j + 1)))
        fans.append((south, node(nt - 1, j + 1), node(nt - 1, j)))
    tris = np.array(quads + fans, dtype=np.int64)
    return verts, tris


def _cotangent_system(verts, tris):
    """Stiffness and lumped-mass matrices from squared Minkowski edge lengths."""
    p = verts[tris]
    l2 = np.stack(
        [
            inner(p[:, 1] - p[:, 2], p[:, 1] - p[:, 2]),
            inner(p[:, 2] - p[:, 0], p[:, 2] - p[:, 0]),
            inner(p[:, 0] - p[:, 1], p[:, 0] - p[:, 1]),
        ],
        axis=1,
    )
    if np.any(l2 <= 0.0):
        raise EigenSolverFailure("mesh edge is not spacelike-separated")
    # 16 area^2 via Heron in squared-length form.
    a2, b2, c2 = l2[:, 0], l2[:, 1], l2[:, 2]
    area2_16 = 2.0 * (a2 * b2 + b2 * c2 + c2 * a2) - (a2**2 + b2**2 + c2**2)
    if np.any(area2_16 <= 0.0):
        raise EigenSolverFailure("degenerate mesh triangle")
    area = 0.25 * np.sqrt(area2_16)
    # cot of the angle opposite each edge: cos/sin = (b2+c2-a2) / (4 area).
    cots = np.stack(
        [
            (b2 + c2 - a2) / (4.0 * area),
            (c2 + a2 - b2) / (4.0 * area),
            (a2 + b2 - c2) / (4.0 * area),
        ],
        axis=1,
    )

    n = verts.shape[0]
    ii, jj, vv = [], [], []
    pairs = ((1, 2, 0), (2, 0, 1), (0, 1, 2))
    for e0, e1, opp in pairs:
        w = 0.5 * cots[:, opp]
        a_idx, b_idx = tris[:, e0], tris[:, e1]
        ii += [a_idx, b_idx, a_idx, b_idx]
        jj += [b_idx, a_idx, a_idx, b_idx]
        vv += [-w, -w, w, w]
    W = sp.csr_matrix(
        (np.concatenate(vv), (np.concatenate(ii), np.concatenate(jj))), shape=(n, n)
    )
    mass = np.zeros(n)
    for k in range(3):
        np.add.at(mass, tris[:, k], area / 3.0)
    return W, mass


@dataclass
class Lambda1Result:
    value: float
    refinement_gap: float
    reilly_rhs: float


def _lambda1_raw(patch, n_theta, n_phi, k=6):
    """First nonzero eigenvalue of the cotangent Laplacian on the n_theta x n_phi mesh."""
    n_verts = n_theta * n_phi + 2
    if n_verts <= k:
        raise EigenSolverFailure(
            f"{n_theta}x{n_phi} grid is too small for the spectrum: "
            f"{n_verts} mesh vertices, more than {k} needed"
        )
    verts, tris = _mesh(patch, n_theta, n_phi)
    W, mass = _cotangent_system(verts, tris)
    M = sp.diags(mass)
    scale = float(W.diagonal().sum() / mass.sum())
    # A fixed start vector makes the result repeat exactly.  It must not be
    # the constant vector, which spans the null space.
    v0 = np.random.default_rng(0).standard_normal(W.shape[0])
    try:
        vals = spla.eigsh(
            W, k=k, M=M, sigma=-0.01 * scale, which="LM", v0=v0, return_eigenvectors=False
        )
    except Exception as exc:  # arpack failures become our error type
        raise EigenSolverFailure(str(exc)) from exc
    vals = np.sort(vals)
    if abs(vals[0]) > 1e-6 * max(1.0, abs(vals[1])):
        raise EigenSolverFailure(
            f"constant mode not resolved (lambda0 = {vals[0]:.3e})"
        )
    return float(vals[1])


def reilly_bound_rhs(grid):
    """Right side of the eigenvalue bound: 2 * integral<H,H> / area."""
    return 2.0 * grid.mean_curvature_energy() / grid.area()


def lambda1_estimate(grid):
    """First nonzero Laplace eigenvalue with an a-posteriori refinement gap.

    The refinement gap is the change against a half-resolution grid and is
    the honest accuracy indicator; discrete spectra converge at O(h^2), far
    slower than the quadrature used elsewhere.
    """
    value = _lambda1_raw(grid.patch, grid.n_theta, grid.n_phi)
    coarse = _lambda1_raw(grid.patch, max(8, grid.n_theta // 2), max(16, grid.n_phi // 2))
    return Lambda1Result(
        value=value,
        refinement_gap=abs(value - coarse),
        reilly_rhs=reilly_bound_rhs(grid),
    )
