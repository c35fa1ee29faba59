"""First Laplace eigenvalue of the induced metric on a closed surface.

Spectral route.  Every closed chart is psi = rho B(1, w), with B a boost and
w the unit direction at (theta, phi), so the induced metric is conformal to
the unit sphere: g = rho^2 g_S2.  The Dirichlet energy is conformally
invariant in two dimensions, so -Delta_g u = lambda u becomes
-Delta_S2 u = lambda rho^2 u.  Its Galerkin projection onto the real
harmonics of degree <= L has the stiffness matrix diag(l (l + 1)), exactly,
and the mass matrix Y^T diag(w rho^2) Y, summed with the grid's own
quadrature weights.  By min-max the second generalized eigenvalue bounds
lambda_1 from above and converges spectrally in L.  A chart whose metric is
not rho^2 g_S2 in (theta, phi) is rejected.

Cotangent route, the independent oracle.  Cotangent-weight discretization
on the triangulated quadrature grid closed by two pole fans.  The poles are
coordinate singularities only, so the pole vertices take their positions
straight from the chart; edge lengths are Minkowski chords, which agree with
intrinsic distances to second order on a spacelike surface.  It converges at
O(h^2) only, so it runs on two fixed meshes and its own refinement gap
measures how far the spectral value may sit from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenSolverFailure
from .harmonics import harmonic_basis
from .integrals import sphere_quadrature
from .minkowski import inner

#: Largest max(|F|, |G - sin^2(theta) E|) / E of a chart the spectral route accepts.
CONFORMAL_TOL = 1e-12
#: Node block of the mass-matrix sum, the chunk of ``geometry_table``.
_BLOCK = 2048
#: Fine and coarse mesh of the cotangent oracle.
ORACLE_GRIDS = ((32, 64), (16, 32))
#: Eigenpairs the cotangent oracle asks ARPACK for.
_ORACLE_K = 6
#: Largest |lambda1 - oracle| in units of the oracle's refinement gap.
LAMBDA1_ORACLE_TOL = 1.0


def _mesh(patch, nt, np_):
    """Vertices (chart positions at the quadrature nodes and poles) and triangles."""
    verts = np.empty((nt * np_ + 2, 4))
    th, ph, _ = sphere_quadrature(nt, np_)
    verts[:-2] = patch.position(th, ph)
    north = nt * np_
    south = north + 1
    verts[north] = patch.position(0.0, 0.0)
    verts[south] = patch.position(np.pi, 0.0)

    # Node (i, j) is i * np_ + j, with j wrapping around the ring.  Each
    # quad (a b / c d) of rings i and i + 1 gives (a, b, c) then (b, d, c);
    # then, per j, the north fan triangle and the south one.
    ring = np.arange(np_, dtype=np.int64)
    ahead = (ring + 1) % np_
    offset = np_ * np.arange(nt - 1, dtype=np.int64)[:, None]
    a, b = offset + ring, offset + ahead
    c, d = a + np_, b + np_
    quads = np.stack([a, b, c, b, d, c], axis=-1).reshape(-1, 3)
    last = (nt - 1) * np_
    pole = np.ones(np_, dtype=np.int64)
    fans = np.stack(
        [north * pole, ring, ahead, south * pole, last + ahead, last + ring], axis=-1
    ).reshape(-1, 3)
    return verts, np.concatenate([quads, fans])


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
    oracle: float
    oracle_gap: float


def _lambda1_raw(patch, n_theta, n_phi):
    """First nonzero eigenvalue of the cotangent Laplacian on the n_theta x n_phi mesh."""
    n_verts = n_theta * n_phi + 2
    if n_verts <= _ORACLE_K:
        raise EigenSolverFailure(
            f"{n_theta}x{n_phi} grid is too small for the spectrum: "
            f"{n_verts} mesh vertices, more than {_ORACLE_K} needed"
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
            W, k=_ORACLE_K, M=M, sigma=-0.01 * scale, which="LM", v0=v0, return_eigenvectors=False
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
    return 2.0 * grid.integrate(grid.table["H2"]) / grid.area()


def _conformal_defect(grid):
    """Largest relative departure of the chart metric from rho^2 g_S2 on the grid."""
    E, F, G = grid.table["E"], grid.table["F"], grid.table["G"]
    return float(np.max(np.maximum(np.abs(F), np.abs(G - np.sin(grid.TH) ** 2 * E)) / E))


def _mass_matrix(grid, l_max):
    """Y^T diag(grid.weights) Y over the harmonics of degree <= l_max.

    ``grid.weights`` is the quadrature weight times sqrt(det g) / sin(theta),
    which is w rho^2 > 0 on a conformal chart.  Summed over node blocks, so
    no temporary grows with the grid; each block is Z^T Z with
    Z = sqrt(w) Y, which BLAS forms as a symmetric rank-k update.
    """
    n = (l_max + 1) ** 2
    mass = np.zeros((n, n))
    root_w = np.sqrt(grid.weights)
    for s in range(0, grid.n_nodes, _BLOCK):
        Y = harmonic_basis(l_max, grid.TH[s : s + _BLOCK], grid.PH[s : s + _BLOCK])
        Z = Y * root_w[s : s + _BLOCK, None]
        mass += Z.T @ Z
    return mass


def _second_eigenvalue(stiffness, mass):
    """Second eigenvalue of diag(stiffness) c = lambda mass c."""
    try:
        vals = scipy.linalg.eigh(
            np.diag(stiffness), mass, eigvals_only=True, subset_by_index=[0, 1]
        )
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigenSolverFailure(f"Galerkin eigenproblem failed: {exc}") from exc
    return float(vals[1])


def lambda1_estimate(grid):
    """First nonzero Laplace eigenvalue, its refinement gap and the cotangent oracle.

    The Galerkin degree L = min(16, n_theta // 4, n_phi // 8) is 16 on a
    64x128 grid; the refinement gap is the change against degree L // 2,
    whose problem is the leading block of the same two matrices.
    ``oracle`` is the cotangent value on the finer of ``ORACLE_GRIDS`` and
    ``oracle_gap`` its change against the coarser one.
    """
    l_max = min(16, grid.n_theta // 4, grid.n_phi // 8)
    if l_max < 2:
        raise EigenSolverFailure(
            f"{grid.n_theta}x{grid.n_phi} grid is too small for the spectrum: "
            "the harmonic basis needs n_theta >= 8 and n_phi >= 16"
        )
    defect = _conformal_defect(grid)
    if not defect <= CONFORMAL_TOL:
        raise EigenSolverFailure(
            f"{grid.patch.name}: metric is not conformal to the round sphere in "
            f"(theta, phi): defect {defect:.3e} above {CONFORMAL_TOL:g}"
        )
    stiffness = np.concatenate([np.full(2 * l + 1, l * (l + 1.0)) for l in range(l_max + 1)])
    mass = _mass_matrix(grid, l_max)
    value = _second_eigenvalue(stiffness, mass)
    n = (l_max // 2 + 1) ** 2
    coarse = _second_eigenvalue(stiffness[:n], mass[:n, :n])
    oracle = _lambda1_raw(grid.patch, *ORACLE_GRIDS[0])
    oracle_coarse = _lambda1_raw(grid.patch, *ORACLE_GRIDS[1])
    return Lambda1Result(
        value=value,
        refinement_gap=abs(value - coarse),
        reilly_rhs=reilly_bound_rhs(grid),
        oracle=oracle,
        oracle_gap=abs(oracle - oracle_coarse),
    )
