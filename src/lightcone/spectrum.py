"""First Laplace eigenvalue of the induced metric on a closed surface.

Spectral route.  Every closed chart is psi = rho B(1, w), with B a boost and
w the unit direction at (theta, phi), so the induced metric is conformal to
the unit sphere: g = rho^2 g_S2.  The Dirichlet energy is conformally
invariant in two dimensions, so -Delta_g u = lambda u becomes
-Delta_S2 u = lambda rho^2 u.  Its Galerkin projection onto the real
harmonics of degree <= L has the stiffness matrix diag(l (l + 1)), exactly,
and the mass matrix Y^T diag(w rho^2) Y, summed with the grid's own
quadrature weights ring by ring from FFTs of each theta ring's weights
(Driscoll and Healy, Adv. Appl. Math. 15, 1994).  By min-max the second
generalized eigenvalue bounds lambda_1 from above and converges spectrally
in L; with the constant harmonic eliminated it is the reciprocal of the
largest eigenvalue of one symmetric matrix, from ``np.linalg.eigvalsh``.  A
chart whose metric is not rho^2 g_S2 in (theta, phi) is rejected.

Cotangent route, the independent oracle.  Cotangent-weight discretization
on the triangulated quadrature grid closed by two pole fans.  The poles are
coordinate singularities only, so the pole vertices take their positions
straight from the chart; edge lengths are Minkowski chords, which agree with
intrinsic distances to second order on a spacelike surface.  It converges at
O(h^2) only, so it runs on two fixed meshes and its own refinement gap
measures how far the spectral value may sit from it.  The mesh's stiffness
is block tridiagonal over its theta rings and two poles, and ``spla.eigsh``
finds its least eigenvalues by block subspace iteration on that structure;
the shift of the factored matrix, a fraction of the Galerkin value, only
speeds it up: the eigenvalue it returns is the mesh's own, whatever the
shift.  Both routes run in numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spla
from .errors import LightconeError
from .harmonics import directions, real_harmonic
from .integrals import sphere_quadrature
from .minkowski import inner

#: Largest max(|F|, |G - sin^2(theta) E|) / E of a chart the spectral route accepts.
CONFORMAL_TOL = 1e-12
#: Fine and coarse mesh of the cotangent oracle.
ORACLE_GRIDS = ((32, 64), (16, 32))
#: Shift of the cotangent oracle, as a fraction of the Galerkin lambda_1.  It
#: sets only the rate, (lambda_1 + shift) / (lambda_10 + shift) per step.
_ORACLE_SHIFT = 0.1


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


def _cotangent_system(verts, tris, n_phi):
    """Stiffness blocks and lumped mass from squared Minkowski edge lengths.

    Edges join only nodes of one ring, of neighbouring rings, or a pole and
    its ring, so the stiffness is block tridiagonal over the north pole,
    the n_theta rings and the south pole, each in a block of n_phi rows:
    ``diag`` stacks the diagonal blocks, ``lower`` the block below each,
    and ``mass`` is the lumped mass in the same rows, as ``spla.eigsh``
    takes them.  A pole fills the first row of its block; the others are
    decoupled rows of unit stiffness and no mass.
    """
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
        raise LightconeError("mesh edge is not spacelike-separated")
    # 16 area^2 via Heron in squared-length form.
    a2, b2, c2 = l2[:, 0], l2[:, 1], l2[:, 2]
    area2_16 = 2.0 * (a2 * b2 + b2 * c2 + c2 * a2) - (a2**2 + b2**2 + c2**2)
    if np.any(area2_16 <= 0.0):
        raise LightconeError("degenerate mesh triangle")
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

    # Rows of the blocks: a slot of n_phi for the north pole, one per ring,
    # then one for the south pole; a pole takes the first row of its slot.
    n = verts.shape[0]
    n_theta = (n - 2) // n_phi
    row = np.concatenate([n_phi + np.arange(n - 2), [0, (n_theta + 1) * n_phi]])
    size = (n_theta + 2) * n_phi
    # Edge k of a triangle is the one opposite its vertex k, of weight cot / 2;
    # each edge is entered both ways, and a triangle shares it with another.
    a, b = row[tris[:, [1, 2, 0]]].ravel(), row[tris[:, [2, 0, 1]]].ravel()
    i, j = np.concatenate([a, b]), np.concatenate([b, a])
    w = np.tile(0.5 * cots.ravel(), 2)
    degree = np.bincount(i, w, size)
    on = i // n_phi == j // n_phi
    below = i // n_phi == j // n_phi + 1
    diag = np.bincount(i[on] * n_phi + j[on] % n_phi, -w[on], size * n_phi)
    lower = np.bincount(
        (i[below] - n_phi) * n_phi + j[below] % n_phi, -w[below], (size - n_phi) * n_phi
    )
    diag = diag.reshape(-1, n_phi, n_phi)
    # The other rows of a pole slot: decoupled, unit stiffness, no mass.
    degree[1:n_phi] = degree[-n_phi + 1:] = 1.0
    diag[:, np.arange(n_phi), np.arange(n_phi)] = degree.reshape(-1, n_phi)
    mass = np.zeros(size)
    for k in range(3):
        np.add.at(mass, row[tris[:, k]], area / 3.0)
    return diag, lower.reshape(-1, n_phi, n_phi), mass


@dataclass
class Lambda1Result:
    value: float
    refinement_gap: float
    reilly_rhs: float
    oracle: float
    oracle_gap: float


def _lambda1_raw(patch, n_theta, n_phi, shift):
    """First nonzero eigenvalue of the cotangent Laplacian on the n_theta x n_phi mesh.

    ``spla.eigsh`` returns the two least eigenvalues of W x = lambda M x
    with W + shift M factored, so any ``shift`` > 0 gives the mesh's own
    values and only sets the rate.  The first must be the constant mode,
    eigenvalue 0, or the call raises; then the second is the least
    positive eigenvalue.  ``lambda1_estimate`` passes ``_ORACLE_SHIFT``
    times the Galerkin value.
    """
    verts, tris = _mesh(patch, n_theta, n_phi)
    vals = spla.eigsh(*_cotangent_system(verts, tris, n_phi), 2, shift)
    if not abs(vals[0]) <= 1e-6 * max(1.0, abs(vals[1])):
        raise LightconeError(f"constant mode not resolved (lambda0 = {vals[0]:.3e})")
    return float(vals[1])


def reilly_bound_rhs(grid):
    """Right side of the eigenvalue bound: 2 * integral<H,H> / area."""
    return 2.0 * grid.integrate(grid.table["H2"]) / grid.area()


def _conformal_defect(grid):
    """Largest relative departure of the chart metric from rho^2 g_S2 on the grid."""
    E, F, G = grid.table["E"], grid.table["F"], grid.table["G"]
    return float(np.max(np.maximum(np.abs(F), np.abs(G - np.sin(grid.TH) ** 2 * E)) / E))


def _mass_matrix(grid, l_max):
    """Y^T diag(grid.weights) Y over the harmonics of degree <= l_max, ring by ring.

    ``grid.weights`` is the quadrature weight times sqrt(det g) / sin(theta),
    which is w rho^2 > 0 on a conformal chart.  Y_{l,m} is a Legendre factor
    P_{l,|m|}(theta), ``real_harmonic`` of (l, |m|) at the ring colatitudes
    and phi = 0, times cos(m phi) for m >= 0 and sin(|m| phi) for m < 0.  On
    a theta ring the phi sums of w trig(m phi) trig(m' phi) are, by the
    product formulas, half sums and differences of C_k = sum w cos(k phi)
    and S_k = sum w sin(k phi) at k = |m| + |m'| and ||m| - |m'||, and those
    are the ``rfft`` coefficients of the ring's weights, C_k - i S_k.  Each
    signed order m then takes one product of its Legendre rows with every
    column weighted ring by ring.  The two triangles are averaged, so the
    matrix is exactly symmetric.
    """
    n_theta, n_phi = grid.n_theta, grid.n_phi
    pairs = [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    order = np.array([m for _, m in pairs])
    rings = grid.TH[::n_phi]
    factors = real_harmonic([(l, abs(m)) for l, m in pairs], *directions(rings, np.zeros(n_theta)))
    # Transposed, the stack is F-ordered, one contiguous column per factor; a
    # C-ordered stack holds the same values but rounds the products below
    # differently, which moves the last bit of lambda1.
    legendre = np.stack(factors).T
    coef = np.fft.rfft(grid.weights.reshape(n_theta, n_phi), axis=1)[:, : 2 * l_max + 1]
    C, S = coef.real, -coef.imag

    # ring_sums[:, i, j] is the phi sum of w trig(m phi) trig(m' phi) on each
    # ring, for m = i - l_max and m' = j - l_max.
    m, m2 = np.meshgrid(np.arange(-l_max, l_max + 1), np.arange(-l_max, l_max + 1), indexing="ij")
    a, b = np.abs(m), np.abs(m2)
    c_sum, c_diff = C[:, a + b], C[:, np.abs(a - b)]
    s_sum, s_diff = S[:, a + b], np.sign(a - b) * S[:, np.abs(a - b)]
    ring_sums = 0.5 * np.where(
        m >= 0,
        np.where(m2 >= 0, c_diff + c_sum, s_sum - s_diff),
        np.where(m2 >= 0, s_sum + s_diff, c_diff - c_sum),
    )

    mass = np.empty((len(pairs), len(pairs)))
    for k in range(-l_max, l_max + 1):
        rows = order == k
        mass[rows] = legendre[:, rows].T @ (ring_sums[:, k + l_max, order + l_max] * legendre)
    return 0.5 * (mass + mass.T)


def _second_eigenvalue(stiffness, mass):
    """Second eigenvalue of diag(stiffness) c = lambda mass c, stiffness[0] = 0 < the rest.

    The first eigenvalue is 0, with the constant harmonic.  On the other
    coefficients c' the problem is S' c' = lambda M~ c', where M~ = M'' -
    m0 m0^T / M00 is the Schur complement of the constant's row and column
    of the mass matrix, so lambda_1 = 1 / mu_max for the largest
    eigenvalue mu_max of the symmetric S'^-1/2 M~ S'^-1/2.
    """
    if not np.all(np.isfinite(mass)):
        raise LightconeError("Galerkin mass matrix is not finite")
    if not mass[0, 0] > 0.0:
        raise LightconeError("Galerkin mass matrix is not positive definite")
    m0 = mass[1:, 0] / np.sqrt(mass[0, 0])
    scale = 1.0 / np.sqrt(stiffness[1:])
    # Both outer products are symmetric bit for bit, and so is the matrix.
    reduced = (mass[1:, 1:] - np.outer(m0, m0)) * np.outer(scale, scale)
    try:
        mu = np.linalg.eigvalsh(reduced)[-1]
    except np.linalg.LinAlgError as exc:
        raise LightconeError(f"Galerkin eigenproblem failed: {exc}") from exc
    if not mu > 0.0:
        raise LightconeError("Galerkin mass matrix is not positive definite")
    return float(1.0 / mu)


def lambda1_estimate(grid):
    """First nonzero Laplace eigenvalue, its refinement gap and the cotangent oracle.

    The Galerkin degree L = min(16, n_theta // 4, n_phi // 8) is 16 on a
    64x128 grid; the refinement gap is the change against degree L // 2,
    whose problem is the leading block of the same two matrices.  Both
    values come from ``_second_eigenvalue``, a dense symmetric eigenvalue
    problem of size (L + 1)^2 - 1.  ``oracle`` is the cotangent value on the
    finer of ``ORACLE_GRIDS`` and ``oracle_gap`` its change against the
    coarser one, both solved by ``spla.eigsh`` at the shift
    ``_ORACLE_SHIFT`` times the Galerkin value.
    """
    l_max = min(16, grid.n_theta // 4, grid.n_phi // 8)
    if l_max < 2:
        raise LightconeError(
            f"{grid.n_theta}x{grid.n_phi} grid is too small for the spectrum: "
            "the harmonic basis needs n_theta >= 8 and n_phi >= 16"
        )
    defect = _conformal_defect(grid)
    if not defect <= CONFORMAL_TOL:
        raise LightconeError(
            f"{grid.patch.name}: metric is not conformal to the round sphere in "
            f"(theta, phi): defect {defect:.3e} above {CONFORMAL_TOL:g}"
        )
    stiffness = np.concatenate([np.full(2 * l + 1, l * (l + 1.0)) for l in range(l_max + 1)])
    mass = _mass_matrix(grid, l_max)
    value = _second_eigenvalue(stiffness, mass)
    n = (l_max // 2 + 1) ** 2
    coarse = _second_eigenvalue(stiffness[:n], mass[:n, :n])
    oracle = _lambda1_raw(grid.patch, *ORACLE_GRIDS[0], _ORACLE_SHIFT * value)
    oracle_coarse = _lambda1_raw(grid.patch, *ORACLE_GRIDS[1], _ORACLE_SHIFT * value)
    return Lambda1Result(
        value=value,
        refinement_gap=abs(value - coarse),
        reilly_rhs=reilly_bound_rhs(grid),
        oracle=oracle,
        oracle_gap=abs(oracle - oracle_coarse),
    )
