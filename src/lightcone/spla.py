"""Least eigenvalues of a symmetric block-tridiagonal pencil, in numpy alone.

``eigsh`` solves A x = lambda M x for a positive semidefinite A, given by
its diagonal blocks and the blocks below them, and a nonnegative diagonal
M, such as the cotangent Laplacian of a mesh whose vertices fall into
rings.  For a shift tau > 0, K = A + tau M is symmetric positive definite,
so its block LDL^T factorization needs no pivoting.  A seeded block
subspace iteration with K^-1 M and a Rayleigh-Ritz step on the pencil
(K, M) then converges to the least eigenvalues (Saad, Numerical Methods for
Large Eigenvalue Problems, 2nd ed., ch. 5).  The ratio (lambda_i + tau) /
(lambda_(p+1) + tau), with p the block width, sets the rate; the
eigenvalues do not depend on tau.
"""

from __future__ import annotations

import numpy as np

from .errors import LightconeError

#: Width of the iterated block.  It spans the 9 least eigenvalues of a
#: near-round sphere (degrees 0, 1 and 2), so the next, of degree 3, sets
#: the rate: (2 + tau) / (12 + tau) per step on the unit sphere.
_BLOCK = 9
#: Largest relative residual |K q - theta M q|_(M^-1) / theta of an accepted
#: Ritz pair (theta, q); the eigenvalue error is of the order of its square.
_TOL = 1e-7
#: Steps after which an unconverged iteration is rejected.
_MAX_ITER = 100


def _factor(diag, lower, mass, shift):
    """Block LDL^T of K = A + shift M: the inverse pivots D_i^-1 and the factors L_i.

    D_0 = K_00, L_i = A_(i,i-1) D_(i-1)^-1 and D_i = K_ii - L_i A_(i,i-1)^T.
    Each pivot is symmetric positive definite when K is, so a pivot without
    a Cholesky factor means K is not, and the system is rejected.
    """
    inv = np.empty_like(diag)
    factors = np.empty_like(lower)
    for i, block_mass in enumerate(mass.reshape(diag.shape[:2])):
        pivot = diag[i] + np.diag(shift * block_mass)
        if i:
            factors[i - 1] = lower[i - 1] @ inv[i - 1]
            pivot -= factors[i - 1] @ lower[i - 1].T
        try:
            c_inv = np.linalg.inv(np.linalg.cholesky(pivot))
        except np.linalg.LinAlgError as exc:
            raise LightconeError(f"shifted stiffness block {i} has no Cholesky factor") from exc
        inv[i] = c_inv.T @ c_inv
    return inv, factors


def _solve(inv, factors, rhs):
    """x with K x = rhs (rows in block order) from the block LDL^T of K."""
    g = rhs.reshape(inv.shape[0], inv.shape[1], -1).copy()
    for i in range(1, len(g)):
        g[i] -= factors[i - 1] @ g[i - 1]
    x = inv @ g
    for i in range(len(g) - 2, -1, -1):
        x[i] -= factors[i].T @ x[i + 1]
    return x.reshape(rhs.shape)


def eigsh(diag, lower, mass, k, shift):
    """The ``k`` least eigenvalues, ascending, of A x = lambda M x.

    A is symmetric block tridiagonal: ``diag`` stacks its n_b square blocks
    of width b and ``lower`` the n_b - 1 blocks below them.  ``mass`` is the
    diagonal of M in the same row order: finite and nonnegative; a row of
    mass 0 must be decoupled, with a unit diagonal, and then stays 0.
    ``shift`` > 0 makes A + shift M definite and sets only how fast the
    iteration converges.  The start block is a fixed seeded draw, so the
    result repeats exactly.  A non-finite mass, a pivot or Ritz basis
    without a Cholesky factor, or no convergence within ``_MAX_ITER`` steps
    raises ``LightconeError``.
    """
    if not np.all(np.isfinite(mass) & (mass >= 0.0)):
        raise LightconeError("mass matrix is not finite and nonnegative")
    inv, factors = _factor(diag, lower, mass, shift)
    m = mass[:, None]
    x = np.random.default_rng(0).standard_normal((mass.size, _BLOCK))
    for _ in range(_MAX_ITER):
        mx = m * x
        y = _solve(inv, factors, mx)
        # Rayleigh-Ritz on span(y); y^T K y = y^T M x since K y = M x.
        try:
            c_inv = np.linalg.inv(np.linalg.cholesky(y.T @ (m * y)))
        except np.linalg.LinAlgError as exc:
            raise LightconeError("subspace iteration lost the rank of its block") from exc
        theta, vecs = np.linalg.eigh(c_inv @ (y.T @ mx) @ c_inv.T)
        coef = c_inv.T @ vecs
        ritz = y @ coef
        # K q - theta M q = M (x coef - theta q) for each M-unit Ritz vector q.
        resid = x @ coef[:, :k] - ritz[:, :k] * theta[:k]
        rel = np.sqrt(np.sum(m * resid**2, axis=0)) / theta[:k]
        x = ritz
        if np.all(rel <= _TOL):
            return theta[:k] - shift
    raise LightconeError(
        f"subspace iteration did not converge: relative residual {np.max(rel):.1e} "
        f"above {_TOL:g} after {_MAX_ITER} steps"
    )
