"""Bivariate truncated Taylor-jet arithmetic of fixed total order four.

Jets are the derivative engine for all the surface geometry: evaluating a
chart on lifted coordinate jets yields every partial derivative (through
total order four) that the downstream pipeline needs, with no
finite-difference noise.  The order is fixed at four on purpose: the Gauss
curvature of the second fundamental form needs second derivatives of
quantities that are themselves second order in the chart, and anything
higher is wasted work.

Storage is a flat vector over the 15 monomials u^i v^j with i + j <= 4 in
graded order, ``coeff[..., k]`` = (d^{i+j} f / du^i dv^j) / (i! j!);
leading axes carry an arbitrary batch of base points, so a whole quadrature
grid flows through one call.  Truncated arithmetic is graded, so
coefficients above a jet's ``valid`` order never contaminate those below
it; ``valid`` drops by one per derivative and binary operations take the
minimum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivisionByZeroJet, DomainError, OrderExceeded

ORDER = 4


def _graded_monomials():
    out = []
    for total in range(ORDER + 1):
        for i in range(total + 1):
            out.append((i, total - i))
    return out


MONOMIALS = tuple(_graded_monomials())
N_COEFF = len(MONOMIALS)
_INDEX = {mono: k for k, mono in enumerate(MONOMIALS)}
_FACT = tuple(math.factorial(k) for k in range(ORDER + 1))

# Truncated multiplication as a sparse pair list: only coefficient pairs
# whose total degree stays within the order contribute.  A product is two
# gathers, one elementwise multiply, and one small matmul.
_pairs = [
    (a, b, _INDEX[(ia + ib, ja + jb)])
    for a, (ia, ja) in enumerate(MONOMIALS)
    for b, (ib, jb) in enumerate(MONOMIALS)
    if ia + ib + ja + jb <= ORDER
]
_PAIR_A = np.array([p[0] for p in _pairs])
_PAIR_B = np.array([p[1] for p in _pairs])
_REDUCE = np.zeros((len(_pairs), N_COEFF))
for _row, (_, _, _k) in enumerate(_pairs):
    _REDUCE[_row, _k] = 1.0

# Derivative operators as small matrices acting on coefficient vectors.
_DU = np.zeros((N_COEFF, N_COEFF))
_DV = np.zeros((N_COEFF, N_COEFF))
for _k, (_i, _j) in enumerate(MONOMIALS):
    if _i + 1 + _j <= ORDER:
        _DU[_INDEX[(_i + 1, _j)], _k] = _i + 1.0
    if _i + _j + 1 <= ORDER:
        _DV[_INDEX[(_i, _j + 1)], _k] = _j + 1.0

# Graded division plan: for each output monomial, the denominator terms
# (beyond the constant) that multiply already-computed outputs.
_DIV_PLAN = []
for _k, (_i, _j) in enumerate(MONOMIALS):
    terms = []
    for _p in range(_i + 1):
        for _q in range(_j + 1):
            if (_p, _q) != (0, 0):
                terms.append((_INDEX[(_p, _q)], _INDEX[(_i - _p, _j - _q)]))
    _DIV_PLAN.append((_k, tuple(terms)))
_DIV_PLAN = tuple(_DIV_PLAN)


class Jet2:
    """Truncated bivariate Taylor expansion at a (possibly batched) base point."""

    __slots__ = ("c", "valid")

    def __init__(self, coeff, valid=ORDER):
        self.c = np.asarray(coeff, dtype=float)
        if self.c.shape[-1] != N_COEFF:
            raise ValueError(f"coefficient array must end in ({N_COEFF},)")
        self.valid = int(valid)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value):
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (N_COEFF,))
        c[..., 0] = value
        return cls(c)

    @classmethod
    def variable(cls, axis, value):
        """Jet of the coordinate function u or v at the given base value(s)."""
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (N_COEFF,))
        c[..., 0] = value
        if axis == "u":
            c[..., _INDEX[(1, 0)]] = 1.0
        elif axis == "v":
            c[..., _INDEX[(0, 1)]] = 1.0
        else:
            raise ValueError("axis must be 'u' or 'v'")
        return cls(c)

    # -- basic queries -----------------------------------------------------

    @property
    def value(self):
        return self.c[..., 0]

    @property
    def batch_shape(self):
        return self.c.shape[:-1]

    def coeff(self, i, j):
        """Raw Taylor coefficient of u^i v^j."""
        return self.c[..., _INDEX[(i, j)]]

    def partial(self, i, j):
        """Mixed partial derivative value d^{i+j}/du^i dv^j."""
        if i < 0 or j < 0 or i + j > self.valid:
            raise OrderExceeded(f"partial ({i},{j}) exceeds valid order {self.valid}")
        return _FACT[i] * _FACT[j] * self.c[..., _INDEX[(i, j)]]

    def d(self, axis):
        """Partial-derivative jet; one order of validity is consumed."""
        if self.valid <= 0:
            raise OrderExceeded("jet has no derivative information left")
        if axis == "u":
            op = _DU
        elif axis == "v":
            op = _DV
        else:
            raise ValueError("axis must be 'u' or 'v'")
        return Jet2(self.c @ op, self.valid - 1)

    def evaluate(self, du, dv):
        """Evaluate the truncated polynomial at an offset from the base point."""
        du = np.asarray(du, dtype=float)
        dv = np.asarray(dv, dtype=float)
        total = 0.0
        for k, (i, j) in enumerate(MONOMIALS):
            if i + j > self.valid:
                continue
            total = total + self.c[..., k] * du**i * dv**j
        return total

    # -- arithmetic --------------------------------------------------------

    def _scale(self, s):
        s = np.asarray(s, dtype=float)
        return Jet2(self.c * s[..., None], self.valid)

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.c + other.c, min(self.valid, other.valid))
        other = np.asarray(other, dtype=float)
        out = np.broadcast_arrays(self.c, np.zeros(other.shape + (1,)))[0].copy()
        out[..., 0] += other
        return Jet2(out, self.valid)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.c, self.valid)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return self._scale(other)
        shape = np.broadcast_shapes(self.batch_shape, other.batch_shape)
        a = np.broadcast_to(self.c, shape + (N_COEFF,))
        b = np.broadcast_to(other.c, shape + (N_COEFF,))
        prods = a[..., _PAIR_A] * b[..., _PAIR_B]
        return Jet2(prods @ _REDUCE, min(self.valid, other.valid))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return self._scale(1.0 / np.asarray(other, dtype=float))
        return _divide(self, other)

    def __rtruediv__(self, other):
        return _divide(Jet2.constant(other), self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers must be nonnegative integers")
        out = Jet2.constant(np.ones(self.batch_shape))
        out.valid = self.valid
        for _ in range(n):
            out = out * self
        return out


def _divide(num, den):
    b = den.c
    b00 = b[..., 0]
    if not np.all(np.isfinite(b00)) or np.any(b00 == 0.0):
        raise DivisionByZeroJet("denominator jet has a vanishing constant term")
    shape = np.broadcast_shapes(num.batch_shape, den.batch_shape)
    a = np.broadcast_to(num.c, shape + (N_COEFF,))
    out = np.zeros(shape + (N_COEFF,))
    for k, terms in _DIV_PLAN:
        acc = a[..., k]
        for bi, oi in terms:
            acc = acc - b[..., bi] * out[..., oi]
        out[..., k] = acc / b00
    return Jet2(out, min(num.valid, den.valid))


# -- analytic functions ----------------------------------------------------


def _compose(x, derivs):
    """Taylor composition f(x) from the derivatives of f at x's constant term."""
    tilde = Jet2(x.c.copy(), x.valid)
    tilde.c[..., 0] = 0.0
    out = Jet2.constant(derivs[0])
    power = None
    for k in range(1, ORDER + 1):
        power = tilde if power is None else power * tilde
        out = out + power._scale(derivs[k] / _FACT[k])
    out.valid = x.valid
    return out


def exp(x):
    if not isinstance(x, Jet2):
        return np.exp(x)
    e = np.exp(x.value)
    return _compose(x, [e, e, e, e, e])


def log(x):
    if not isinstance(x, Jet2):
        return np.log(x)
    a = x.value
    if np.any(a <= 0.0):
        raise DomainError("log of a jet with nonpositive constant term")
    return _compose(x, [np.log(a), 1.0 / a, -1.0 / a**2, 2.0 / a**3, -6.0 / a**4])


def sqrt(x):
    if not isinstance(x, Jet2):
        return np.sqrt(x)
    a = x.value
    if np.any(a <= 0.0):
        raise DomainError("sqrt of a jet with nonpositive constant term")
    s = np.sqrt(a)
    return _compose(
        x,
        [s, 0.5 / s, -0.25 / (s * a), 0.375 / (s * a**2), -0.9375 / (s * a**3)],
    )


def sin(x):
    if not isinstance(x, Jet2):
        return np.sin(x)
    s, c = np.sin(x.value), np.cos(x.value)
    return _compose(x, [s, c, -s, -c, s])


def cos(x):
    if not isinstance(x, Jet2):
        return np.cos(x)
    s, c = np.sin(x.value), np.cos(x.value)
    return _compose(x, [c, -s, -c, s, c])


def sinh(x):
    if not isinstance(x, Jet2):
        return np.sinh(x)
    s, c = np.sinh(x.value), np.cosh(x.value)
    return _compose(x, [s, c, s, c, s])


def cosh(x):
    if not isinstance(x, Jet2):
        return np.cosh(x)
    s, c = np.sinh(x.value), np.cosh(x.value)
    return _compose(x, [c, s, c, s, c])


ANALYTIC = {
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "sin": sin,
    "cos": cos,
    "sinh": sinh,
    "cosh": cosh,
}


def apply_analytic(name, x):
    """Apply one of the supported analytic functions by name."""
    try:
        f = ANALYTIC[name]
    except KeyError:
        raise DomainError(f"unsupported analytic function {name!r}") from None
    return f(x)


# -- Minkowski-valued jets ---------------------------------------------------


_MINK_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])


class JetVec4:
    """Four jet components forming a Minkowski-vector-valued map.

    Internally one jet whose batch shape carries a trailing component axis,
    so vector operations cost a single (larger) jet operation.
    """

    __slots__ = ("j",)

    def __init__(self, x0, x1, x2, x3):
        comps = [p if isinstance(p, Jet2) else Jet2.constant(p) for p in (x0, x1, x2, x3)]
        valid = min(p.valid for p in comps)
        shape = np.broadcast_shapes(*(p.batch_shape for p in comps))
        stacked = np.stack(
            [np.broadcast_to(p.c, shape + (N_COEFF,)) for p in comps], axis=-2
        )
        self.j = Jet2(stacked, valid)

    @classmethod
    def _wrap(cls, jet):
        out = cls.__new__(cls)
        out.j = jet
        return out

    @classmethod
    def constant(cls, v):
        v = np.asarray(v, dtype=float)
        return cls._wrap(Jet2.constant(v))

    def __getitem__(self, k):
        return Jet2(self.j.c[..., k, :], self.j.valid)

    def __add__(self, other):
        return JetVec4._wrap(self.j + other.j)

    def __sub__(self, other):
        return JetVec4._wrap(self.j - other.j)

    def __neg__(self):
        return JetVec4._wrap(-self.j)

    def scale(self, s):
        """Multiply every component by a jet or scalar."""
        if isinstance(s, Jet2):
            s = Jet2(s.c[..., None, :], s.valid)
        else:
            s = np.asarray(s, dtype=float)[..., None]
        return JetVec4._wrap(self.j * s)

    def dot(self, other):
        """Minkowski inner product as a jet."""
        prod = self.j * other.j
        return Jet2(
            np.einsum("...kc,k->...c", prod.c, _MINK_DIAG), prod.valid
        )

    def d(self, axis):
        return JetVec4._wrap(self.j.d(axis))

    def linear_map(self, M):
        """Apply a constant 4x4 matrix componentwise."""
        M = np.asarray(M, dtype=float)
        return JetVec4._wrap(
            Jet2(np.einsum("kl,...lc->...kc", M, self.j.c), self.j.valid)
        )

    @property
    def valid(self):
        return self.j.valid

    @property
    def values(self):
        return self.j.c[..., 0]
