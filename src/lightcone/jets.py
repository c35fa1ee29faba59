"""Bivariate truncated Taylor-jet arithmetic of fixed total order four.

Jets are the derivative engine for all the surface geometry: evaluating a
chart on lifted coordinate jets yields every partial derivative (through
total order four) that the downstream pipeline needs, with no
finite-difference noise.  The order is fixed at four on purpose: the Gauss
curvature of the second fundamental form needs second derivatives of
quantities that are themselves second order in the chart, and anything
higher is wasted work.

Storage is coefficient-major.  A jet holds one array of shape
``(N_COEFF,) + batch_shape``: row ``k`` is the Taylor coefficient
(d^{i+j} f / du^i dv^j) / (i! j!) of the k-th of the 15 monomials u^i v^j,
i + j <= 4, in graded order, across a whole batch of base points, so a
quadrature grid flows through one call and every coefficient is one
contiguous row.  ``Jet2.c`` shows the same numbers as a view of shape
``batch_shape + (N_COEFF,)``.

Truncation.  Arithmetic is graded, so coefficients above a jet's ``valid``
order never contaminate those below it; ``valid`` drops by one per
derivative and binary operations take the minimum.  Products, quotients,
compositions and derivatives compute only the coefficients within the
result's ``valid`` order and leave the higher ones zero: a product of order
v = 0..4 multiplies only the 1, 5, 15, 35 or 70 coefficient pairs whose
degrees add up to at most v (truncated Taylor arithmetic; Griewank &
Walther, *Evaluating Derivatives*, ch. 13).

Fixed-order reduction.  Output monomial k of a product sums its
coefficient pairs (a, b) in ascending (a, b) order, one elementwise add
after another.  No BLAS call takes part, so each base point's coefficients
come out bit for bit the same in any batch.  For a given output, each a has
at most one partner b, so ascending (a, b) is ascending a.  Two kernels
keep that order, and the size of the result picks one:

- Up to ``_WIDE`` result columns, the gather kernel gathers all pairs,
  multiplies them in one call and adds them layer by layer.  It makes few
  numpy calls, which small batches need, and its pair products (at most
  70 x 512 doubles) stay in cache.
- Above ``_WIDE``, the row kernel takes the rows a of the left operand in
  ascending order.  Row a of degree d meets the prefix of the right operand
  up to degree valid - d in one broadcast multiply; its pairs with the
  partners of degree e land on contiguous output rows, one slice add each.
  It makes no gather and no broadcast copy of an operand.

Both kernels start each output from its pair with the constant row a = 0
and add the others in ascending a, so their bits agree.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivisionByZeroJet, OrderExceeded

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
_DEGREE = tuple(i + j for i, j in MONOMIALS)
# Monomials of total degree <= v are the first _N_UPTO[v] rows.
_N_UPTO = tuple(sum(d <= v for d in _DEGREE) for v in range(ORDER + 1))

# Monomials of degree d are rows _START[d] .. _START[d] + d, (0, d) first.
_START = (0,) + _N_UPTO[:-1]

# Products with more result columns than this run the row kernel.
_WIDE = 512


def _product_plan(valid):
    """Gather indices and add layers of a product truncated at ``valid``.

    Output monomial k sums its pairs (a, b) in ascending (a, b) order.  The
    pairs are laid out layer by layer: layer r holds the r-th pair of every
    output that has more than r pairs, with the outputs sorted by pair
    count, most first, so each layer adds one contiguous slab of pair
    products onto a prefix of the accumulator (the first layer).  ``unsort``
    puts the accumulator rows back in graded order.
    """
    n = _N_UPTO[valid]
    pairs = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if _DEGREE[a] + _DEGREE[b] <= valid:
                (ia, ja), (ib, jb) = MONOMIALS[a], MONOMIALS[b]
                pairs[_INDEX[(ia + ib, ja + jb)]].append((a, b))
    order = sorted(range(n), key=lambda k: -len(pairs[k]))
    gather_a, gather_b, layers = [], [], []
    for r in range(len(pairs[order[0]])):
        rows = [k for k in order if len(pairs[k]) > r]
        start = len(gather_a)
        layers.append((slice(0, len(rows)), slice(start, start + len(rows))))
        gather_a += [pairs[k][r][0] for k in rows]
        gather_b += [pairs[k][r][1] for k in rows]
    return np.array(gather_a), np.array(gather_b), layers[0][1], tuple(layers[1:]), np.argsort(order)


_PRODUCT_PLANS = tuple(_product_plan(v) for v in range(ORDER + 1))


def _row_plan(valid):
    """Rows a >= 1 of a product truncated at ``valid``, with their partners and landing rows.

    Row a = (p, q) of degree d meets the first ``partners`` rows of the
    right operand, those of degree at most valid - d.  Its pairs with the
    partners of degree e, rows ``src``, land on the output rows ``dst`` of
    degree d + e, from position p on.
    """
    plan = []
    for a in range(1, _N_UPTO[valid]):
        d = _DEGREE[a]
        p = a - _START[d]
        adds = tuple(
            (slice(_START[d + e] + p, _START[d + e] + p + e + 1), slice(_START[e], _START[e] + e + 1))
            for e in range(valid - d + 1)
        )
        plan.append((a, _N_UPTO[valid - d], adds))
    return tuple(plan)


_ROW_PLANS = tuple(_row_plan(v) for v in range(ORDER + 1))


def _derivative_plan(axis, valid):
    """Source rows and factors of d/du or d/dv for result rows 0..n, n = _N_UPTO[valid]."""
    src, fac = [], []
    for i, j in MONOMIALS[: _N_UPTO[valid]]:
        i1, j1 = (i + 1, j) if axis == "u" else (i, j + 1)
        src.append(_INDEX[(i1, j1)])
        fac.append(float(i1 if axis == "u" else j1))
    return np.array(src), np.array(fac)


_DERIVATIVE_PLANS = {
    axis: tuple(_derivative_plan(axis, v) for v in range(ORDER)) for axis in ("u", "v")
}

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


def _lift(c, ndim, lead=1):
    """Array with the axes after its ``lead`` leading ones padded on the left to ``ndim``.

    Broadcasting aligns trailing axes, so a coefficient-major operand must
    be padded before it meets a longer batch, or its coefficient axis would
    pair with a batch axis.
    """
    pad = ndim - (c.ndim - lead)
    return c.reshape(c.shape[:lead] + (1,) * pad + c.shape[lead:]) if pad > 0 else c


def _columns(c, shape):
    """The coefficients as (N_COEFF, size) columns, or one column if unbatched."""
    if c[0].size == 1:
        return c.reshape(N_COEFF, 1)
    return np.broadcast_to(_lift(c, len(shape)), (N_COEFF,) + shape).reshape(N_COEFF, -1)


def _product(a, b, valid):
    """Coefficient-major product of two coefficient arrays, truncated at ``valid``."""
    shape = a.shape[1:]
    if b.shape[1:] == shape:
        if a.size > N_COEFF * _WIDE:
            return _row_product(a, b, valid, shape)
        return _gather_product(a.reshape(N_COEFF, -1), b.reshape(N_COEFF, -1), valid, shape)
    shape = np.broadcast_shapes(shape, b.shape[1:])
    if math.prod(shape) > _WIDE:
        return _row_product(a, b, valid, shape)
    return _gather_product(_columns(a, shape), _columns(b, shape), valid, shape)


def _gather_product(a, b, valid, shape):
    """The product of (N_COEFF, columns) operands by one gather of all pairs."""
    gather_a, gather_b, first, layers, unsort = _PRODUCT_PLANS[valid]
    if a.shape[1] < b.shape[1]:
        # Gather the full-width operand first, so the product can go in place.
        a, b, gather_a, gather_b = b, a, gather_b, gather_a
    n = unsort.size
    out = np.empty((N_COEFF, a.shape[1]))
    if n < N_COEFF:
        out[n:] = 0.0
    prods = a[gather_a]
    prods *= b[gather_b]
    acc = prods[first]
    for dst, src in layers:
        acc[dst] += prods[src]
    acc.take(unsort, axis=0, out=out[:n], mode="clip")
    return out.reshape((N_COEFF,) + shape)


def _row_product(a, b, valid, shape):
    """The product by rows of ``a``: one broadcast multiply per row, one slice add per degree."""
    a, b = _lift(a, len(shape)), _lift(b, len(shape))
    n = _N_UPTO[valid]
    out = np.empty((N_COEFF,) + shape)
    out[n:] = 0.0
    np.multiply(a[0], b[:n], out=out[:n])
    for row, partners, adds in _ROW_PLANS[valid]:
        prods = a[row] * b[:partners]
        for dst, src in adds:
            out[dst] += prods[src]
    return out


class Jet2:
    """Truncated bivariate Taylor expansion at a (possibly batched) base point."""

    __slots__ = ("_c", "valid")
    # An ndarray or numpy-scalar operand defers to the reflected operator
    # below, so ``array * jet`` is a jet, not an object array of jets.
    __array_ufunc__ = None

    def __init__(self, coeff, valid=ORDER):
        coeff = np.asarray(coeff, dtype=float)
        if coeff.ndim == 0 or coeff.shape[-1] != N_COEFF:
            raise ValueError(f"coefficient array must end in ({N_COEFF},)")
        self._c = np.ascontiguousarray(np.moveaxis(coeff, -1, 0))
        self.valid = int(valid)

    @classmethod
    def _wrap(cls, c, valid):
        """Jet on a coefficient-major array, without a copy."""
        out = cls.__new__(cls)
        out._c = c
        out.valid = valid
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value):
        value = np.asarray(value, dtype=float)
        c = np.zeros((N_COEFF,) + value.shape)
        c[0] = value
        return cls._wrap(c, ORDER)

    @classmethod
    def variable(cls, axis, value, valid=ORDER):
        """Jet of the coordinate function u or v at the given base value(s).

        With ``valid=0`` every product, quotient and analytic function of
        the jet computes its value row only.
        """
        if axis not in ("u", "v"):
            raise ValueError("axis must be 'u' or 'v'")
        out = cls.constant(value)
        out._c[_INDEX[(1, 0) if axis == "u" else (0, 1)]] = 1.0
        out.valid = valid
        return out

    # -- basic queries -----------------------------------------------------

    @property
    def c(self):
        """Coefficients as ``batch_shape + (N_COEFF,)``, a view of the store."""
        return self._c.transpose(tuple(range(1, self._c.ndim)) + (0,))

    @property
    def value(self):
        return self._c[0]

    @property
    def batch_shape(self):
        return self._c.shape[1:]

    def coeff(self, i, j):
        """Raw Taylor coefficient of u^i v^j."""
        return self._c[_INDEX[(i, j)]]

    def partial(self, i, j):
        """Mixed partial derivative value d^{i+j}/du^i dv^j."""
        if i < 0 or j < 0 or i + j > self.valid:
            raise OrderExceeded(f"partial ({i},{j}) exceeds valid order {self.valid}")
        return _FACT[i] * _FACT[j] * self._c[_INDEX[(i, j)]]

    def d(self, axis):
        """Partial-derivative jet; one order of validity is consumed."""
        if self.valid <= 0:
            raise OrderExceeded("jet has no derivative information left")
        try:
            src, fac = _DERIVATIVE_PLANS[axis][self.valid - 1]
        except KeyError:
            raise ValueError("axis must be 'u' or 'v'") from None
        out = np.empty_like(self._c)
        np.multiply(self._c.take(src, axis=0), _lift(fac, self._c.ndim - 1), out=out[: src.size])
        out[src.size :] = 0.0
        return Jet2._wrap(out, self.valid - 1)

    def truncated(self, valid):
        """The jet valid only through order ``valid``; the higher coefficients are zeroed."""
        n = _N_UPTO[valid]
        c = np.empty_like(self._c)
        c[:n] = self._c[:n]
        c[n:] = 0.0
        return Jet2._wrap(c, min(self.valid, valid))

    def evaluate(self, du, dv):
        """Evaluate the truncated polynomial at an offset from the base point."""
        du = np.asarray(du, dtype=float)
        dv = np.asarray(dv, dtype=float)
        total = 0.0
        for k, (i, j) in enumerate(MONOMIALS):
            if i + j > self.valid:
                continue
            total = total + self._c[k] * du**i * dv**j
        return total

    # -- arithmetic --------------------------------------------------------

    def _scale(self, s):
        s = np.asarray(s, dtype=float)
        return Jet2._wrap(_lift(self._c, s.ndim) * s, self.valid)

    def __add__(self, other):
        if isinstance(other, Jet2):
            ndim = max(self._c.ndim, other._c.ndim) - 1
            return Jet2._wrap(
                _lift(self._c, ndim) + _lift(other._c, ndim), min(self.valid, other.valid)
            )
        other = np.asarray(other, dtype=float)
        shape = np.broadcast_shapes(self.batch_shape, other.shape)
        out = np.empty((N_COEFF,) + shape)
        out[...] = _lift(self._c, len(shape))
        out[0] += other
        return Jet2._wrap(out, self.valid)

    __radd__ = __add__

    def __neg__(self):
        return Jet2._wrap(-self._c, self.valid)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            ndim = max(self._c.ndim, other._c.ndim) - 1
            return Jet2._wrap(
                _lift(self._c, ndim) - _lift(other._c, ndim), min(self.valid, other.valid)
            )
        return self + -np.asarray(other, dtype=float)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return self._scale(other)
        valid = min(self.valid, other.valid)
        return Jet2._wrap(_product(self._c, other._c, valid), valid)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return self._scale(1.0 / np.asarray(other, dtype=float))
        return _divide(self, other)

    def __rtruediv__(self, other):
        return _divide(Jet2.constant(other), self)


def weighted_sum(terms, weights):
    """The jet sum of terms[k] * weights[k] over k, added in order onto 0.0.

    Bit for bit the running sum ``total = term * weight + total`` from
    ``total = 0.0``, with one array operation per step instead of a jet
    each.  The terms share one batch shape.
    """
    total, valid = None, ORDER
    for term, weight in zip(terms, weights):
        step = term._c * float(weight)
        if total is None:
            step[0] += 0.0
        else:
            step += total
        total, valid = step, min(valid, term.valid)
    return Jet2._wrap(total, valid)


def _divide(num, den):
    b00 = den._c[0]
    if not np.all(np.isfinite(b00)) or np.any(b00 == 0.0):
        raise DivisionByZeroJet("denominator jet has a vanishing constant term")
    valid = min(num.valid, den.valid)
    shape = np.broadcast_shapes(num.batch_shape, den.batch_shape)
    a, b = _lift(num._c, len(shape)), _lift(den._c, len(shape))
    b00 = b[0]
    out = np.zeros((N_COEFF,) + shape)
    for k, terms in _DIV_PLAN[: _N_UPTO[valid]]:
        acc = a[k]
        for bi, oi in terms:
            acc = acc - b[bi] * out[oi]
        out[k] = acc / b00
    return Jet2._wrap(out, valid)


# -- analytic functions ----------------------------------------------------


def _compose(x, derivs):
    """Taylor composition f(x) from the derivatives of f at x's constant term.

    Powers of x minus its constant start at degree k, so those beyond
    x.valid vanish after truncation and are skipped.
    """
    tilde = Jet2._wrap(x._c.copy(), x.valid)
    tilde._c[0] = 0.0
    out = np.zeros_like(x._c)
    out[0] = derivs[0]
    power = None
    for k in range(1, x.valid + 1):
        power = tilde if power is None else power * tilde
        out += power._c * (derivs[k] / _FACT[k])
    return Jet2._wrap(out, x.valid)


def exp(x):
    if not isinstance(x, Jet2):
        return np.exp(x)
    e = np.exp(x.value)
    return _compose(x, [e, e, e, e, e])


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
    "sin": sin,
    "cos": cos,
    "sinh": sinh,
    "cosh": cosh,
}


# -- Minkowski-valued jets ---------------------------------------------------


class JetVec4:
    """Four jet components forming a Minkowski-vector-valued map.

    Internally one jet whose batch shape leads with the component axis,
    ``(4,) + batch_shape``: a vector operation costs a single (larger) jet
    operation, a component is one contiguous slab, and a scalar jet of the
    base batch broadcasts across the components.
    """

    __slots__ = ("j",)

    def __init__(self, x0, x1, x2, x3):
        comps = [p if isinstance(p, Jet2) else Jet2.constant(p) for p in (x0, x1, x2, x3)]
        valid = min(p.valid for p in comps)
        shape = np.broadcast_shapes(*(p.batch_shape for p in comps))
        stacked = np.stack(
            [np.broadcast_to(_lift(p._c, len(shape)), (N_COEFF,) + shape) for p in comps],
            axis=1,
        )
        self.j = Jet2._wrap(stacked, valid)

    @classmethod
    def _wrap(cls, jet):
        out = cls.__new__(cls)
        out.j = jet
        return out

    @classmethod
    def constant(cls, v):
        v = np.asarray(v, dtype=float)
        return cls._wrap(Jet2.constant(np.moveaxis(v, -1, 0)))

    def __getitem__(self, k):
        return Jet2._wrap(self.j._c[:, k], self.j.valid)

    def _padded(self, ndim):
        """The stacked jet with its base batch padded on the left to ``ndim`` axes."""
        return Jet2._wrap(_lift(self.j._c, ndim, lead=2), self.j.valid)

    def _pair(self, other):
        ndim = max(self.j._c.ndim, other.j._c.ndim) - 2
        return self._padded(ndim), other._padded(ndim)

    def __add__(self, other):
        a, b = self._pair(other)
        return JetVec4._wrap(a + b)

    def __sub__(self, other):
        a, b = self._pair(other)
        return JetVec4._wrap(a - b)

    def __neg__(self):
        return JetVec4._wrap(-self.j)

    def scale(self, s):
        """Multiply every component by a jet or scalar."""
        ndim = len(s.batch_shape) if isinstance(s, Jet2) else np.ndim(s)
        return JetVec4._wrap(self._padded(ndim) * s)

    def dot(self, other):
        """Minkowski inner product as a jet, summed in component order."""
        a, b = self._pair(other)
        prod = a * b
        p = prod._c
        out = p[:, 1] - p[:, 0]
        out += p[:, 2]
        out += p[:, 3]
        return Jet2._wrap(out, prod.valid)

    def d(self, axis):
        return JetVec4._wrap(self.j.d(axis))

    def linear_map(self, M):
        """Apply a constant 4x4 matrix componentwise, summed in component order."""
        M = np.asarray(M, dtype=float)
        c = self.j._c
        out = np.zeros_like(c)
        for k in range(4):
            for l in range(4):
                out[:, k] += M[k, l] * c[:, l]
        return JetVec4._wrap(Jet2._wrap(out, self.j.valid))

    @property
    def valid(self):
        return self.j.valid

    @property
    def values(self):
        return np.moveaxis(self.j._c[0], 0, -1)
