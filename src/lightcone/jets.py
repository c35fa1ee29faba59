"""Bivariate truncated Taylor-jet arithmetic of fixed total order four.

Jets are the derivative engine for all the surface geometry: evaluating a
chart on lifted coordinate jets yields every partial derivative (through
total order four) that the downstream pipeline needs, with no
finite-difference noise.  The order is fixed at four on purpose: the Gauss
curvature of the second fundamental form needs second derivatives of
quantities that are themselves second order in the chart, and anything
higher is wasted work.

Storage is coefficient-major and holds only the valid rows.  A jet valid
through order v holds one array of shape ``(_N_UPTO[v],) + batch_shape``,
1, 3, 6, 10 or 15 rows: row ``k`` is the Taylor coefficient
(d^{i+j} f / du^i dv^j) / (i! j!) of the k-th monomial u^i v^j, i + j <= v,
in graded order, across a whole batch of base points, so a quadrature grid
flows through one call and every coefficient is one contiguous row.
``Jet2.c`` shows the same numbers as a view of shape
``batch_shape + (_N_UPTO[v],)``.

Truncation.  Arithmetic is graded, so coefficients above a jet's ``valid``
order never contaminate those below it; ``valid`` drops by one per
derivative and binary operations take the minimum.  Every operation reads
its operands through the result's ``valid`` order and allocates exactly the
result's rows; ``truncated`` is a view of the leading rows.  A product of
order v = 0..4 multiplies only the 1, 5, 15, 35 or 70 coefficient pairs
whose degrees add up to at most v (truncated Taylor arithmetic; Griewank &
Walther, *Evaluating Derivatives*, ch. 13).

Coordinate jets.  Every power of a jet made by ``Jet2.variable``, less its
constant term, is one monomial u^k (or v^k), so an analytic function of it
writes f^(k)(x0) / k! straight onto that row with no jet product.  Its bits
are those of the general Taylor composition (``_compose_coordinate``).

Fixed-order reduction.  Output monomial k of a product sums its
coefficient pairs (a, b) in ascending (a, b) order, one elementwise add
after another.  No BLAS call takes part, so each base point's coefficients
come out bit for bit the same in any batch.  For a given output, each a has
at most one partner b, so ascending (a, b) is ascending a.  Two kernels
keep that order, and the size of the result picks one:

- Up to ``_WIDE`` result columns, the gather kernel gathers all pairs,
  multiplies them in one call and adds them layer by layer.  It makes few
  numpy calls, which small batches need, and its pair products (at most
  70 x 512 doubles) stay in cache.  ``product_pullback`` runs the same
  kernel on the pairs of the adjoint.
- Above ``_WIDE``, the row kernel takes the rows a of the left operand in
  ascending order.  Row a of degree d meets the partners of each degree
  e <= valid - d, at most ``ORDER`` contiguous rows of the right
  operand, in one multiply-add onto the contiguous output rows of degree
  d + e.  Its temporaries are one such slab of products, and it makes no
  gather and no broadcast copy of an operand.

Both kernels start each output from its pair with the constant row a = 0
and add the others in ascending a, so their bits agree.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LightconeError

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
# d^{i+j}/du^i dv^j over the Taylor coefficient of u^i v^j, by row.
_PARTIAL_FACTORS = np.array([float(_FACT[i] * _FACT[j]) for i, j in MONOMIALS])
_DEGREE = tuple(i + j for i, j in MONOMIALS)
# Monomials of total degree <= v are the first _N_UPTO[v] rows.
_N_UPTO = tuple(sum(d <= v for d in _DEGREE) for v in range(ORDER + 1))

# Monomials of degree d are rows _START[d] .. _START[d] + d, (0, d) first.
_START = (0,) + _N_UPTO[:-1]

# Products with more result columns than this run the row kernel.
_WIDE = 512


def _times(a, b):
    """The row of the product of the monomials of rows a and b."""
    (ia, ja), (ib, jb) = MONOMIALS[a], MONOMIALS[b]
    return _INDEX[(ia + ib, ja + jb)]


def _layered_plan(pairs):
    """Gather indices and add layers that sum each output's pairs in their listed order.

    ``pairs[k]`` lists the (i, j) operand rows of output k.  Layer r holds
    the r-th pair of every output that has more than r pairs, with the
    outputs stably sorted by pair count, most first, so each layer adds one
    contiguous slab of pair products onto a prefix of the accumulator (the
    first layer).  ``unsort`` puts the accumulator rows back in the order of
    ``pairs``.
    """
    order = sorted(range(len(pairs)), key=lambda k: -len(pairs[k]))
    gather_i, gather_j, layers = [], [], []
    for r in range(len(pairs[order[0]])):
        rows = [k for k in order if len(pairs[k]) > r]
        start = len(gather_i)
        layers.append((slice(0, len(rows)), slice(start, start + len(rows))))
        gather_i += [pairs[k][r][0] for k in rows]
        gather_j += [pairs[k][r][1] for k in rows]
    return np.array(gather_i), np.array(gather_j), layers[0][1], tuple(layers[1:]), np.argsort(order)


# Output monomial k of a product truncated at v sums its pairs (a, b) in
# ascending (a, b) order.
_PRODUCT_PLANS = tuple(
    _layered_plan([[(a, b) for a in range(_N_UPTO[v]) for b in range(_N_UPTO[v])
                    if _DEGREE[a] + _DEGREE[b] <= v and _times(a, b) == k]
                   for k in range(_N_UPTO[v])])
    for v in range(ORDER + 1)
)


def _row_plan(valid):
    """Rows a >= 1 of a product truncated at ``valid``, with their landing rows.

    Row a = (p, q) of degree d meets the rows of the right operand of
    degree at most valid - d.  Its pairs with the partners of degree e,
    rows ``src``, land on the output rows ``dst`` of degree d + e, from
    position p on.
    """
    plan = []
    for a in range(1, _N_UPTO[valid]):
        d = _DEGREE[a]
        p = a - _START[d]
        adds = tuple(
            (slice(_START[d + e] + p, _START[d + e] + p + e + 1), slice(_START[e], _START[e] + e + 1))
            for e in range(valid - d + 1)
        )
        plan.append((a, adds))
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

# Row a of the pull-back of a product truncated at v sums cot[a + p] * b[p]
# over the partners p of a, those of degree at most v - deg a, in ascending p.
_PULLBACK_PLANS = tuple(
    _layered_plan([[(_times(a, p), p) for p in range(_N_UPTO[v - _DEGREE[a]])]
                   for a in range(_N_UPTO[v])])
    for v in range(ORDER + 1)
)


def _division_plan():
    """Per output monomial, the (denominator row, output row) pairs beyond the constant."""
    return tuple(
        (k, tuple((_INDEX[(p, q)], _INDEX[(i - p, j - q)])
                  for p in range(i + 1) for q in range(j + 1) if p or q))
        for k, (i, j) in enumerate(MONOMIALS)
    )


_DIV_PLAN = _division_plan()


def _lift(c, ndim, lead=1):
    """Array with the axes after its ``lead`` leading ones padded on the left to ``ndim``.

    Broadcasting aligns trailing axes, so a coefficient-major operand must
    be padded before it meets a longer batch, or its coefficient axis would
    pair with a batch axis.
    """
    pad = ndim - (c.ndim - lead)
    return c.reshape(c.shape[:lead] + (1,) * pad + c.shape[lead:]) if pad > 0 else c


def _columns(c, shape):
    """The coefficients as (rows, size) columns, or one column if unbatched."""
    if c[0].size == 1:
        return c.reshape(len(c), 1)
    return np.broadcast_to(_lift(c, len(shape)), c.shape[:1] + shape).reshape(len(c), -1)


def _common(*jets):
    """The jets' coefficients through their common ``valid``, batch axes padded alike, and it."""
    valid = min(jet.valid for jet in jets)
    ndim = max(jet._c.ndim for jet in jets) - 1
    return [_lift(jet._c[: _N_UPTO[valid]], ndim) for jet in jets], valid


def _product(a, b, valid):
    """Coefficient-major product of two coefficient arrays, truncated at ``valid``."""
    shape = a.shape[1:]
    if b.shape[1:] == shape:
        if a[0].size > _WIDE:
            return _row_product(a, b, valid, shape)
        return _gather_product(a.reshape(len(a), -1), b.reshape(len(b), -1), valid, shape)
    shape = np.broadcast_shapes(shape, b.shape[1:])
    if math.prod(shape) > _WIDE:
        return _row_product(a, b, valid, shape)
    return _gather_product(_columns(a, shape), _columns(b, shape), valid, shape)


def _gather_product(a, b, valid, shape):
    """The product of (rows, columns) operands by one gather of all pairs."""
    out = _layered_sum(a, b, _PRODUCT_PLANS[valid])
    return out.reshape(out.shape[:1] + shape)


def _layered_sum(x, y, plan):
    """Each output's sum of x[i] * y[j] over its pairs (i, j), by a ``_layered_plan``."""
    gather_x, gather_y, first, layers, unsort = plan
    if x[0].size < y[0].size:
        # Gather the full-width operand first, so the product can go in place.
        x, y, gather_x, gather_y = y, x, gather_y, gather_x
    prods = x[gather_x]
    prods *= y[gather_y]
    acc = prods[first]
    for dst, src in layers:
        acc[dst] += prods[src]
    return acc.take(unsort, axis=0)


def _row_product(a, b, valid, shape):
    """The product by rows of ``a``: one multiply-add of a slab of rows per partner degree."""
    a, b = _lift(a, len(shape)), _lift(b, len(shape))
    out = a[0] * b[: _N_UPTO[valid]]
    for row, adds in _ROW_PLANS[valid]:
        for dst, src in adds:
            out[dst] += a[row] * b[src]
    return out


class Jet2:
    """Truncated bivariate Taylor expansion at a (possibly batched) base point."""

    __slots__ = ("_c", "valid")
    # An ndarray or numpy-scalar operand defers to the reflected operator
    # below, so ``array * jet`` is a jet, not an object array of jets.
    __array_ufunc__ = None

    def __init__(self, coeff, valid=ORDER):
        """Jet of the ``N_COEFF`` coefficients on the last axis of ``coeff``, through ``valid``."""
        coeff = np.asarray(coeff, dtype=float)
        if coeff.ndim == 0 or coeff.shape[-1] != N_COEFF:
            raise ValueError(f"coefficient array must end in ({N_COEFF},)")
        self.valid = int(valid)
        self._c = np.ascontiguousarray(np.moveaxis(coeff, -1, 0)[: _N_UPTO[self.valid]])

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
        value = np.asarray(value, dtype=float)
        c = np.zeros((_N_UPTO[valid],) + value.shape)
        c[0] = value
        out = _Coordinate._wrap(c, valid)
        out.powers = _POWER_ROWS[axis]
        if valid:
            c[out.powers[1]] = 1.0
        return out

    # -- basic queries -----------------------------------------------------

    @property
    def c(self):
        """Coefficients as ``batch_shape + (_N_UPTO[valid],)``, a view of the store."""
        return self._c.transpose(tuple(range(1, self._c.ndim)) + (0,))

    @property
    def value(self):
        return self._c[0]

    @property
    def batch_shape(self):
        return self._c.shape[1:]

    def coeff(self, i, j):
        """Raw Taylor coefficient of u^i v^j, i + j at most ``valid``."""
        if i < 0 or j < 0 or i + j > self.valid:
            raise ValueError(f"monomial ({i},{j}) exceeds valid order {self.valid}")
        return self._c[_INDEX[(i, j)]]

    def partial(self, i, j):
        """Mixed partial derivative value d^{i+j}/du^i dv^j."""
        return _FACT[i] * _FACT[j] * self.coeff(i, j)

    def d(self, axis):
        """Partial-derivative jet; one order of validity is consumed."""
        if self.valid <= 0:
            raise ValueError("jet has no derivative information left")
        try:
            src, fac = _DERIVATIVE_PLANS[axis][self.valid - 1]
        except KeyError:
            raise ValueError("axis must be 'u' or 'v'") from None
        out = self._c.take(src, axis=0)
        out *= _lift(fac, out.ndim - 1)
        return Jet2._wrap(out, self.valid - 1)

    def rows(self, valid):
        """The coefficients through order ``valid`` <= the jet's, coefficient-major: a view."""
        return self._c[: _N_UPTO[valid]]

    def truncated(self, valid):
        """The jet valid only through order ``valid``: a view of the leading rows."""
        valid = min(self.valid, valid)
        return Jet2._wrap(self.rows(valid), valid)

    def copy(self):
        """The jet on a copy of its coefficients, so that it keeps no larger store alive."""
        return Jet2._wrap(self._c.copy(), self.valid)

    def evaluate(self, du, dv):
        """Evaluate the truncated polynomial at an offset from the base point."""
        du = np.asarray(du, dtype=float)
        dv = np.asarray(dv, dtype=float)
        total = 0.0
        for k, (i, j) in enumerate(MONOMIALS[: len(self._c)]):
            total = total + self._c[k] * du**i * dv**j
        return total

    # -- arithmetic --------------------------------------------------------

    def _scale(self, s):
        s = np.asarray(s, dtype=float)
        return Jet2._wrap(_lift(self._c, s.ndim) * s, self.valid)

    def __add__(self, other):
        if isinstance(other, Jet2):
            (a, b), valid = _common(self, other)
            return Jet2._wrap(a + b, valid)
        other = np.asarray(other, dtype=float)
        shape = np.broadcast_shapes(self.batch_shape, other.shape)
        out = np.empty(self._c.shape[:1] + shape)
        out[...] = _lift(self._c, len(shape))
        out[0] += other
        return Jet2._wrap(out, self.valid)

    __radd__ = __add__

    def __neg__(self):
        return Jet2._wrap(-self._c, self.valid)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            (a, b), valid = _common(self, other)
            return Jet2._wrap(a - b, valid)
        return self + -np.asarray(other, dtype=float)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return self._scale(other)
        (a, b), valid = _common(self, other)
        return Jet2._wrap(_product(a, b, valid), valid)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return self._scale(1.0 / np.asarray(other, dtype=float))
        return _divide(self, other)

    def __rtruediv__(self, other):
        return _divide(Jet2.constant(other), self)


class _Coordinate(Jet2):
    """A jet made by ``Jet2.variable``: x0 + u (or + v).

    ``powers[k]`` is the row of u^k (or v^k), the k-th power of the jet
    minus its constant term, which ``_compose`` writes to directly.
    Arithmetic on the jet returns a plain ``Jet2``.
    """

    __slots__ = ("powers",)


_POWER_ROWS = {
    axis: tuple(_INDEX[(k, 0) if axis == "u" else (0, k)] for k in range(ORDER + 1))
    for axis in ("u", "v")
}


def weighted_sum(terms, weights):
    """The jet sum of terms[k] * weights[k] over k, added in order onto 0.0.

    Bit for bit the running sum ``total = term * weight + total`` from
    ``total = 0.0``, with one array operation per step instead of a jet
    each.  The terms' batch shapes broadcast; a step of the running sum's
    shape adds it in place.  There must be at least one term.
    """
    total = None
    for term, weight in zip(terms, weights):
        if total is None:
            total = term * float(weight)
            total._c[0] += 0.0
            continue
        (step, acc), valid = _common(term, total)
        step = step * float(weight)
        if step.shape == acc.shape:
            step += acc
        else:
            step = step + acc
        total = Jet2._wrap(step, valid)
    return total


def product_pullback(cot, b):
    """The cotangent on the coefficients of a from one on those of a * b.

    ``cot`` holds a cotangent on the first ``_N_UPTO[v]`` coefficients of a
    product truncated at order v, rows in graded order; ``b`` is a jet or a
    float.  The product is linear in a, and row a of the result sums
    cot[a + p] * b[p] over the partners p of a, the adjoint of the
    truncated product (Griewank & Walther, *Evaluating Derivatives*,
    ch. 3).
    """
    if not isinstance(b, Jet2):
        return cot * b
    plan = _PULLBACK_PLANS[_N_UPTO.index(cot.shape[0])]
    return _layered_sum(cot, _lift(b._c, cot.ndim - 1), plan)


def _divide(num, den):
    b00 = den._c[0]
    if not np.all(np.isfinite(b00)) or np.any(b00 == 0.0):
        raise LightconeError("denominator jet has a vanishing constant term")
    (a, b), valid = _common(num, den)
    b00 = b[0]
    # Each row reads only rows of lower degree, all written before it.
    out = np.empty(a.shape[:1] + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for k, terms in _DIV_PLAN[: len(out)]:
        acc = a[k]
        for bi, oi in terms:
            acc = acc - b[bi] * out[oi]
        out[k] = acc / b00
    return Jet2._wrap(out, valid)


# -- analytic functions ----------------------------------------------------


def _compose(x, derivs):
    """Taylor composition f(x) from the derivatives of f at x's constant term.

    Powers of x minus its constant start at degree k, so those beyond
    x.valid vanish after truncation and are skipped.  A coordinate jet
    takes ``_compose_coordinate``, which gives the same bits.
    """
    if isinstance(x, _Coordinate):
        return _compose_coordinate(x, derivs)
    tilde = Jet2._wrap(x._c.copy(), x.valid)
    tilde._c[0] = 0.0
    out = np.zeros_like(x._c)
    out[0] = derivs[0]
    power = None
    for k in range(1, x.valid + 1):
        power = tilde if power is None else power * tilde
        out += power._c * (derivs[k] / _FACT[k])
    return Jet2._wrap(out, x.valid)


def _compose_coordinate(x, derivs):
    """``_compose`` of a coordinate jet, whose k-th power is the single monomial u^k.

    ``_compose`` adds power * c_k, c_k = derivs[k] / k!, onto zeros for each
    k in turn; the row of u^k gathers 1.0 * c_k = c_k and every other row
    0.0 * c_k (+0.0, or NaN where c_k is not finite).  Those sums are formed
    here row by row in the same order, with no jet product.
    """
    c = [derivs[k] / _FACT[k] for k in range(1, x.valid + 1)]
    zero = [0.0 * ck for ck in c]

    def gathered(start, k=0):
        for j in range(len(c)):
            start = start + (c[j] if j + 1 == k else zero[j])
        return start

    out = np.empty_like(x._c)
    out[...] = gathered(0.0)
    out[0] = gathered(derivs[0])
    for k in range(1, x.valid + 1):
        out[x.powers[k]] = gathered(0.0, k)
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
        cs, valid = _common(*comps)
        shape = np.broadcast_shapes(*(c.shape for c in cs))
        self.j = Jet2._wrap(np.stack([np.broadcast_to(c, shape) for c in cs], axis=1), valid)

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

    def _add_into(self, other):
        """Add ``other`` into this vector's own store, which it overwrites.

        Only for a vector that owns its store: a view (``truncated``,
        ``__getitem__``) would change the jet it was taken from.
        """
        self.j._c += self._into_operand(other)
        return self

    def _sub_into(self, other):
        """Subtract ``other`` from this vector's own store, as ``_add_into``."""
        self.j._c -= self._into_operand(other)
        return self

    def _into_operand(self, other):
        """The rows of ``other`` that an in-place sum reads; the sum keeps this vector's shape.

        ``other`` must be valid through this vector's order, and its batch
        must broadcast to this one's, or the sum would need a new store.
        """
        if other.valid < self.valid:
            raise ValueError("an in-place operand must be valid through this vector's order")
        return other._padded(self.j._c.ndim - 2).rows(self.valid)

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

    def truncated(self, valid):
        """The vector valid only through order ``valid``: a view of the leading rows."""
        return JetVec4._wrap(self.j.truncated(valid))

    def copy(self):
        """The vector on a copy of its coefficients, so that it keeps no larger store alive."""
        return JetVec4._wrap(self.j.copy())

    def partials(self, valid):
        """The partials through order ``valid`` as a new value array.

        Indexed ``[k, ..., :]`` in graded order of the monomials, so its
        rows are the values of the vector, d/dv, d/du, d2/dv2, d2/dudv,
        d2/du2 and so on, each ``batch_shape + (4,)``.  Unlike ``values``,
        it is no view of the jet's store.  Each row has the bits of the
        value of the jet that the ``d`` calls of its partial give.
        """
        rows = self.j.rows(valid)
        out = rows * _lift(_PARTIAL_FACTORS[: len(rows)], rows.ndim - 1)
        return out.transpose((0,) + tuple(range(2, out.ndim)) + (1,))

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
