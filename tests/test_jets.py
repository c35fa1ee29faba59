import math
import operator

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import fd_weights, mixed_partial_fd
from lightcone import jets
from lightcone.errors import DivisionByZeroJet, OrderExceeded
from lightcone.jets import ANALYTIC, MONOMIALS, N_COEFF, ORDER, Jet2, JetVec4
from lightcone.surfaces import JetFrame


def random_jet(rng, positive=False, shape=()):
    c = rng.normal(size=shape + (len(MONOMIALS),))
    if positive:
        c[..., 0] = rng.uniform(0.5, 2.0, size=shape)
    return Jet2(c)


def test_lift_variable():
    u = Jet2.variable("u", 0.3)
    assert u.coeff(0, 0) == 0.3
    assert u.coeff(1, 0) == 1.0
    assert np.count_nonzero(u.c) == 2
    v = Jet2.variable("v", -1.0)
    assert v.coeff(0, 0) == -1.0
    assert v.coeff(0, 1) == 1.0


def test_product_rule_uv():
    u = Jet2.variable("u", 0.0)
    v = Jet2.variable("v", 0.0)
    uv = u * v
    assert uv.coeff(1, 1) == 1.0
    assert np.count_nonzero(uv.c) == 1


def test_square_of_variable_at_base_two():
    u = Jet2.variable("u", 2.0)
    sq = u * u
    assert sq.coeff(0, 0) == 4.0
    assert sq.coeff(1, 0) == 4.0
    assert sq.coeff(2, 0) == 1.0


def test_self_division_is_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_jet(rng, positive=True)
        one = a / a
        expected = Jet2.constant(1.0)
        assert np.max(np.abs(one.c - expected.c)) < 1e-13


def test_division_by_zero_constant_term():
    a = Jet2.variable("u", 1.0)
    b = Jet2.variable("u", 0.0)  # constant term zero
    with pytest.raises(DivisionByZeroJet):
        a / b


def test_distributivity():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b, c = (random_jet(rng) for _ in range(3))
        lhs = (a + b) * c
        rhs = a * c + b * c
        scale = np.max(np.abs(lhs.c)) + 1.0
        assert np.max(np.abs(lhs.c - rhs.c)) / scale < 1e-13


def test_product_coefficients_match_finite_differences():
    # The evaluated product of two truncated jets is a polynomial, so a
    # wide-step stencil that is exact on polynomials leaves only roundoff.
    rng = np.random.default_rng(2)
    a = random_jet(rng)
    b = random_jet(rng)
    prod = a * b

    def f(du, dv):
        return a.evaluate(du, dv) * b.evaluate(du, dv)

    for i, j in MONOMIALS:
        fd = mixed_partial_fd(f, i, j, h=0.5, n_points=11)
        exact = prod.partial(i, j)
        assert abs(fd - exact) < 1e-6, (i, j, fd, exact)


def test_cosh_series_coefficients():
    ch = jets.cosh(Jet2.variable("u", 0.0))
    expected = [1.0, 0.0, 0.5, 0.0, 1.0 / 24.0]
    for k, val in enumerate(expected):
        assert ch.coeff(k, 0) == pytest.approx(val, abs=1e-15)


def test_sin_cos_pythagoras():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = random_jet(rng)
        one = jets.sin(a) * jets.sin(a) + jets.cos(a) * jets.cos(a)
        assert np.max(np.abs(one.c - Jet2.constant(1.0).c)) < 1e-12


def test_hyperbolic_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_jet(rng)
        one = jets.cosh(a) * jets.cosh(a) - jets.sinh(a) * jets.sinh(a)
        assert np.max(np.abs(one.c - Jet2.constant(1.0).c)) < 1e-11


def _univariate_series_oracle(name, u):
    """Classic Taylor recurrences for f(u(t)) on univariate series."""
    n = len(u)
    if name == "exp":
        v = [math.exp(u[0])] + [0.0] * (n - 1)
        for k in range(1, n):
            v[k] = sum(j * u[j] * v[k - j] for j in range(1, k + 1)) / k
        return v
    if name in ("sin", "cos"):
        s = [math.sin(u[0])] + [0.0] * (n - 1)
        c = [math.cos(u[0])] + [0.0] * (n - 1)
        for k in range(1, n):
            s[k] = sum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k
            c[k] = -sum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k
        return s if name == "sin" else c
    if name in ("sinh", "cosh"):
        s = [math.sinh(u[0])] + [0.0] * (n - 1)
        c = [math.cosh(u[0])] + [0.0] * (n - 1)
        for k in range(1, n):
            s[k] = sum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k
            c[k] = sum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k
        return s if name == "sinh" else c
    raise ValueError(name)


@pytest.mark.parametrize("name", ["exp", "sin", "cos", "sinh", "cosh"])
def test_analytic_functions_match_univariate_recurrences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(100):
        series = rng.normal(size=5)
        jet = Jet2.constant(series[0])
        for k in range(1, 5):
            jet = jet + math.prod([Jet2.variable("u", 0.0)] * k, start=1.0) * series[k]
        out = ANALYTIC[name](jet)
        expected = _univariate_series_oracle(name, list(series))
        got = [out.coeff(k, 0) for k in range(5)]
        scale = max(1.0, max(abs(e) for e in expected))
        assert max(abs(g - e) for g, e in zip(got, expected)) / scale < 1e-12


def test_polynomial_chain_rule_exact():
    # Dyadic coefficients and base points keep every operation exact, so jet
    # arithmetic must reproduce the shifted polynomial coefficients with no
    # error at all.
    rng = np.random.default_rng(7)
    for _ in range(10):
        coeffs = {mono: float(rng.integers(-8, 9)) / 4.0 for mono in MONOMIALS}
        u0, v0 = float(rng.integers(-4, 5)) / 2.0, float(rng.integers(-4, 5)) / 2.0
        uj, vj = Jet2.variable("u", u0), Jet2.variable("v", v0)
        value = Jet2.constant(0.0)
        for (i, j), c in coeffs.items():
            value = value + math.prod([uj] * i + [vj] * j, start=1.0) * c
        # binomial-shift oracle for the Taylor coefficients at (u0, v0)
        for i, j in MONOMIALS:
            expected = 0.0
            for (p, q), c in coeffs.items():
                if p >= i and q >= j:
                    expected += (
                        c
                        * math.comb(p, i)
                        * math.comb(q, j)
                        * u0 ** (p - i)
                        * v0 ** (q - j)
                    )
            assert value.coeff(i, j) == expected, (i, j)


def test_partial_examples():
    assert jets.cosh(Jet2.variable("u", 0.0)).partial(4, 0) == pytest.approx(1.0)
    u, v = Jet2.variable("u", 0.0), Jet2.variable("v", 0.0)
    m = u * u * v * v
    assert m.partial(2, 2) == pytest.approx(4.0)
    a = Jet2.constant(3.5)
    assert a.partial(0, 0) == 3.5


def test_order_tracking_and_exceeded():
    u = Jet2.variable("u", 1.0)
    d1 = u.d("u")
    assert d1.valid == 3
    with pytest.raises(OrderExceeded):
        d1.partial(2, 2)
    d4 = u.d("u").d("u").d("u").d("u")
    assert d4.valid == 0
    with pytest.raises(OrderExceeded):
        d4.d("u")


def test_batched_arithmetic_matches_scalar():
    rng = np.random.default_rng(8)
    base = rng.normal(size=7)
    batch = jets.sin(Jet2.variable("u", base)) * Jet2.variable("v", 2.0 * base)
    for k, b in enumerate(base):
        single = jets.sin(Jet2.variable("u", b)) * Jet2.variable("v", 2.0 * b)
        assert np.allclose(batch.c[k], single.c, atol=1e-15)


def test_jetvec_dot_and_linear_map():
    rng = np.random.default_rng(9)
    vals = rng.normal(size=(2, 4))
    a = JetVec4.constant(vals[0])
    b = JetVec4.constant(vals[1])
    expected = -vals[0][0] * vals[1][0] + vals[0][1:] @ vals[1][1:]
    assert a.dot(b).value == pytest.approx(expected, abs=1e-14)
    M = rng.normal(size=(4, 4))
    mapped = a.linear_map(M)
    assert np.allclose(mapped.values, M @ vals[0], atol=1e-14)


def test_jetvec_derivative_components():
    u = Jet2.variable("u", 0.5)
    v = Jet2.variable("v", 0.25)
    vec = JetVec4(u * v, u, v, u * u)
    d = vec.d("u")
    assert d[0].value == pytest.approx(0.25)
    assert d[1].value == pytest.approx(1.0)
    assert d[2].value == pytest.approx(0.0)
    assert d[3].value == pytest.approx(1.0)
    assert d.valid == 3


# -- properties of the jet algebra -------------------------------------------

_coeffs = arrays(np.float64, N_COEFF, elements=st.floats(-2.0, 2.0))
_valid = st.integers(0, ORDER)


def _n_upto(v):
    return sum(i + j <= v for i, j in MONOMIALS)


@given(_coeffs, _coeffs, st.sampled_from("uv"))
def test_product_rule(ca, cb, axis):
    a, b = Jet2(ca), Jet2(cb)
    lhs = (a * b).d(axis)
    rhs = a.d(axis) * b + a * b.d(axis)
    assert lhs.valid == rhs.valid == ORDER - 1
    n = _n_upto(lhs.valid)
    assert np.allclose(lhs.c[:n], rhs.c[:n], rtol=0.0, atol=1e-12)


@given(_coeffs, st.floats(0.5, 2.0), st.booleans())
def test_times_reciprocal_is_one(c, a0, negative):
    c = c.copy()
    c[0] = -a0 if negative else a0
    a = Jet2(c)
    one = a * (1.0 / a)
    assert np.allclose(one.c, Jet2.constant(1.0).c, rtol=0.0, atol=1e-10)


@given(
    arrays(np.float64, N_COEFF, elements=st.floats(-1.0, 1.0)),
    st.floats(0.5, 2.0),
    st.sampled_from(sorted(jets.ANALYTIC)),
)
def test_composition_matches_finite_differences(c, a0, name):
    c = c.copy()
    c[0] = a0
    x = Jet2(c)
    out = ANALYTIC[name](x)
    h = 0.02
    offsets, _ = fd_weights(0, 11)
    # f(x) on the whole stencil grid at once; rows step u, columns step v
    values = getattr(np, name)(x.evaluate(offsets[:, None] * h, offsets[None, :] * h))
    for i, j in MONOMIALS:
        fd = fd_weights(i, 11)[1] @ values @ fd_weights(j, 11)[1] / h ** (i + j)
        exact = out.partial(i, j)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact)), (name, i, j, fd, exact)


@given(_coeffs, _coeffs, _valid)
def test_truncated_product_is_a_prefix_of_the_full_product(ca, cb, v):
    full = Jet2(ca) * Jet2(cb)
    low = Jet2(ca, valid=v) * Jet2(cb)
    n = _n_upto(v)
    assert low.valid == v
    assert np.array_equal(low.c[:n], full.c[:n])
    assert not np.any(low.c[n:])


@given(_coeffs, st.integers(1, 20), st.integers(0, 2**32 - 1))
@example(np.linspace(-1.0, 1.0, N_COEFF), N_COEFF, 0)
def test_scalar_times_batched_jet(cs, width, seed):
    # A batch of width N_COEFF is the case that broadcasts along the wrong
    # axis if the coefficient axis is not kept apart from the batch axes.
    batch = Jet2(np.random.default_rng(seed).uniform(-2.0, 2.0, size=(width, N_COEFF)))
    s = Jet2(cs)
    left, right = s * batch, batch * s
    assert left.batch_shape == right.batch_shape == (width,)
    for k in range(width):
        one = Jet2(batch.c[k])
        assert np.array_equal(left.c[k], (s * one).c)
        assert np.array_equal(right.c[k], (one * s).c)
    assert np.array_equal((batch + s).c, batch.c + cs)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=["+", "-", "*", "/"])
@pytest.mark.parametrize("lhs", [np.array([3.0, -0.5]), np.float64(-1.75)],
                         ids=["ndarray", "float64"])
def test_numpy_operand_on_the_left_defers_to_the_jet(op, lhs):
    # numpy would otherwise map the operator over the jet as an object array.
    jet = Jet2(np.random.default_rng(5).uniform(0.5, 2.0, size=(2, N_COEFF)))
    out = op(lhs, jet)
    ref = op(Jet2.constant(np.broadcast_to(lhs, (2,))), jet)
    assert type(out) is Jet2 and out.valid == ref.valid
    assert out.c.tobytes() == ref.c.tobytes()


# -- the two product kernels -----------------------------------------------------

# Result widths on both sides of jets._WIDE, and one broadcast of two batches.
_KERNEL_SHAPES = [
    (sa, sb)
    for n in (100, 600)
    for sa, sb in (((n,), (n,)), ((4, n), (n,)), ((4, 1), (4, n)), ((), (n,)))
] + [((64, 1), (1, 128))]


@pytest.mark.parametrize("valid", range(ORDER + 1))
@pytest.mark.parametrize("sa, sb", _KERNEL_SHAPES)
def test_row_and_gather_kernels_agree_bit_for_bit(sa, sb, valid):
    rng = np.random.default_rng(valid)
    a, b = rng.normal(size=(N_COEFF,) + sa), rng.normal(size=(N_COEFF,) + sb)
    # Signed zeros too: a sum of zero products keeps its sign only if every term has it.
    for c in (a, b):
        c[rng.random(c.shape) < 0.2] = 0.0
        c[rng.random(c.shape) < 0.2] = -0.0
    shape = np.broadcast_shapes(sa, sb)
    row = jets._row_product(a, b, valid, shape)
    gather = jets._gather_product(jets._columns(a, shape), jets._columns(b, shape), valid, shape)
    assert row.shape == gather.shape == (N_COEFF,) + shape
    assert row.tobytes() == gather.tobytes()
    assert jets._product(a, b, valid).tobytes() == row.tobytes()


# -- bitwise batch invariance ------------------------------------------------

_FRAME_FIELDS = (
    "gap_low", "K_val", "detA_val", "sqrt_detg_val", "H_val", "H2_val", "eta_val", "gamma",
)


def _frame_fields(patch, u, v):
    frame = JetFrame(patch, u, v)
    out = {name: getattr(frame, name) for name in _FRAME_FIELDS}
    out["weingarten_closed_form"] = frame.weingarten_closed_form()
    out["K_eta"] = frame.K_eta
    return out


@pytest.fixture(scope="module")
def wide_batch(bumpy_sphere):
    u, v = bumpy_sphere.sample_points(3200, np.random.default_rng(11), margin=0.03)
    return u, v, _frame_fields(bumpy_sphere, u, v)


@pytest.mark.parametrize("width", [1, 3, N_COEFF, 64, 257, 513])
def test_frame_values_are_batch_invariant(bumpy_sphere, wide_batch, width):
    u, v, full = wide_batch
    for start in (0, 1234, u.size - width):
        cols = slice(start, start + width)
        part = _frame_fields(bumpy_sphere, u[cols], v[cols])
        for name, values in part.items():
            assert np.array_equal(values, full[name][cols]), (name, start)


def test_frame_values_at_one_unbatched_point(bumpy_sphere, wide_batch):
    u, v, full = wide_batch
    point = _frame_fields(bumpy_sphere, u[7], v[7])
    for name, value in point.items():
        assert np.array_equal(value, full[name][7]), name


def test_truncated_keeps_the_low_coefficients():
    rng = np.random.default_rng(5)
    u = Jet2.variable("u", rng.uniform(0.2, 2.0, 30))
    v = Jet2.variable("v", rng.uniform(0.2, 2.0, 30))
    f, g = jets.sin(u * v), jets.exp(u - v)
    for valid in range(ORDER + 1):
        n = sum(1 for i, j in MONOMIALS if i + j <= valid)
        t = f.truncated(valid)
        assert t.valid == valid
        assert np.array_equal(t.c[..., :n], f.c[..., :n])
        assert not np.any(t.c[..., n:])
        # A product of truncated jets has the bits of the full product below the cut.
        assert np.array_equal((t * g.truncated(valid)).c[..., :n], (f * g).c[..., :n])


def test_weighted_sum_is_the_running_sum_bit_for_bit():
    rng = np.random.default_rng(9)
    u = Jet2.variable("u", rng.uniform(0.2, 2.0, 40))
    v = Jet2.variable("v", rng.uniform(0.2, 2.0, 40))
    terms = [jets.sin(u * v), jets.exp(u - v), (u * u - v).truncated(3), -(u * 0.0)]
    weights = rng.normal(size=len(terms))
    ref = 0.0
    for t, w in zip(terms, weights):
        ref = t * float(w) + ref
    out = jets.weighted_sum(terms, weights)
    assert out.valid == ref.valid == 3
    assert np.array_equal(out.c, ref.c)
    assert np.array_equal(np.signbit(out.c), np.signbit(ref.c))
