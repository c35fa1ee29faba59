import numpy as np
import pytest

from lightcone.errors import LightconeError
from lightcone.minkowski import G, boost_to, inner, vec


def test_inner_basis_values():
    assert inner(vec(1, 0, 0, 0), vec(1, 0, 0, 0)) == -1.0
    assert inner(vec(1, 1, 0, 0), vec(1, 1, 0, 0)) == 0.0
    assert inner(vec(1, 0, 0, 0), vec(0, 1, 0, 0)) == 0.0


def test_inner_symmetric_bilinear():
    rng = np.random.default_rng(0)
    a, b, c = rng.normal(size=(3, 4))
    assert inner(a, b) == pytest.approx(inner(b, a), abs=1e-14)
    assert inner(a + 2.5 * c, b) == pytest.approx(
        inner(a, b) + 2.5 * inner(c, b), abs=1e-12
    )


def test_boost_identity():
    B = boost_to(vec(-1, 0, 0, 0))
    assert np.allclose(B, np.eye(4), atol=1e-15)


def test_boost_matches_standard_x_boost():
    s = 0.7
    B = boost_to(vec(-np.cosh(s), np.sinh(s), 0, 0))
    expected = np.array(
        [
            [np.cosh(s), -np.sinh(s), 0, 0],
            [-np.sinh(s), np.cosh(s), 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
    )
    assert np.allclose(B, expected, atol=1e-12)
    assert np.max(np.abs(B.T @ G @ B - G)) < 1e-12


def _random_past_unit_timelike(rng):
    speed = rng.uniform(0.0, 1.2)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return vec(-np.cosh(speed), *(np.sinh(speed) * n))


def test_boost_columns_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = _random_past_unit_timelike(rng)
        B = boost_to(u)
        assert np.allclose(B @ vec(-1, 0, 0, 0), u, atol=1e-12)
        # all ten distinct inner products of the columns
        gram = B.T @ G @ B
        assert np.max(np.abs(gram - G)) < 1e-12


def test_boost_preserves_inner_and_causal_class():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = _random_past_unit_timelike(rng)
        B = boost_to(u)
        a, b = rng.normal(size=(2, 4))
        assert inner(B @ a, B @ b) == pytest.approx(inner(a, b), abs=1e-12)
        v = rng.normal(size=4)
        if abs(inner(v, v)) > 1e-6:  # stay away from the lightlike boundary
            assert np.sign(inner(B @ v, B @ v)) == np.sign(inner(v, v))


def test_boost_rejects_bad_observers():
    with pytest.raises(LightconeError, match="u0 = 1"):
        boost_to(vec(1, 0, 0, 0))  # future pointing
    with pytest.raises(LightconeError, match="<u,u> = -4"):
        boost_to(vec(-2, 0, 0, 0))  # not unit
    with pytest.raises(LightconeError, match="<u,u> = 1"):
        boost_to(vec(0, 1, 0, 0))  # spacelike


def test_boost_rejects_nan_observer():
    with pytest.raises(LightconeError, match="<u,u> = nan"):
        boost_to(vec(np.nan, np.nan, np.nan, np.nan))
