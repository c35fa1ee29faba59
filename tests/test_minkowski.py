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
    # exactly, with no -0.0: an unboosted chart keeps its bits
    assert np.array_equal(B, np.eye(4)) and not np.any(np.signbit(B))


@pytest.mark.parametrize("axis", [1, 2, 3], ids=["x", "y", "z"])
def test_boost_matches_standard_axis_boost(axis):
    # The pure boost along one axis: a mirror (det -1) or a permutation of
    # the spatial axes would also take (-1, 0, 0, 0) to u.
    s = 0.7
    u = vec(-np.cosh(s), 0, 0, 0)
    u[axis] = np.sinh(s)
    B = boost_to(u)
    expected = np.eye(4)
    expected[0, 0] = expected[axis, axis] = np.cosh(s)
    expected[0, axis] = expected[axis, 0] = -np.sinh(s)
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
        # proper and a pure boost: no mirror, no spatial rotation
        assert abs(np.linalg.det(B) - 1.0) < 1e-12
        assert np.max(np.abs(B - B.T)) < 1e-12


def test_boost_is_continuous_in_the_observer():
    # Two observers 2e-9 apart in direction: the boost moves as little.
    s = 0.7
    B1, B2 = (
        boost_to(vec(-np.cosh(s), *(np.sinh(s) * np.array([np.cos(a), np.sin(a), 0.0]))))
        for a in (np.pi / 4 - 1e-9, np.pi / 4 + 1e-9)
    )
    assert np.max(np.abs(B1 - B2)) < 1e-8


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
