import numpy as np
import pytest

from lightcone import catalog, integrals
from lightcone.errors import DegeneracyViolation, EigenSolverFailure
from lightcone.integrals import SphereGrid, geometry_table
from lightcone.spectrum import (
    ORACLE_GRIDS,
    _lambda1_raw,
    _mesh,
    lambda1_estimate,
    reilly_bound_rhs,
)


#: Past unit timelike observer at rapidity 0.8, the benchmark's largest.
BOOSTED_OBSERVER = np.array([-np.cosh(0.8), 0.6 * np.sinh(0.8), 0.0, 0.8 * np.sinh(0.8)])


@pytest.fixture(scope="module")
def unit_grid(unit_sphere):
    return SphereGrid(unit_sphere, 32, 64)


@pytest.fixture(scope="module")
def bumpy_grid(bumpy_sphere):
    return SphereGrid(bumpy_sphere, 48, 96)


def test_area_of_round_sphere(unit_grid):
    assert abs(unit_grid.area() - 4 * np.pi) / (4 * np.pi) < 1e-8


def test_gauss_bonnet_round(unit_grid):
    assert abs(unit_grid.gauss_bonnet() - 4 * np.pi) < 1e-9


def test_gauss_bonnet_perturbed(bumpy_grid):
    assert abs(bumpy_grid.gauss_bonnet() - 4 * np.pi) < 1e-6


def test_gauss_bonnet_second_form(unit_grid, bumpy_grid):
    assert abs(unit_grid.gauss_bonnet_second_form() - 4 * np.pi) < 1e-5
    assert abs(bumpy_grid.gauss_bonnet_second_form() - 4 * np.pi) < 1e-5


def test_quadrature_convergence_under_doubling(bumpy_sphere):
    coarse = SphereGrid(bumpy_sphere, 24, 48)
    fine = SphereGrid(bumpy_sphere, 48, 96)
    assert abs(coarse.gauss_bonnet() - fine.gauss_bonnet()) < 1e-9


def test_second_form_area_round_is_two_pi(unit_sphere):
    for r in (0.5, 1.0, 2.0):
        grid = SphereGrid(catalog.round_sphere(r=r), 24, 48)
        assert abs(grid.second_form_area() - 2 * np.pi) < 1e-9


def test_second_form_area_strictly_below_two_pi_when_bumpy(bumpy_grid):
    area = bumpy_grid.second_form_area()
    assert area < 2 * np.pi  # strict for a non-umbilical surface
    assert area > 0.9 * 2 * np.pi  # small perturbation stays close


def test_second_form_measure_requires_positivity(cylinder, paraboloid):
    with pytest.raises(DegeneracyViolation):
        SphereGrid(cylinder, 8, 16)
    # paraboloid is a plane chart as well; geometry_table still works there
    u, v = paraboloid.grid_points((8, 8))
    table = geometry_table(paraboloid, u, v)
    assert np.max(np.abs(table["detA"])) < 1e-12


def test_curvature_floor_round(unit_grid):
    out = unit_grid.second_curvature_floor()
    assert out["passes"]
    assert out["ratio"] == pytest.approx(4.0, abs=1e-9)
    # det A is constant on a round sphere: the grid node is not moved
    k = int(np.argmax(unit_grid.table["detA"]))
    assert out["point"] == (float(unit_grid.TH[k]), float(unit_grid.PH[k]))


def test_curvature_floor_refines_the_maximizer():
    # At the grid node of largest det A this surface has 2 K_eta below
    # K^2 / det A by 1.4e-6; at the refined maximizer the gradient term of
    # the curvature relation vanishes and the inequality holds.
    spec = catalog.HarmonicSpec(terms=((2, 0, 0.02), (2, 1, -0.01), (2, -2, 0.005)))
    grid = SphereGrid(catalog.perturbed_sphere(spec), 64, 128)
    k = int(np.argmax(grid.table["detA"]))
    node_slack = 2.0 * grid.table["K_eta"][k] - grid.table["K"][k] ** 2 / grid.table["detA"][k]
    assert node_slack < -1e-6
    out = grid.second_curvature_floor()
    assert out["passes"]
    assert out["keta_slack"] > -1e-12
    assert out["point"] != (float(grid.TH[k]), float(grid.PH[k]))


def test_curvature_floor_perturbed(bumpy_grid):
    out = bumpy_grid.second_curvature_floor()
    assert out["passes"]
    assert out["ratio"] >= 4.0 - 1e-6


def test_lambda1_round_sphere_all_radii():
    for r, shape in ((0.5, (32, 64)), (1.0, (48, 96)), (2.0, (64, 128))):
        for u in (None, BOOSTED_OBSERVER):
            res = lambda1_estimate(SphereGrid(catalog.round_sphere(r=r, u=u), *shape))
            expected = 2.0 / r**2
            assert abs(res.value - expected) / expected < 1e-10
            assert res.refinement_gap < 1e-10 * expected


def test_lambda1_monotone_refinement(unit_sphere):
    vals = [_lambda1_raw(unit_sphere, n, 2 * n) for n in (32, 48, 64)]
    gap1 = abs(vals[1] - vals[0])
    gap2 = abs(vals[2] - vals[1])
    assert gap1 / gap2 >= 2.0


def test_lambda1_repeats_exactly(unit_sphere, bumpy_grid):
    assert _lambda1_raw(unit_sphere, 16, 32) == _lambda1_raw(unit_sphere, 16, 32)
    assert lambda1_estimate(bumpy_grid) == lambda1_estimate(bumpy_grid)


def test_spectral_route_agrees_with_cotangent_oracle(bumpy_grid):
    # The cotangent mesh converges at O(h^2), so the spectral value should
    # sit a third of the oracle's refinement gap beyond its finer mesh, as
    # Richardson extrapolation from the two meshes predicts.
    spec = catalog.HarmonicSpec(terms=((2, 0, 0.02), (2, 1, -0.01), (2, -2, 0.005)))
    for grid in (bumpy_grid, SphereGrid(catalog.perturbed_sphere(spec), 48, 96)):
        res = lambda1_estimate(grid)
        assert res.oracle == _lambda1_raw(grid.patch, *ORACLE_GRIDS[0])
        assert res.oracle_gap == abs(res.oracle - _lambda1_raw(grid.patch, *ORACLE_GRIDS[1]))
        assert abs(abs(res.value - res.oracle) / res.oracle_gap - 1.0 / 3.0) < 0.05
        assert res.refinement_gap < 1e-6 * res.value


def test_lambda1_rejects_a_chart_not_conformal_to_the_sphere():
    grid = SphereGrid(catalog.round_sphere(r=1.0), 16, 32)
    lambda1_estimate(grid)
    grid.table["F"] = grid.table["F"] + 1e-9 * grid.table["E"]
    with pytest.raises(EigenSolverFailure, match="not conformal"):
        lambda1_estimate(grid)
    grid.table["F"] = np.full(grid.n_nodes, np.nan)
    with pytest.raises(EigenSolverFailure, match="not conformal"):
        lambda1_estimate(grid)


def test_eigenvalue_bound_round_equality(unit_grid):
    res = lambda1_estimate(unit_grid)
    rhs = res.reilly_rhs
    assert rhs == pytest.approx(2.0, abs=1e-9)  # 2 * total <H,H> / area = 2 K
    # bound with equality up to rounding on the round sphere
    assert res.value <= rhs * (1.0 + 5e-2)
    assert abs(res.value - rhs) / rhs < 1e-10


def test_eigenvalue_bound_strict_when_bumpy(bumpy_grid):
    res = lambda1_estimate(bumpy_grid)
    assert res.value <= res.reilly_rhs * (1.0 + 5e-2)
    # a decisively non-umbilical surface sits strictly inside the bound
    assert (res.reilly_rhs - res.value) / res.reilly_rhs > 5e-3


def test_reilly_rhs_is_total_curvature_ratio(bumpy_grid):
    # <H,H> equals the Gauss curvature pointwise, so the bound right side
    # is 8 pi / area for every lightcone surface
    rhs = reilly_bound_rhs(bumpy_grid)
    assert rhs == pytest.approx(8 * np.pi / bumpy_grid.area(), abs=1e-9)


def test_geometry_table_chunk_size_is_bitwise(bumpy_sphere, monkeypatch):
    u, v = bumpy_sphere.grid_points((40, 80))
    ref = geometry_table(bumpy_sphere, u, v)
    for chunk in (64, 512):
        monkeypatch.setattr(integrals, "_CHUNK", chunk)
        t = geometry_table(bumpy_sphere, u, v)
        for key in ref:
            assert np.array_equal(t[key], ref[key]), (chunk, key)


def _loop_triangles(nt, np_):
    """The oracle mesh's triangles, one quad and one fan triangle at a time."""

    def node(i, j):
        return i * np_ + j % np_

    north, south = nt * np_, nt * np_ + 1
    tris = []
    for i in range(nt - 1):
        for j in range(np_):
            a, b = node(i, j), node(i, j + 1)
            c, d = node(i + 1, j), node(i + 1, j + 1)
            tris += [(a, b, c), (b, d, c)]
    for j in range(np_):
        tris += [(north, node(0, j), node(0, j + 1)), (south, node(nt - 1, j + 1), node(nt - 1, j))]
    return np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("shape", [(1, 3), (2, 5), (16, 32), (32, 64)])
def test_mesh_triangles_match_loop_reference(unit_sphere, shape):
    verts, tris = _mesh(unit_sphere, *shape)
    ref = _loop_triangles(*shape)
    assert tris.dtype == ref.dtype and tris.shape == ref.shape
    assert np.array_equal(tris, ref)
    assert verts.shape == (shape[0] * shape[1] + 2, 4)
