import numpy as np
import pytest

from lightcone import catalog
from lightcone.errors import ConsistencyError, DegeneracyViolation
from lightcone.integrals import SphereGrid, geometry_table
from lightcone.spectrum import lambda1_estimate, reilly_bound_rhs


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


def test_second_form_area_bound_asserted():
    # corrupting the integrand should trip the consistency assertion
    grid = SphereGrid(catalog.round_sphere(r=1.0), 16, 32)
    grid.table["detA"] = grid.table["detA"] * 4.0
    with pytest.raises(ConsistencyError):
        grid.second_form_area()


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
    for r in (0.5, 1.0, 2.0):
        grid = SphereGrid(catalog.round_sphere(r=r), 48, 96)
        res = lambda1_estimate(grid)
        expected = 2.0 / r**2
        assert abs(res.value - expected) / expected < 1e-2
        assert res.refinement_gap < 0.02 * expected


def test_lambda1_monotone_refinement(unit_sphere):
    from lightcone.spectrum import _lambda1_raw

    vals = [_lambda1_raw(unit_sphere, n, 2 * n) for n in (32, 48, 64)]
    gap1 = abs(vals[1] - vals[0])
    gap2 = abs(vals[2] - vals[1])
    assert gap1 / gap2 >= 2.0


def test_lambda1_repeats_exactly(unit_sphere):
    from lightcone.spectrum import _lambda1_raw

    assert _lambda1_raw(unit_sphere, 16, 32) == _lambda1_raw(unit_sphere, 16, 32)


def test_eigenvalue_bound_round_equality(unit_grid):
    res = lambda1_estimate(unit_grid)
    rhs = res.reilly_rhs
    assert rhs == pytest.approx(2.0, abs=1e-9)  # 2 * total <H,H> / area = 2 K
    # bound with equality up to discretization on the round sphere
    assert res.value <= rhs * (1.0 + 5e-2)
    assert abs(res.value - rhs) / rhs < 5e-3


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


def test_geometry_table_chunk_size_is_bitwise(bumpy_sphere):
    u, v = bumpy_sphere.grid_points((40, 80))
    ref = geometry_table(bumpy_sphere, u, v, chunk=2048)
    for chunk in (64, 512):
        t = geometry_table(bumpy_sphere, u, v, chunk=chunk)
        for key in ref:
            assert np.array_equal(t[key], ref[key]), (chunk, key)
