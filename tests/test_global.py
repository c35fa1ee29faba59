import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from lightcone import catalog, integrals, spla, surfaces, transforms
from lightcone.errors import LightconeError
from lightcone.harmonics import directions, real_harmonic
from lightcone.integrals import SphereGrid, geometry_table
from lightcone.spectrum import (
    _ORACLE_SHIFT,
    ORACLE_GRIDS,
    _cotangent_system,
    _lambda1_raw,
    _mass_matrix,
    _mesh,
    _second_eigenvalue,
    lambda1_estimate,
    reilly_bound_rhs,
)
from lightcone.surfaces import JetFrame


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
    with pytest.raises(LightconeError, match="closed spherical chart"):
        SphereGrid(cylinder, 8, 16)
    # paraboloid is a plane chart as well; geometry_table still works there
    u, v = paraboloid.grid_points((8, 8))
    table = geometry_table(paraboloid, u, v)
    assert np.max(np.abs(table["detA"])) < 1e-12


def test_curvature_floor_round(unit_grid):
    out = unit_grid.second_curvature_floor()
    assert out["keta_slack"] >= -1e-6 and out["floor_slack"] >= -1e-6
    assert out["ratio"] == pytest.approx(4.0, abs=1e-9)
    # det A is constant on a round sphere: the grid node is not moved
    assert out["point"] in set(zip(unit_grid.TH, unit_grid.PH))


@pytest.mark.parametrize("u", [None, BOOSTED_OBSERVER], ids=["rest", "boosted"])
@pytest.mark.parametrize("r", [0.7, 1.0, 1.3])
def test_curvature_floor_is_an_equality_on_round_spheres(r, u):
    # K_eta = 2 and K^2 / det A = 4 at every point of a round sphere, so both
    # inequalities of the chain hold with equality: a slack that moves off
    # zero, such as 2 K_eta + ratio, is a defect, not a wider margin.
    out = SphereGrid(catalog.round_sphere(u=u, r=r), 16, 32).second_curvature_floor()
    assert abs(out["keta_slack"]) <= 1e-12 and abs(out["floor_slack"]) <= 1e-12


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
    assert out["keta_slack"] > -1e-12 and out["floor_slack"] >= -1e-6
    assert out["point"] != (float(grid.TH[k]), float(grid.PH[k]))


def test_curvature_floor_perturbed(bumpy_grid):
    out = bumpy_grid.second_curvature_floor()
    assert out["keta_slack"] >= -1e-6
    assert out["ratio"] >= 4.0 - 1e-6


#: A zonal bump with a ring of det A maxima, and the ``perturbed-b`` sphere
#: that the verify-pointwise benchmark draws at seed 14: Newton once walked
#: into a chart pole on both and read K_eta there, failing at some radii.
FLOOR_SPECS = {
    "l2_ring": ((2, 0, -0.05),),
    "seed14_b": (
        (1, 0, -0.01350427416004987),
        (2, 0, 0.01040938978618106),
        (3, -2, -0.008904761138454396),
        (3, 0, 0.007181574915314681),
    ),
}


@functools.cache
def _floor(spec, r):
    patch = catalog.perturbed_sphere(catalog.HarmonicSpec(terms=FLOOR_SPECS[spec]), r=r)
    return SphereGrid(patch, 16, 32).second_curvature_floor()


@pytest.mark.parametrize("r", [0.7, 1.0, 1.1, 2.0])
@pytest.mark.parametrize("spec", list(FLOOR_SPECS))
def test_curvature_floor_does_not_depend_on_radius(spec, r):
    # psi -> c psi scales K by 1/c^2 and det A by 1/c^4 and leaves K_eta as
    # it is, so neither the ratio K^2 / det A nor the slacks may move with r
    out, unit = _floor(spec, r), _floor(spec, 1.0)
    assert out["keta_slack"] >= -1e-6 and out["floor_slack"] >= -1e-6
    assert out["ratio"] == pytest.approx(unit["ratio"], rel=1e-12, abs=0.0)
    assert out["keta_slack"] == pytest.approx(unit["keta_slack"], abs=1e-9)


def test_curvature_floor_reaches_the_gradient_floor():
    # a Newton step is kept while |grad det A| shrinks, so the search stops
    # at rounding, not where the change in det A drops below one ulp
    patch = catalog.perturbed_sphere(
        catalog.HarmonicSpec(terms=((2, -2, 0.03), (3, 1, 0.02))), r=1.1
    )
    out = SphereGrid(patch, 16, 32).second_curvature_floor()
    frame = JetFrame(patch, *out["point"])
    assert np.hypot(*frame.detA_grad) < 1e-12 * abs(frame.detA_val)


def test_curvature_floor_builds_only_centred_frames(monkeypatch):
    # The floor starts from the grid's own nodes and det A table, so every
    # frame it builds (all starts, each Newton step, the find) reads its
    # points at the centre (pi/2, 0) of charts centred on them.
    patch = catalog.perturbed_sphere(
        catalog.HarmonicSpec(terms=((2, -2, 0.03), (3, 1, 0.02))), r=1.1
    )
    grid = SphereGrid(patch, 64, 128)
    built, build = [], JetFrame.__init__

    def recording(self, chart, u, v):
        built.append((chart, u, v))
        build(self, chart, u, v)

    monkeypatch.setattr(JetFrame, "__init__", recording)
    grid.second_curvature_floor()
    assert 0 < len(built) <= 10
    assert all(chart is not patch and (u, v) == (np.pi / 2, 0.0) for chart, u, v in built)


@pytest.mark.parametrize("shape", [(4, 8), (7, 16), (8, 15)])
def test_curvature_floor_rejects_grids_below_8x16(shape):
    # from fewer nodes the starts miss the maximizer's basin
    with pytest.raises(LightconeError, match="too small for the curvature floor"):
        SphereGrid(catalog.round_sphere(), *shape).second_curvature_floor()


def test_lambda1_round_sphere_all_radii():
    for r, shape in ((0.5, (32, 64)), (1.0, (48, 96)), (2.0, (64, 128))):
        for u in (None, BOOSTED_OBSERVER):
            res = lambda1_estimate(SphereGrid(catalog.round_sphere(r=r, u=u), *shape))
            expected = 2.0 / r**2
            assert abs(res.value - expected) / expected < 1e-10
            assert res.refinement_gap < 1e-10 * expected


def test_lambda1_monotone_refinement(unit_sphere):
    # The Galerkin lambda_1 of the unit sphere is 2.
    vals = [_lambda1_raw(unit_sphere, n, 2 * n, _ORACLE_SHIFT * 2.0) for n in (32, 48, 64)]
    gap1 = abs(vals[1] - vals[0])
    gap2 = abs(vals[2] - vals[1])
    assert gap1 / gap2 >= 2.0


def test_lambda1_repeats_exactly(unit_sphere, bumpy_grid):
    shift = _ORACLE_SHIFT * 2.0
    assert _lambda1_raw(unit_sphere, 16, 32, shift) == _lambda1_raw(unit_sphere, 16, 32, shift)
    assert lambda1_estimate(bumpy_grid) == lambda1_estimate(bumpy_grid)


def test_spectral_route_agrees_with_cotangent_oracle(bumpy_grid):
    # The cotangent mesh converges at O(h^2), so the spectral value should
    # sit a third of the oracle's refinement gap beyond its finer mesh, as
    # Richardson extrapolation from the two meshes predicts.
    spec = catalog.HarmonicSpec(terms=((2, 0, 0.02), (2, 1, -0.01), (2, -2, 0.005)))
    for grid in (bumpy_grid, SphereGrid(catalog.perturbed_sphere(spec), 48, 96)):
        res = lambda1_estimate(grid)
        shift = _ORACLE_SHIFT * res.value
        assert res.oracle == _lambda1_raw(grid.patch, *ORACLE_GRIDS[0], shift)
        coarse = _lambda1_raw(grid.patch, *ORACLE_GRIDS[1], shift)
        assert res.oracle_gap == abs(res.oracle - coarse)
        assert abs(abs(res.value - res.oracle) / res.oracle_gap - 1.0 / 3.0) < 0.05
        assert res.refinement_gap < 1e-6 * res.value


@pytest.mark.parametrize(
    "patch",
    [catalog.round_sphere(r=1.3),
     catalog.perturbed_sphere(catalog.HarmonicSpec(((2, 0, 0.08), (4, 3, 0.03))), r=1.1)],
    ids=["round", "degree4"],
)
def test_cotangent_oracle_does_not_depend_on_its_shift(patch):
    # The oracle is the mesh's own eigenvalue: the Galerkin value only sets
    # the shift of the factored W + shift M, which is definite for every
    # shift > 0, and the iteration finds the least eigenvalues at any of
    # them, far below lambda_1 or far above it.
    galerkin = lambda1_estimate(SphereGrid(patch, 32, 64)).value
    for mesh in ORACLE_GRIDS:
        ref = _lambda1_raw(patch, *mesh, _ORACLE_SHIFT * galerkin)
        for fraction in (0.01, 0.9, 3.0):
            value = _lambda1_raw(patch, *mesh, fraction * galerkin)
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0), (mesh, fraction)


#: Round, boosted and two perturbed spheres: the spectrum's reference cases.
SPECTRUM_PATCHES = pytest.mark.parametrize(
    "patch",
    [catalog.round_sphere(r=1.3),
     catalog.round_sphere(u=BOOSTED_OBSERVER),
     catalog.perturbed_sphere(catalog.HarmonicSpec(((2, -2, 0.03), (3, 1, 0.02))), r=1.1),
     catalog.perturbed_sphere(catalog.HarmonicSpec(((2, 0, 0.08), (4, 3, 0.03))))],
    ids=["round", "boosted", "two_terms", "degree4"],
)


def _scipy_pencil(diag, lower, mass):
    """The cotangent system as scipy sparse matrices, over the mesh's own rows."""
    nb = len(diag)
    blocks = [[None] * nb for _ in range(nb)]
    for i in range(nb):
        blocks[i][i] = diag[i]
        if i + 1 < nb:
            blocks[i + 1][i], blocks[i][i + 1] = lower[i], lower[i].T
    rows = mass > 0.0
    W = scipy.sparse.bmat(blocks, format="csr")
    return W[rows][:, rows], scipy.sparse.diags(mass[rows])


@pytest.mark.parametrize("mesh", ORACLE_GRIDS, ids=lambda m: "{}x{}".format(*m))
@SPECTRUM_PATCHES
def test_block_eigensolver_matches_scipy_shift_invert(patch, mesh):
    # scipy's ARPACK in shift-invert mode below the constant mode returns the
    # same least eigenvalues; the block solver's do not move with its shift.
    system = _cotangent_system(*_mesh(patch, *mesh), mesh[1])
    W, M = _scipy_pencil(*system)
    assert W.shape == (mesh[0] * mesh[1] + 2,) * 2 and (W != W.T).nnz == 0
    ref = np.sort(scipy.sparse.linalg.eigsh(
        W, k=4, M=M, sigma=-0.1, which="LM", tol=0.0, return_eigenvectors=False
    ))
    scale = ref[1]
    low, high = (spla.eigsh(*system, 4, f * scale) for f in (_ORACLE_SHIFT, 2.0))
    assert np.max(np.abs(low - ref)) <= 1e-12 * scale, (low, ref)
    assert np.max(np.abs(high - low)) <= 1e-12 * scale, (high, low)


def _path_pencil(n_blocks, width):
    """A definite block-tridiagonal pencil: a path-graph Laplacian and unit mass."""
    n = n_blocks * width
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    lap[0, 0] = lap[-1, -1] = 1.0
    diag = np.stack([lap[i:i + width, i:i + width] for i in range(0, n, width)])
    lower = np.stack([lap[i + width:i + 2 * width, i:i + width] for i in range(0, n - width, width)])
    return diag, lower, np.ones(n), np.linalg.eigvalsh(lap)


def test_block_eigensolver_contract():
    diag, lower, mass, exact = _path_pencil(6, 4)
    assert np.allclose(spla.eigsh(diag, lower, mass, 3, 0.1), exact[:3], rtol=0, atol=1e-13)
    bad = mass.copy()
    bad[5] = np.nan
    with pytest.raises(LightconeError, match="not finite"):
        spla.eigsh(diag, lower, bad, 2, 0.1)
    with pytest.raises(LightconeError, match="block 2 has no Cholesky factor"):
        spla.eigsh(np.where(np.arange(6)[:, None, None] == 2, -diag, diag), lower, mass, 2, 0.1)


def test_block_eigensolver_stops_at_its_iteration_cap(monkeypatch):
    diag, lower, mass, _ = _path_pencil(6, 4)
    monkeypatch.setattr(spla, "_MAX_ITER", 2)
    with pytest.raises(LightconeError, match=r"did not converge: .* after 2 steps"):
        spla.eigsh(diag, lower, mass, 2, 0.1)


@SPECTRUM_PATCHES
def test_mass_matrix_is_the_weighted_gram_matrix(patch):
    # The ring-wise FFT sums against Z^T Z, Z = sqrt(w) Y over every node.
    grid = SphereGrid(patch, 64, 128)
    pairs = [(l, m) for l in range(17) for m in range(-l, l + 1)]
    Y = np.stack(real_harmonic(pairs, *directions(grid.TH, grid.PH)), axis=-1)
    Z = Y * np.sqrt(grid.weights)[:, None]
    mass = _mass_matrix(grid, 16)
    assert np.array_equal(mass, mass.T)
    assert np.max(np.abs(mass - Z.T @ Z)) <= 1e-14


def _stiffness(l_max):
    return np.concatenate([np.full(2 * l + 1, l * (l + 1.0)) for l in range(l_max + 1)])


@SPECTRUM_PATCHES
def test_galerkin_eigenvalue_matches_scipy_generalized_eigh(patch):
    mass = _mass_matrix(SphereGrid(patch, 64, 128), 16)
    for n in (mass.shape[0], 81):  # the fine problem and its leading block
        stiffness = _stiffness(16)[:n]
        ref = scipy.linalg.eigh(
            np.diag(stiffness), mass[:n, :n], eigvals_only=True, subset_by_index=[0, 1]
        )[1]
        assert _second_eigenvalue(stiffness, mass[:n, :n]) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize(
    "r, u", [(1.1, None), (1.3, None), (1.0, BOOSTED_OBSERVER)], ids=["r1.1", "r1.3", "boosted"]
)
def test_galerkin_lambda1_of_round_spheres_is_2_over_r2_to_rounding(r, u):
    # A symmetric eigensolve keeps lambda_1 within a few ulps of 2 / r^2 on
    # the 64x128 grid, boosted or not.
    mass = _mass_matrix(SphereGrid(catalog.round_sphere(r=r, u=u), 64, 128), 16)
    value = _second_eigenvalue(_stiffness(16), mass)
    assert abs(value - 2.0 / r**2) <= 1e-14 * (2.0 / r**2)


def test_galerkin_eigenvalue_rejects_a_non_finite_mass():
    mass = np.eye(9)
    mass[3, 4] = mass[4, 3] = np.inf
    with pytest.raises(LightconeError, match="not finite"):
        _second_eigenvalue(_stiffness(2), mass)


def test_lambda1_rejects_a_chart_not_conformal_to_the_sphere():
    grid = SphereGrid(catalog.round_sphere(r=1.0), 16, 32)
    lambda1_estimate(grid)
    grid.table["F"] = grid.table["F"] + 1e-9 * grid.table["E"]
    with pytest.raises(LightconeError, match="not conformal"):
        lambda1_estimate(grid)
    grid.table["F"] = np.full(grid.n_nodes, np.nan)
    with pytest.raises(LightconeError, match="not conformal"):
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


def test_geometry_table_is_bitwise_in_batches(bumpy_sphere):
    # every entry at a point is the same whichever points share its frame
    u, v = bumpy_sphere.grid_points((40, 80))
    ref = geometry_table(bumpy_sphere, u, v)
    parts = [geometry_table(bumpy_sphere, u[s], v[s])
             for s in (slice(0, 64), slice(64, 576), slice(576, None))]
    for key in ref:
        assert np.array_equal(np.concatenate([p[key] for p in parts]), ref[key]), key


def _planted_law(monkeypatch, node):
    """``transforms.expansion_law`` with det II = 0 at one flat node of the table."""
    law, offset = transforms.expansion_law, [0]

    def planted(base, s):
        out = law(base, s)
        det = np.array(out.detII)
        if 0 <= node - offset[0] < det.size:
            det.reshape(-1)[node - offset[0]] = 0.0
        offset[0] += det.size
        return out._replace(detII=det)

    monkeypatch.setattr(transforms, "expansion_law", planted)


def _planted_frame(monkeypatch, u0, v0):
    """``surfaces.JetFrame`` with II = 0 at the chart point (u0, v0)."""
    class Planted(JetFrame):
        @functools.cached_property
        def II_val(self):
            II = JetFrame.II_val.func(self).copy()
            II[(self.u == u0) & (self.v == v0)] = 0.0
            return II

    monkeypatch.setattr(surfaces, "JetFrame", Planted)


@pytest.mark.parametrize("block", [2048, 10**6])
def test_singular_second_form_at_one_node_blanks_k_eta_in_every_block(
        bumpy_sphere, monkeypatch, block):
    # K_eta is all NaN if II is singular at any node.  The rule holds over
    # all nodes of a table built in blocks, as over the one block of 10**6:
    # det II = 0 at one node of the last block of three (48x96 sigma table)
    # or of two (geometry_table at 3200 points) blanks the other blocks too.
    monkeypatch.setattr(surfaces, "_BLOCK", block)
    clean = integrals.expansion_table(bumpy_sphere, 48, 96)
    with monkeypatch.context() as m:
        _planted_law(m, 4500)
        table = integrals.expansion_table(bumpy_sphere, 48, 96)
    assert np.all(np.isfinite(clean["K_eta"])) and np.all(np.isnan(table["K_eta"]))
    assert np.flatnonzero(~table["ii_positive"]).tolist() == [4500]

    u, v = bumpy_sphere.grid_points((40, 80))
    clean = geometry_table(bumpy_sphere, u, v)
    with monkeypatch.context() as m:
        _planted_frame(m, u[3000], v[3000])
        table = geometry_table(bumpy_sphere, u, v)
    assert np.all(np.isfinite(clean["K_eta"])) and np.all(np.isnan(table["K_eta"]))
    assert np.flatnonzero(~table["ii_positive"]).tolist() == [3000]


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


def _perturbed(terms, r=1.0):
    return catalog.perturbed_sphere(catalog.HarmonicSpec(terms=terms), r=r)


def test_sphere_grid_takes_the_expansion_family_only(unit_sphere, bumpy_sphere):
    from lightcone.surfaces import centred, centring
    from lightcone.transforms import conjugate, expand

    # A radial graph of a sigma that is no harmonic spec is a family member:
    # its sigma table passes the JetFrame oracle.
    graph = catalog.graph_over_sphere(lambda x, y, z: x * z * 0.3 + y * 0.2)
    assert 0.0 <= SphereGrid(graph, 8, 16).oracle_gap <= 1e-9
    # A closed chart that carries no sigma has no table.
    outside = [expand(unit_sphere, lambda uj, vj: uj * 0.0 + 0.1), conjugate(bumpy_sphere),
               centred(bumpy_sphere, centring(0.3, 1.0))]
    for patch in outside:
        assert patch.closed
        with pytest.raises(LightconeError, match="closed spherical chart"):
            SphereGrid(patch, 8, 16)


def test_oracle_gap_is_the_table_oracle_of_the_sigma_route(bumpy_sphere, monkeypatch):
    oracle, calls = integrals.table_oracle, []

    def counted(patch):
        calls.append(patch)
        return oracle(patch)

    monkeypatch.setattr(integrals, "table_oracle", counted)
    bumpy = SphereGrid(bumpy_sphere, 8, 16)
    assert calls == []  # building a grid runs no oracle
    gap = bumpy.oracle_gap
    assert calls == [bumpy_sphere]
    assert gap == oracle(bumpy_sphere)
    assert bumpy.oracle_gap == gap and len(calls) == 1  # cached


@pytest.mark.parametrize("shape", [(16, 32), (64, 128)])
def test_tensor_product_sigma_table_equals_flat_nodes(bumpy_sphere, shape):
    from lightcone.jets import Jet2
    from lightcone.transforms import expansion_law

    ref = integrals.expansion_table(bumpy_sphere, *shape)
    TH, PH, _ = integrals.sphere_quadrature(*shape)
    sigma, r, _ = bumpy_sphere.expansion
    tj, pj = Jet2.variable("u", TH), Jet2.variable("v", PH)
    s = sigma(*directions(tj, pj))
    flat = integrals.expansion_entries(expansion_law(catalog.round_geometry(tj, r), s), s, r)
    for key in ref:
        assert np.array_equal(ref[key], np.broadcast_to(flat[key], TH.shape)), key


# The degree-3 case carries a degree-0 and a degree-1 term, which the
# search keeps frozen; the law must hold for them all the same.
@pytest.mark.parametrize("r", [0.5, 1.7])
@pytest.mark.parametrize(
    "terms",
    [((2, 0, 0.03), (2, -2, 0.02)),
     ((3, 1, 0.02), (3, -3, -0.01), (1, 0, 0.01), (0, 0, 0.05)),
     ((4, 2, 0.01), (4, -1, -0.008), (2, 1, 0.01))],
    ids=["degree2", "degree3", "degree4"],
)
def test_table_oracle_passes(r, terms):
    gap = integrals.table_oracle(_perturbed(terms, r))
    assert 0.0 <= gap <= 1e-9


def test_table_oracle_sees_a_broken_entry(bumpy_sphere, monkeypatch):
    table = integrals.expansion_table

    def broken(patch, n_theta, n_phi):
        t = table(patch, n_theta, n_phi)
        t["K_eta"] = t["K_eta"] * (1.0 + 1e-8)
        return t

    monkeypatch.setattr(integrals, "expansion_table", broken)
    assert integrals.table_oracle(bumpy_sphere) > 1e-9


def test_worst_relative_gap_rule():
    # The one rule of table_oracle and the search's closed_form_oracle.
    gap = integrals.worst_relative_gap
    same = np.array([3.0, np.nan, np.inf, -0.0])
    assert gap([(same, same.copy())], True) == 0.0
    assert gap([(np.array([2.5, 0.5]), np.array([2.0, 0.0])), (1.0, 1.0)], True) == 0.5
    assert np.isnan(gap([(2.0, 2.0), (np.nan, 1.0)], True))
    assert np.isnan(gap([(np.array([1.0, 1.0]), np.array([1.0, np.nan]))], True))
    assert gap([(1.0, 1.0)], False) == np.inf
    assert gap([], True) == 0.0


def test_sigma_table_of_an_overflowing_spec_fails_the_gate():
    # e^{4 sigma} overflows at these amplitudes; the entries become inf or
    # NaN without a warning, and the non-degeneracy gate rejects them.
    for a in (300.0, -500.0):
        grid = SphereGrid(_perturbed(((2, 0, a),)), 8, 16)
        with pytest.raises(LightconeError, match="II area element"):
            grid.ii_weights


def test_ii_weights_gate_rejects_nonfinite_det_a(unit_sphere):
    grid = SphereGrid(unit_sphere, 8, 16)
    for bad in (np.inf, np.nan):
        grid.table["detA"] = np.full(grid.n_nodes, bad)
        grid.__dict__.pop("ii_weights", None)
        with pytest.raises(LightconeError, match="II area element"):
            grid.ii_weights
