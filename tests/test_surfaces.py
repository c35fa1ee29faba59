import gc
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_perturbed_sphere
from lightcone import catalog, cli, harmonics, jets, transforms
from lightcone.curvature import second_form_curvature
from lightcone.errors import LightconeError
from lightcone.jets import Jet2, JetVec4
from lightcone.minkowski import inner
from lightcone.surfaces import (
    JetFrame,
    SurfacePatch,
    _extreme_nodes,
    centred,
    centring,
    closed_extremum,
    gauss_maps,
    umbilic_point_search,
)


def _chart_jet(patch, u, v):
    """The chart's position jet at the points, as a frame reads it."""
    return patch.chart(Jet2.variable("u", u), Jet2.variable("v", v))


def test_round_sphere_metric_at_equator(unit_sphere):
    g = JetFrame(unit_sphere, np.pi / 2, 0.0).g_val
    assert np.allclose(g, np.eye(2), atol=1e-14)


def test_cylinder_and_paraboloid_flat_metric(cylinder, paraboloid):
    rng = np.random.default_rng(0)
    for patch in (cylinder, paraboloid):
        u, v = patch.sample_points(50, rng)
        f = JetFrame(patch, u, v)
        assert np.max(np.abs(f.g_val - np.eye(2))) < 1e-12


def test_round_sphere_normal_closed_form():
    rng = np.random.default_rng(1)
    for r in (0.5, 1.0, 2.0):
        patch = catalog.round_sphere(r=r)
        th, ph = patch.sample_points(20, rng)
        f = JetFrame(patch, th, ph)
        omega = np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
        )
        expected = np.concatenate(
            [np.full((20, 1), -1.0 / (2 * r)), omega / (2 * r)], axis=-1
        )
        assert np.max(np.abs(f.eta_val - expected)) < 1e-12


def test_cylinder_normal_closed_form(cylinder):
    x, y = 0.4, 1.3
    eta = JetFrame(cylinder, x, y).eta.values
    expected = 0.5 * np.array([-np.cosh(x), -np.sinh(x), np.cos(y), np.sin(y)])
    assert np.allclose(eta, expected, atol=1e-13)


def test_paraboloid_normal_constant(paraboloid):
    rng = np.random.default_rng(2)
    u, v = paraboloid.sample_points(30, rng)
    f = JetFrame(paraboloid, u, v)
    assert np.max(np.abs(f.eta_val - np.array([-1.0, -1.0, 0.0, 0.0]))) < 1e-12


def test_normal_defining_constraints_random_surface(bumpy_sphere):
    rng = np.random.default_rng(3)
    u, v = bumpy_sphere.sample_points(100, rng, margin=0.05)
    f = JetFrame(bumpy_sphere, u, v)
    psi = _chart_jet(bumpy_sphere, u, v)
    assert np.max(np.abs(f.eta.dot(f.eta).value)) < 1e-12
    assert np.max(np.abs(f.eta.dot(psi).value - 1.0)) < 1e-12
    assert np.max(np.abs(f.eta.dot(psi.d("u")).value)) < 1e-12
    assert np.max(np.abs(f.eta.dot(psi.d("v")).value)) < 1e-12


def test_weingarten_round_sphere_both_methods():
    for r in (0.5, 1.0, 2.0):
        patch = catalog.round_sphere(r=r)
        f = JetFrame(patch, 1.1, 2.2)
        expected = -np.eye(2) / (2 * r * r)
        assert np.allclose(f.A_val, expected, atol=1e-12)
        assert np.allclose(f.weingarten_closed_form(), expected, atol=1e-12)


def test_weingarten_cylinder_eigenstructure(cylinder):
    # Both computation routes give +1/2 along the hyperbola direction and
    # -1/2 along the circle direction; determinant and trace match the
    # catalog values either way.
    f = JetFrame(cylinder, 0.3, 0.9)
    A = f.A_val
    assert np.allclose(A, np.diag([0.5, -0.5]), atol=1e-12)
    A2 = f.weingarten_closed_form()
    assert np.allclose(A2, np.diag([0.5, -0.5]), atol=1e-12)
    assert sorted(np.linalg.eigvals(A)) == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_weingarten_paraboloid_zero(paraboloid):
    rng = np.random.default_rng(4)
    u, v = paraboloid.sample_points(40, rng)
    f = JetFrame(paraboloid, u, v)
    assert np.max(np.abs(f.A_val)) < 1e-12


def test_two_method_agreement_random_spheres():
    rng = np.random.default_rng(5)
    for _ in range(3):
        patch, _ = random_perturbed_sphere(rng)
        u, v = patch.sample_points(200, rng, margin=0.05)
        f = JetFrame(patch, u, v)
        closed = f.weingarten_closed_form()
        assert np.max(np.abs(closed - f.A_val)) < 1e-8


def test_two_method_agreement_noncompact(cylinder, paraboloid, unit_sphere):
    rng = np.random.default_rng(12)
    for patch in (cylinder, paraboloid, unit_sphere):
        u, v = patch.sample_points(200, rng, margin=0.03)
        f = JetFrame(patch, u, v)
        closed = f.weingarten_closed_form()
        assert np.max(np.abs(closed - f.A_val)) < 1e-8, patch.name


def test_position_weingarten_identity(unit_sphere, paraboloid, bumpy_sphere):
    assert np.max(JetFrame(unit_sphere, 0.8, 0.3).position_weingarten_residual()) < 1e-10
    assert np.max(JetFrame(paraboloid, 0.5, -1.0).position_weingarten_residual()) < 1e-12
    rng = np.random.default_rng(6)
    u, v = bumpy_sphere.sample_points(100, rng, margin=0.05)
    f = JetFrame(bumpy_sphere, u, v)
    assert np.max(f.position_weingarten_residual()) < 1e-9


def test_position_weingarten_sees_normal_part_of_dpsi(unit_sphere):
    # A 1e-10 ripple in psi0 keeps the chart on the cone to about 2e-10, but
    # its theta derivative (about 1e-7) is normal to the surface, which
    # A_psi = -I forbids.
    def chart(tj, pj):
        psi = unit_sphere.chart(tj, pj)
        return JetVec4(psi[0] + jets.sin(tj * 997.0) * 1e-10, psi[1], psi[2], psi[3])

    rippled = SurfacePatch("rippled-sphere", chart, unit_sphere.domain, closed=True)
    th = np.linspace(0.3, 2.8, 40)
    frame = JetFrame(rippled, th, np.full_like(th, 0.7))
    assert np.max(np.abs(inner(frame.psi_val, frame.psi_val))) < 1e-9
    assert np.max(frame.position_weingarten_residual()) > 1e-8


def test_point_geometry_round_sphere(unit_sphere):
    f = JetFrame(unit_sphere, 1.0, 0.5)
    assert f.K_val == pytest.approx(1.0, abs=1e-12)
    assert f.detA_val == pytest.approx(0.25, abs=1e-12)
    assert f.gap_low == pytest.approx(0.0, abs=1e-12)
    assert f.gap_high == pytest.approx(0.0, abs=1e-12)
    assert second_form_curvature(f) == pytest.approx(2.0, abs=1e-10)


def test_point_geometry_cylinder(cylinder):
    f = JetFrame(cylinder, 0.7, 2.0)
    assert f.K_val == pytest.approx(0.0, abs=1e-13)
    assert f.detA_val == pytest.approx(-0.25, abs=1e-13)
    A = f.A_val
    assert 2.0 * np.trace(A @ A) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(LightconeError, match="not positive definite"):  # second form indefinite
        second_form_curvature(f)


def test_point_geometry_paraboloid_null_mean_curvature(paraboloid):
    f = JetFrame(paraboloid, 0.2, 0.4)
    assert f.K_val == pytest.approx(0.0, abs=1e-13)
    assert f.detA_val == pytest.approx(0.0, abs=1e-13)
    assert inner(f.H_val, f.H_val) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(f.H_val, [1.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_mean_curvature_vector_null_decomposition(bumpy_sphere):
    # H = -(K/2) psi - eta holds on any lightcone surface; it packages the
    # trace identities in vector form.
    rng = np.random.default_rng(7)
    u, v = bumpy_sphere.sample_points(60, rng, margin=0.05)
    f = JetFrame(bumpy_sphere, u, v)
    expected = -0.5 * f.K_val[..., None] * f.psi_val - f.eta_val
    assert np.max(np.abs(f.H_val - expected)) < 1e-10
    assert np.max(np.abs(f.H2_val - f.K_val)) < 1e-10


def test_value_arrays_equal_the_jet_route(bumpy_sphere):
    # The Christoffel symbols, vector second form and mean curvature vector
    # are value arrays; the same arithmetic on jets has the same constant terms.
    u, v = bumpy_sphere.sample_points(40, np.random.default_rng(13), margin=0.05)
    f = JetFrame(bumpy_sphere, u, v)
    detg = f.E * f.G - f.F * f.F
    g, gi = ((f.E, f.F), (f.F, f.G)), ((f.G / detg, -f.F / detg), (-f.F / detg, f.E / detg))
    dg = [[[g[a][b].d(ax) for b in range(2)] for a in range(2)] for ax in ("u", "v")]
    gam = [
        [
            [
                (gi[c][0] * (dg[a][0][b] + dg[b][0][a] - dg[0][a][b])
                 + gi[c][1] * (dg[a][1][b] + dg[b][1][a] - dg[1][a][b])) * 0.5
                for b in range(2)
            ]
            for a in range(2)
        ]
        for c in range(2)
    ]
    psi = _chart_jet(bumpy_sphere, u, v)
    psi_u, psi_v = psi.d("u"), psi.d("v")
    dd = ((psi_u.d("u"), psi_u.d("v")), (psi_u.d("v"), psi_v.d("v")))
    ii = [
        [dd[a][b] - psi_u.scale(gam[0][a][b]) - psi_v.scale(gam[1][a][b]) for b in range(2)]
        for a in range(2)
    ]
    h = (
        ii[0][0].scale(gi[0][0]) + ii[0][1].scale(gi[0][1])
        + ii[1][0].scale(gi[1][0]) + ii[1][1].scale(gi[1][1])
    ).scale(0.5)
    for c, a, b in np.ndindex(2, 2, 2):
        assert np.array_equal(f.gamma[..., c, a, b], gam[c][a][b].value)
    for a, b in np.ndindex(2, 2):
        assert np.array_equal(f.iivec[..., a, b, :], ii[a][b].values)
    assert np.array_equal(f.H_val, h.values)
    assert np.array_equal(f.H2_val, h.dot(h).value)


def test_value_attributes_equal_the_jets_they_replace(bumpy_sphere, cylinder, paraboloid):
    # The frame keeps these quantities as values only; each has the bits of
    # the value of its jet, rebuilt from the chart and the kept jets.
    boosted = catalog.round_sphere(u=np.array([-1.25, 0.75, 0.0, 0.0]))
    for patch in (bumpy_sphere, boosted, cylinder, paraboloid):
        u, v = patch.sample_points(30, np.random.default_rng(14), margin=0.05)
        f, psi = JetFrame(patch, u, v), _chart_jet(patch, u, v)
        psi_u, psi_v = psi.d("u"), psi.d("v")
        vectors = {
            "psi_val": psi, "psi_u_val": psi_u, "psi_v_val": psi_v, "psi_uu_val": psi_u.d("u"),
            "psi_uv_val": psi_u.d("v"), "psi_vv_val": psi_v.d("v"), "eta_val": f.eta,
            "eta_u_val": f.eta.d("u"), "eta_v_val": f.eta.d("v"),
        }
        for name, jet in vectors.items():
            assert getattr(f, name).tobytes() == jet.values.tobytes(), (patch.name, name)
        assert f.psi0.valid == 2 and f.psi0.c.tobytes() == psi[0].truncated(2).c.tobytes()
        detg = f.E * f.G - f.F * f.F
        gi = np.stack([(f.G / detg).value, (-f.F / detg).value,
                       (-f.F / detg).value, (f.E / detg).value], axis=-1)
        assert f.gi_val.tobytes() == gi.tobytes(), patch.name
        assert f.sqrt_detg_val.tobytes() == np.sqrt(detg.value).tobytes(), patch.name


def test_frame_keeps_only_the_jets_its_readers_differentiate():
    # One frame of a block of verify's sweep (surfaces._BLOCK points), which
    # sets the peak memory of verify.  Its jets and values once built, and
    # the most it holds while it is built, measured by tracemalloc.
    spec = catalog.HarmonicSpec(terms=((2, -2, 0.01), (3, 1, 0.01), (1, 1, 0.01), (2, 0, 0.01)))
    patch = catalog.perturbed_sphere(spec, r=1.1)
    u, v = (x[:2048] for x in patch.grid_points((64, 128)))
    JetFrame(patch, u, v)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frame = JetFrame(patch, u, v)
        gc.collect()
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert kept <= 4e6 and peak <= 7e6, (kept, peak)
    assert [name for name, x in vars(frame).items() if isinstance(x, JetVec4)] == ["eta"]


def test_second_form_inner_product_identity(bumpy_sphere, cylinder):
    rng = np.random.default_rng(8)
    for patch in (bumpy_sphere, cylinder):
        u, v = patch.sample_points(50, rng, margin=0.05)
        f = JetFrame(patch, u, v)
        assert np.max(f.second_form_inner_residual()) < 1e-9


def test_second_form_symmetry_and_self_adjointness(bumpy_sphere):
    rng = np.random.default_rng(9)
    u, v = bumpy_sphere.sample_points(200, rng, margin=0.05)
    f = JetFrame(bumpy_sphere, u, v)
    II = f.II_val
    assert np.max(np.abs(II[..., 0, 1] - II[..., 1, 0])) < 1e-12
    gA = np.einsum("...ac,...cb->...ab", f.g_val, f.A_val)
    assert np.max(np.abs(gA[..., 0, 1] - gA[..., 1, 0])) < 1e-10


def test_second_form_is_eta_derivative_against_psi_derivative(bumpy_sphere, cylinder, paraboloid):
    # II(X, Y) = <d eta(X), Y>: each jet II_ab is <eta_a, psi_b> bit for bit
    rng = np.random.default_rng(12)
    for patch in (bumpy_sphere, cylinder, paraboloid):
        u, v = patch.sample_points(40, rng)
        f, psi = JetFrame(patch, u, v), _chart_jet(patch, u, v)
        for a, eta_a in enumerate((f.eta.d("u"), f.eta.d("v"))):
            for b, psi_b in enumerate((psi.d("u"), psi.d("v"))):
                assert np.array_equal(f.II[a][b].c, eta_a.dot(psi_b).c), (patch.name, a, b)
                assert f.II[a][b].valid == eta_a.dot(psi_b).valid


def test_normal_parallel_everywhere(bumpy_sphere, cylinder, paraboloid):
    rng = np.random.default_rng(10)
    for patch in (bumpy_sphere, cylinder, paraboloid):
        u, v = patch.sample_points(80, rng, margin=0.05)
        f = JetFrame(patch, u, v)
        assert np.max(f.normal_parallel_residual()) < 1e-9


def test_gap_inequalities_and_simultaneous_vanishing(bumpy_sphere, cylinder):
    rng = np.random.default_rng(11)
    for patch in (bumpy_sphere, cylinder):
        u, v = patch.sample_points(200, rng, margin=0.05)
        f = JetFrame(patch, u, v)
        assert np.min(f.gap_low) > -1e-9
        assert np.min(f.gap_high) > -1e-9
        # the two gaps measure the same umbilicity defect
        assert np.max(np.abs(f.gap_low - f.gap_high)) < 1e-8


def test_umbilic_point_exists_on_compact_surfaces(bumpy_sphere):
    # the fixture, the two criterion-8 spheres, six random ones and two of
    # the 0.08 sweep (#17 and #39, where 4 starts from verify's frame ended
    # at non-umbilic minima of the gap, 5.3e-6 and 8.6e-6): on verify's own
    # 16x32 and 32x64 frames Newton on the gap jet lands far inside the 1e-6
    # of the verify check
    patches = [
        bumpy_sphere,
        catalog.perturbed_sphere(catalog.HarmonicSpec(terms=((2, 0, 0.04),))),
        catalog.perturbed_sphere(catalog.HarmonicSpec(terms=((2, -2, 0.03), (3, 1, 0.02)))),
    ]
    rng = np.random.default_rng(8)
    patches += [random_perturbed_sphere(rng, total_amplitude=0.04)[0] for _ in range(6)]
    patches += [catalog.perturbed_sphere(catalog.HarmonicSpec(terms=terms)) for terms in (
        ((1, 1, -0.0233), (3, 2, -0.0222), (3, -2, -0.0142), (2, 2, -0.0203)),
        ((2, 2, -0.0275), (1, -1, -0.00525), (1, 0, -0.0225), (3, 2, 0.0248)),
    )]
    for patch in patches:
        for grid in ((16, 32), (32, 64)):
            frame = JetFrame(patch, *cli._verify_points(patch, grid, 0))
            _, _, glow, ghigh = umbilic_point_search(patch, frame.u, frame.v, frame.gap_low)
            assert abs(glow) < 1e-10 and abs(ghigh) < 1e-10, (patch.name, grid)


def test_umbilic_point_search_keeps_round_sphere_nodes():
    # the gap vanishes identically, so its Hessian is rounding noise and no
    # start moves off its node: one of verify's frame, random points
    # included, whose coordinates are reported bit for bit
    u_obs = np.array([-np.cosh(0.5), np.sinh(0.5) * 0.6, 0.0, np.sinh(0.5) * 0.8])
    for patch in (catalog.round_sphere(r=0.5), catalog.round_sphere(r=2.0, u=u_obs)):
        points = cli._verify_points(patch, (64, 128), 0)
        frame = JetFrame(patch, *points)
        u, v, glow, ghigh = umbilic_point_search(patch, *points, frame.gap_low)
        assert (u, v) in set(zip(*points))
        assert abs(glow) < 1e-12 and abs(ghigh) < 1e-12


def test_extreme_nodes_are_integer_indices():
    directions = np.array([[1.0], [0.0], [0.0]])
    k = _extreme_nodes(directions, np.array([0.5]))
    assert k.dtype.kind == "i" and k.tolist() == [0]
    assert _extreme_nodes(directions[:, :0], np.array([])).dtype.kind == "i"


def test_closed_extremum_reports_main_chart_coordinates():
    # the search steps in charts centred on its iterates and reports the
    # find in the main chart's (theta, phi): the main chart there is the
    # returned frame's point; the polar spec's find is its pole theta = pi,
    # where a start that Newton moved there reports some phi
    polar = catalog.perturbed_sphere(catalog.HarmonicSpec(((2, 0, 0.08), (4, 3, 0.03))))
    rng = np.random.default_rng(8)
    patches = [polar] + [random_perturbed_sphere(rng, total_amplitude=0.04)[0] for _ in range(3)]
    for patch in patches:
        nodes = JetFrame(patch, *patch.grid_points((16, 32)))
        for field in (lambda f: (f.K * f.K - 4.0 * f.detA, f.K_val**2),
                      lambda f: (-f.detA, np.abs(f.detA_val))):
            value = field(nodes)[0].value
            theta, phi, frame = closed_extremum(patch, nodes.u, nodes.v, value, field)
            assert 0.0 <= theta <= np.pi and 0.0 <= phi < 2.0 * np.pi
            position = patch.position(theta, phi)
            assert np.max(np.abs(position - frame.psi_val)) < 1e-14, patch.name
        if patch is polar:
            assert umbilic_point_search(patch, nodes.u, nodes.v, nodes.gap_low)[0] == np.pi


def test_closed_extremum_needs_an_expansion():
    # A hand-built closed chart has no expansion, so no chart can be centred
    # on its poles: on this surface the main chart alone stops at its first
    # row with a gap of 5e-7, against 2e-12 for the perturbed sphere of the
    # same spec.
    spec = catalog.HarmonicSpec(((2, 0, 0.2),))
    patch = transforms.expand(catalog.round_sphere(), spec.chart_field())
    assert patch.closed and patch.expansion is None
    nodes = JetFrame(patch, *patch.grid_points((16, 32)))
    with pytest.raises(LightconeError, match=re.escape(patch.name)):
        umbilic_point_search(patch, nodes.u, nodes.v, nodes.gap_low)
    sphere = catalog.perturbed_sphere(spec)
    nodes = JetFrame(sphere, *sphere.grid_points((16, 32)))
    assert max(umbilic_point_search(sphere, nodes.u, nodes.v, nodes.gap_low)[2:]) < 1e-10


def test_umbilic_starts_are_kept_apart_on_the_sphere():
    # besides the poles, the umbilics form a ring 0.0045 rad from the
    # equator; starts kept apart only in the chart domain all sat in the
    # first scan row
    patch = catalog.perturbed_sphere(catalog.HarmonicSpec(terms=((3, 0, 0.04),)), r=1.1)
    nodes = JetFrame(patch, *patch.grid_points((64, 128)))
    _, _, glow, ghigh = umbilic_point_search(patch, nodes.u, nodes.v, nodes.gap_low)
    assert max(glow, ghigh) < 1e-10


def test_gauss_maps_round_sphere(unit_sphere):
    th, ph = np.pi / 2, 0.0
    gf, gp = gauss_maps(JetFrame(unit_sphere, th, ph))
    assert np.allclose(gf, [1, 1, 0, 0], atol=1e-13)
    assert np.allclose(gp, [1, -1, 0, 0], atol=1e-13)
    # unit time component and unit spatial part
    assert np.linalg.norm(gf[1:]) == pytest.approx(1.0, abs=1e-13)
    assert np.linalg.norm(gp[1:]) == pytest.approx(1.0, abs=1e-13)


def _normal_map_rank(frame, threshold=1e-8):
    """Rank of the spatial Jacobian of the normal-direction Gauss map."""
    gp = frame.eta.scale(1.0 / frame.eta[0])
    J = np.stack(
        [np.stack([gp[k].d(ax).value for ax in ("u", "v")], axis=-1) for k in (1, 2, 3)],
        axis=-2,
    )
    s = np.linalg.svd(J, compute_uv=False)
    return int(np.count_nonzero(s > threshold * max(1.0, float(s.max()))))


def test_gauss_maps_paraboloid_degenerate(paraboloid):
    frame = JetFrame(paraboloid, 0.3, 0.8)
    gf, gp = gauss_maps(frame)
    assert np.allclose(gp, [1, 1, 0, 0], atol=1e-13)
    assert _normal_map_rank(frame) == 0


def test_gauss_map_rank_full_on_spheres(unit_sphere):
    assert _normal_map_rank(JetFrame(unit_sphere, 1.0, 1.0)) == 2


def test_is_nondegenerate_catalog(unit_sphere, cylinder, paraboloid):
    # the sweep cmd_verify makes: min |det A| and definiteness of II on a grid
    def sweep(patch):
        frame = JetFrame(patch, *patch.grid_points((32, 64)))
        return float(np.min(np.abs(frame.detA_val))), bool(np.all(frame.ii_positive))

    min_abs, definite = sweep(unit_sphere)
    assert min_abs > 1e-8 and definite
    assert min_abs == pytest.approx(0.25, abs=1e-12)
    min_abs, definite = sweep(paraboloid)
    assert not min_abs > 1e-8
    min_abs, definite = sweep(cylinder)
    assert min_abs > 1e-8 and not definite
    assert min_abs == pytest.approx(0.25, abs=1e-12)


def test_off_cone_chart_rejected():
    def chart(uj, vj):
        return JetVec4(Jet2.constant(1.0) + uj * 0.0, uj, vj, Jet2.constant(0.0))

    bad = SurfacePatch("off-cone", chart, ((0.2, 0.8), (0.2, 0.8)))
    with pytest.raises(LightconeError, match=r"max \|<psi,psi>\|"):
        JetFrame(bad, 0.5, 0.5)


def test_overflowing_chart_rejected_as_off_cone(unit_sphere):
    # <psi, psi> overflows to inf - inf = NaN, which must fail the cone guard.
    huge = SurfacePatch(
        "huge-sphere", lambda tj, pj: unit_sphere.chart(tj, pj).scale(1e200), unit_sphere.domain
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(LightconeError, match=r"max \|<psi,psi>\|"):
            JetFrame(huge, 0.5, 0.5)


def test_nonpositive_psi0_rejected():
    # A radial graph f(w) (1, w) with f <= 0 somewhere: building the chart
    # tests nothing, and the JetFrame guard tests each point it evaluates,
    # such as one within 1e-3 of the pole where f is negative only there.
    cases = [
        (lambda x, y, z: z * 1.0, 2.0, 0.5),
        (lambda x, y, z: 1.0 - 2.0 * jets.exp((z - 1.0) * (z - 1.0) * -1e6), 0.001, 0.0),
    ]
    for f, theta, phi in cases:
        def chart(tj, pj, f=f):
            x, y, z = harmonics.directions(tj, pj)
            r = f(x, y, z)
            return JetVec4(r, r * x, r * y, r * z)

        patch = SurfacePatch("radial-graph", chart, catalog.round_sphere().domain, closed=True)
        with pytest.raises(LightconeError, match="min psi0"):
            JetFrame(patch, theta, phi)


def test_degenerate_chart_rejected():
    def chart(uj, vj):
        # on the cone, but u runs along a null ray: the induced metric dies
        f = jets.exp(uj + vj * 0.0)
        return JetVec4(f, f, Jet2.constant(0.0), Jet2.constant(0.0))

    ray = SurfacePatch("null-ray", chart, ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(LightconeError, match="induced metric not positive definite"):
        JetFrame(ray, 0.5, 0.5)


def test_position_equals_frame_positions_bit_for_bit(unit_sphere, cylinder, paraboloid,
                                                     bumpy_sphere):
    # position evaluates the chart on order-zero jets; the value rows must
    # be the full-order frame's, bit for bit
    boosted = catalog.round_sphere(u=[-np.cosh(0.8), 0.0, np.sinh(0.8), 0.0], r=1.3)
    graph = catalog.graph_over_sphere(lambda x, y, z: x * z * 0.1 + np.log(0.7))
    patches = [unit_sphere, boosted, cylinder, paraboloid, bumpy_sphere, graph,
               transforms.conjugate(bumpy_sphere), centred(bumpy_sphere, centring(0.3, 1.0)),
               transforms.expand(unit_sphere, catalog.HarmonicSpec(((2, 1, 0.05),)).chart_field())]
    rng = np.random.default_rng(0)
    for patch in patches:
        u, v = patch.grid_points((9, 14))
        ur, vr = patch.sample_points(50, rng)
        u, v = np.concatenate([u, ur]), np.concatenate([v, vr])
        ref = JetFrame(patch, u, v).psi_val
        assert patch.position(u, v).tobytes() == ref.tobytes(), patch.name
