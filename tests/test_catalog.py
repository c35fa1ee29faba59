import json

import numpy as np
import pytest
from scipy.special import sph_harm_y

from lightcone import catalog, harmonics, surfaces
from lightcone.errors import LightconeError
from lightcone.harmonics import directions, real_harmonic
from lightcone.integrals import geometry_table, sphere_quadrature
from lightcone.jets import Jet2
from lightcone.minkowski import inner, vec
from lightcone.surfaces import JetFrame
from lightcone.transforms import verify_expansion_laws

DEGREES_AND_ORDERS = [(l, m) for l in range(5) for m in range(-l, l + 1)]
#: Every pair through degree 16, the largest the Galerkin mass matrix takes.
THROUGH_DEGREE_16 = [(l, m) for l in range(17) for m in range(-l, l + 1)]


def test_constructor_invariants_on_grid(unit_sphere, cylinder, paraboloid, bumpy_sphere):
    # on-cone and spacelike at every node; JetFrame enforces both
    for patch in (unit_sphere, cylinder, paraboloid, bumpy_sphere):
        u, v = patch.grid_points((64, 64))
        f = JetFrame(patch, u, v)
        psi = patch.chart(Jet2.variable("u", u), Jet2.variable("v", v))
        assert np.max(np.abs(psi.dot(psi).value)) < 1e-9
        assert np.min(f.psi0_val) > 0.0


def _observer(rapidity, direction):
    """Past unit timelike observer moving along ``direction`` at ``rapidity``."""
    n = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    return vec(-np.cosh(rapidity), *(np.sinh(rapidity) * n))


#: Observers along an axis and off every axis, up to rapidity 2.
OBSERVERS = [_observer(0.5, (1, 0, 0)), _observer(1.2, (0.6, -0.48, 0.64)),
             _observer(2.0, (-2, 1, 2))]


def test_round_sphere_slices_observer_plane():
    for u_obs in (_observer(0.8, (1, 0, 0)), _observer(0.8, (1, -2, 3))):
        for r in (0.5, 2.0):
            patch = catalog.round_sphere(u=u_obs, r=r)
            rng = np.random.default_rng(0)
            th, ph = patch.sample_points(100, rng)
            pos = patch.position(th, ph)
            assert np.max(np.abs(inner(pos, u_obs) - r)) < 1e-12


def test_boosted_sphere_constant_shape_operator():
    for u_obs in (_observer(1.0, (1, 0, 0)), _observer(1.0, (-1, 2, 2))):
        patch = catalog.round_sphere(u=u_obs, r=2.0)
        rng = np.random.default_rng(1)
        th, ph = patch.sample_points(100, rng)
        f = JetFrame(patch, th, ph)
        assert np.max(np.abs(f.A_val + np.eye(2) / 8.0)) < 1e-10


@pytest.mark.parametrize("u_obs", OBSERVERS, ids=["x_0.5", "oblique_1.2", "oblique_2"])
def test_round_sphere_geometry_is_lorentz_invariant(u_obs):
    # A boost is an isometry of Minkowski space that maps the cone to
    # itself, so every table entry but the time component psi0 is the rest
    # sphere's at the same chart point.
    r = 1.3
    th, ph, _ = sphere_quadrature(16, 32)
    rest = geometry_table(catalog.round_sphere(r=r), th, ph)
    boosted = geometry_table(catalog.round_sphere(u=u_obs, r=r), th, ph)
    assert np.array_equal(boosted.pop("ii_positive"), rest.pop("ii_positive"))
    del boosted["psi0"], rest["psi0"]
    for key, value in rest.items():
        np.testing.assert_allclose(boosted[key], value, rtol=1e-10, atol=1e-10, err_msg=key)


def test_round_sphere_rigidity_trio(unit_sphere):
    # constant determinant, zero gap, curvature two: the three equivalent
    # characterizations hold simultaneously on the round sphere
    u, v = unit_sphere.grid_points((24, 48))
    f = JetFrame(unit_sphere, u, v)
    assert np.max(np.abs(f.detA_val - 0.25)) < 1e-12
    assert np.max(f.gap_low) < 1e-12
    from lightcone.curvature import second_form_curvature

    assert np.max(np.abs(second_form_curvature(f) - 2.0)) < 1e-8


def test_round_sphere_bad_arguments():
    with pytest.raises(LightconeError, match="radius must be positive"):
        catalog.round_sphere(r=0.0)
    # a radius whose square overflows, for the round and the perturbed sphere
    with pytest.raises(LightconeError, match="finite square"):
        catalog.round_sphere(r=1e200)
    with pytest.raises(LightconeError, match="finite square"):
        catalog.perturbed_sphere(catalog.HarmonicSpec(), r=1e200)
    with pytest.raises(LightconeError, match="u0 < 0"):
        catalog.round_sphere(u=vec(1, 0, 0, 0))


def test_cylinder_reference_values(cylinder):
    rng = np.random.default_rng(2)
    u, v = cylinder.sample_points(100, rng)
    f = JetFrame(cylinder, u, v)
    assert np.max(np.abs(f.detA_val + 0.25)) < 1e-12
    assert np.max(np.abs(f.K_val)) < 1e-12
    tr2 = 2.0 * np.einsum("...ab,...ba->...", f.A_val, f.A_val)
    assert np.max(np.abs(tr2 - 1.0)) < 1e-12


def test_paraboloid_reference_values(paraboloid):
    rng = np.random.default_rng(3)
    u, v = paraboloid.sample_points(100, rng)
    f = JetFrame(paraboloid, u, v)
    psi = paraboloid.chart(Jet2.variable("u", u), Jet2.variable("v", v))
    assert np.max(np.abs(psi.dot(psi).value)) < 1e-13
    assert np.max(np.abs(f.eta_val - np.array([-1, -1, 0, 0]))) < 1e-12
    assert np.max(np.abs(f.g_val - np.eye(2))) < 1e-13
    assert np.max(np.abs(f.A_val)) < 1e-12


def _scipy_real_harmonic(l, m, th, ph):
    """Real Y_lm from scipy's complex harmonics, without the Condon-Shortley phase."""
    ylm = sph_harm_y(l, abs(m), th, ph)
    if m > 0:
        return np.sqrt(2.0) * (-1.0) ** m * ylm.real
    if m < 0:
        return np.sqrt(2.0) * (-1.0) ** m * ylm.imag
    return ylm.real


def test_harmonics_match_scipy():
    rng = np.random.default_rng(4)
    th = rng.uniform(0.2, np.pi - 0.2, size=40)
    ph = rng.uniform(0.0, 2 * np.pi, size=40)
    ours = real_harmonic(DEGREES_AND_ORDERS, *directions(th, ph))
    for (l, m), y in zip(DEGREES_AND_ORDERS, ours, strict=True):
        assert np.max(np.abs(y - _scipy_real_harmonic(l, m, th, ph))) < 1e-12, (l, m)


def test_harmonics_orthonormal_under_quadrature():
    t, wt = np.polynomial.legendre.leggauss(24)
    th = np.arccos(t)
    ph = 2 * np.pi * np.arange(48) / 48
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    w = np.repeat(wt, 48) * (2 * np.pi / 48)
    vals = np.stack(real_harmonic(DEGREES_AND_ORDERS, *directions(TH.ravel(), PH.ravel())))
    gram = (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(len(DEGREES_AND_ORDERS)))) < 1e-12


def test_harmonic_basis_matches_scipy_through_degree_16():
    # every pair the Galerkin mass matrix takes, the poles and equator included
    rng = np.random.default_rng(6)
    th = np.concatenate([[0.0, 1e-3, np.pi / 2, np.pi], rng.uniform(0.0, np.pi, size=60)])
    ph = rng.uniform(0.0, 2 * np.pi, size=th.size)
    ours = real_harmonic(THROUGH_DEGREE_16, *directions(th, ph))
    for (l, m), y in zip(THROUGH_DEGREE_16, ours, strict=True):
        assert np.max(np.abs(y - _scipy_real_harmonic(l, m, th, ph))) < 1e-12, (l, m)


def test_harmonic_basis_orthonormal_through_degree_16():
    th, ph, w = sphere_quadrature(24, 48)
    vals = np.stack(real_harmonic(THROUGH_DEGREE_16, *directions(th, ph)))
    gram = (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(17**2))) < 1e-12
    # a pair's values do not depend on which other pairs are asked for
    leading = real_harmonic(THROUGH_DEGREE_16[: 9**2], *directions(th, ph))
    assert np.array_equal(np.stack(leading), vals[: 9**2])


def test_harmonics_reject_bad_orders():
    # |m| > l or l < 0; any degree l >= |m| is accepted
    for pair in ((2, 3), (2, -3), (0, 1), (-1, 0)):
        with pytest.raises(ValueError):
            real_harmonic([(1, 0), pair], 0.0, 0.0, 1.0)
    assert len(real_harmonic([(20, -20)], 0.6, 0.0, 0.8)) == 1


@pytest.mark.parametrize("rotated", [False, True], ids=["main", "rotated"])
def test_harmonic_jets_carry_the_numeric_values(rotated):
    # the value row of a jet evaluation is the numeric evaluation, bit for
    # bit, also under one rotation per point
    rng = np.random.default_rng(9)
    th, ph = rng.uniform(0.0, np.pi, size=30), rng.uniform(0.0, 2 * np.pi, size=30)
    rotation = surfaces.centring(th[::-1], ph[::-1]) if rotated else None
    w = directions(Jet2.variable("u", th), Jet2.variable("v", ph), rotation)
    on_jets = real_harmonic(DEGREES_AND_ORDERS, *w)
    on_values = real_harmonic(DEGREES_AND_ORDERS, *(c.value for c in w))
    for pair, jet, value in zip(DEGREES_AND_ORDERS, on_jets, on_values, strict=True):
        assert np.array_equal(jet.value, value), pair


def test_harmonic_spec_json_roundtrip():
    spec = catalog.HarmonicSpec(terms=((2, 0, 0.05), (3, -1, -0.01)))
    text = json.dumps([[l, m, a] for l, m, a in spec.terms])
    assert catalog.HarmonicSpec.from_json(text) == spec


def test_harmonic_spec_validation():
    with pytest.raises(ValueError):
        catalog.HarmonicSpec(terms=((9, 0, 0.1),))
    with pytest.raises(ValueError):
        catalog.HarmonicSpec(terms=((5, 0, 0.1),))
    with pytest.raises(ValueError):
        catalog.HarmonicSpec(terms=((2, 3, 0.1),))


def test_perturbed_sphere_empty_spec_is_round(unit_sphere):
    patch = catalog.perturbed_sphere(catalog.HarmonicSpec())
    rng = np.random.default_rng(5)
    th, ph = unit_sphere.sample_points(50, rng)
    assert np.max(np.abs(patch.position(th, ph) - unit_sphere.position(th, ph))) < 1e-15


def test_perturbed_sphere_curvature_matches_conformal_law(unit_sphere):
    eps = 0.02
    spec = catalog.HarmonicSpec(terms=((1, 0, eps),))
    patch = catalog.perturbed_sphere(spec)
    rng = np.random.default_rng(6)
    pts = unit_sphere.sample_points(80, rng)
    laws = verify_expansion_laws(JetFrame(unit_sphere, *pts), spec.chart_field())
    assert np.max(laws["expansion_curvature"]) < 1e-7
    # and the patch itself realizes that predicted curvature
    th, ph = pts
    f = JetFrame(patch, th, ph)
    s = spec.chart_field()(Jet2.variable("u", th), Jet2.variable("v", ph))
    # for the first-degree zonal harmonic, Lap sigma = -2 sigma on the sphere
    pred = (1.0 + 2.0 * s.value) * np.exp(-2.0 * s.value)
    assert np.max(np.abs(f.K_val - pred)) < 1e-7


def test_perturbed_sphere_stays_nondegenerate():
    rng = np.random.default_rng(7)
    from conftest import random_spec

    for _ in range(5):
        spec = random_spec(rng, l_max=3, total_amplitude=0.05)
        patch = catalog.perturbed_sphere(spec)
        u, v = patch.grid_points((24, 48))
        f = JetFrame(patch, u, v)
        assert np.min(np.abs(f.detA_val)) > 1e-2


def test_graph_over_sphere_constant_radius_is_round(unit_sphere):
    patch = catalog.graph_over_sphere(lambda x, y, z: x * 0.0)
    rng = np.random.default_rng(8)
    th, ph = unit_sphere.sample_points(40, rng)
    assert np.max(np.abs(patch.position(th, ph) - unit_sphere.position(th, ph))) < 1e-14


def test_graph_over_sphere_matches_perturbed_sphere():
    spec = catalog.HarmonicSpec(terms=((2, 1, 0.04), (1, -1, 0.02)))
    graph = catalog.graph_over_sphere(spec.cartesian)
    patch = catalog.perturbed_sphere(spec, r=1.0)
    rng = np.random.default_rng(9)
    th, ph = graph.sample_points(60, rng)
    assert np.max(np.abs(graph.position(th, ph) - patch.position(th, ph))) < 1e-12


ROTATED_CASES = {
    "bumpy-sphere": lambda request: request.getfixturevalue("bumpy_sphere"),
    "radial-graph": lambda request: catalog.graph_over_sphere(
        lambda x, y, z: x * z * 0.3 + y * 0.2
    ),
    "round-sphere-r1.7": lambda request: catalog.round_sphere(r=1.7),
}


@pytest.mark.parametrize("case", ROTATED_CASES)
def test_rotated_chart_same_surface(request, case):
    # a chart centred on a direction parametrizes the same point set: at its
    # centre (pi/2, 0) it gives the main chart's psi, K and det A there, on
    # random directions, one 1e-3 from a pole and one on the phi = 0 seam
    patch = ROTATED_CASES[case](request)
    rng = np.random.default_rng(4)
    theta = np.concatenate([rng.uniform(0.2, np.pi - 0.2, size=6), [np.pi - 1e-3, 1.2]])
    phi = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, size=6), [2.5, 0.0]])
    main = JetFrame(patch, theta, phi)
    rotation = surfaces.centring(theta, phi)
    centred = JetFrame(surfaces.centred(patch, rotation), np.full(8, np.pi / 2), np.zeros(8))
    assert np.max(np.abs(main.psi_val - centred.psi_val)) < 1e-14
    assert np.max(np.abs(main.detA_val - centred.detA_val)) < 1e-10
    assert np.max(np.abs(main.K_val - centred.K_val)) < 1e-10


def test_closed_charts_build_directions_once(bumpy_sphere, monkeypatch):
    calls = []
    def counted(*args):
        calls.append(args)
        return directions(*args)

    monkeypatch.setattr(harmonics, "directions", counted)
    centred = surfaces.centred(bumpy_sphere, surfaces.centring(0.4, 1.1))
    for patch in (bumpy_sphere, centred):
        calls.clear()
        patch.position(0.4, 1.1)
        assert len(calls) == 1, patch.name
