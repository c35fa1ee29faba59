import json

import numpy as np
import pytest
from scipy.special import sph_harm_y

from lightcone import catalog, jets
from lightcone.errors import (
    NonpositiveRadialFunction,
    NonpositiveRadius,
    NotUnitTimelike,
)
from lightcone.harmonics import basis_index, harmonic_basis, real_harmonic
from lightcone.integrals import sphere_quadrature
from lightcone.jets import Jet2
from lightcone.minkowski import inner, vec
from lightcone.surfaces import JetFrame
from lightcone.transforms import verify_expansion_laws

DEGREES_AND_ORDERS = [(l, m) for l in range(5) for m in range(-l, l + 1)]


def test_constructor_invariants_on_grid(unit_sphere, cylinder, paraboloid, bumpy_sphere):
    # on-cone and spacelike at every node; JetFrame enforces both
    for patch in (unit_sphere, cylinder, paraboloid, bumpy_sphere):
        u, v = patch.grid_points((64, 64))
        f = JetFrame(patch, u, v)
        assert np.max(np.abs(f.psi.dot(f.psi).value)) < 1e-9
        assert np.min(f.psi0_val) > 0.0


def test_round_sphere_slices_observer_plane():
    u_obs = vec(-np.cosh(0.8), np.sinh(0.8), 0.0, 0.0)
    for r in (0.5, 2.0):
        patch = catalog.round_sphere(u=u_obs, r=r)
        rng = np.random.default_rng(0)
        th, ph = patch.sample_points(100, rng)
        pos = patch.position(th, ph)
        assert np.max(np.abs(inner(pos, u_obs) - r)) < 1e-12


def test_boosted_sphere_constant_shape_operator():
    u_obs = vec(-np.cosh(1.0), np.sinh(1.0), 0.0, 0.0)
    patch = catalog.round_sphere(u=u_obs, r=2.0)
    rng = np.random.default_rng(1)
    th, ph = patch.sample_points(100, rng)
    f = JetFrame(patch, th, ph)
    assert np.max(np.abs(f.A_val + np.eye(2) / 8.0)) < 1e-10


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
    with pytest.raises(NonpositiveRadius):
        catalog.round_sphere(r=0.0)
    # a radius whose square overflows, for the round and the perturbed sphere
    with pytest.raises(NonpositiveRadius, match="finite square"):
        catalog.round_sphere(r=1e200)
    with pytest.raises(NonpositiveRadius, match="finite square"):
        catalog.perturbed_sphere(catalog.HarmonicSpec(), r=1e200)
    with pytest.raises(NotUnitTimelike):
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
    assert np.max(np.abs(f.psi.dot(f.psi).value)) < 1e-13
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
    x = np.sin(th) * np.cos(ph)
    y = np.sin(th) * np.sin(ph)
    z = np.cos(th)
    for (l, m), ours in zip(DEGREES_AND_ORDERS, real_harmonic(DEGREES_AND_ORDERS, x, y, z)):
        assert np.max(np.abs(ours - _scipy_real_harmonic(l, m, th, ph))) < 1e-12, (l, m)


def test_harmonics_orthonormal_under_quadrature():
    t, wt = np.polynomial.legendre.leggauss(24)
    th = np.arccos(t)
    ph = 2 * np.pi * np.arange(48) / 48
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    w = np.repeat(wt, 48) * (2 * np.pi / 48)
    x = (np.sin(TH) * np.cos(PH)).ravel()
    y = (np.sin(TH) * np.sin(PH)).ravel()
    z = np.cos(TH).ravel()
    pairs = DEGREES_AND_ORDERS
    vals = np.stack(real_harmonic(pairs, x, y, z))
    gram = (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(len(pairs)))) < 1e-12


def test_harmonic_basis_matches_scipy_through_degree_16():
    rng = np.random.default_rng(6)
    th = np.concatenate([[0.0, 1e-3, np.pi / 2, np.pi], rng.uniform(0.0, np.pi, size=60)])
    ph = rng.uniform(0.0, 2 * np.pi, size=th.size)
    basis = harmonic_basis(16, th, ph)
    assert basis.shape == (th.size, 17**2)
    for l in range(17):
        for m in range(-l, l + 1):
            ref = _scipy_real_harmonic(l, m, th, ph)
            assert np.max(np.abs(basis[:, basis_index(l, m)] - ref)) < 1e-12, (l, m)


def test_harmonic_basis_orthonormal_through_degree_16():
    th, ph, w = sphere_quadrature(24, 48)
    basis = harmonic_basis(16, th, ph)
    gram = basis.T @ (w[:, None] * basis)
    assert np.max(np.abs(gram - np.eye(17**2))) < 1e-12
    # a lower degree is the leading block of the same columns
    assert np.array_equal(harmonic_basis(8, th, ph), basis[:, : 9**2])


def test_harmonics_reject_bad_orders():
    # |m| > l or l < 0; any degree l >= |m| is accepted
    for pair in ((2, 3), (2, -3), (0, 1), (-1, 0)):
        with pytest.raises(ValueError):
            real_harmonic([(1, 0), pair], 0.0, 0.0, 1.0)
    assert len(real_harmonic([(20, -20)], 0.6, 0.0, 0.8)) == 1


@pytest.mark.parametrize("rotation", [None, catalog._POLE_SWAP], ids=["main", "rotated"])
def test_harmonic_jets_carry_the_numeric_values(rotation):
    # the value row of a jet evaluation is the numeric evaluation, bit for bit
    rng = np.random.default_rng(9)
    th, ph = rng.uniform(0.0, np.pi, size=30), rng.uniform(0.0, 2 * np.pi, size=30)
    w = catalog._direction_jets(Jet2.variable("u", th), Jet2.variable("v", ph), rotation)
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
    assert laws["expansion_curvature"] < 1e-7
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
    patch = catalog.graph_over_sphere(lambda x, y, z: Jet2.constant(1.0) + x * 0.0)
    rng = np.random.default_rng(8)
    th, ph = unit_sphere.sample_points(40, rng)
    assert np.max(np.abs(patch.position(th, ph) - unit_sphere.position(th, ph))) < 1e-14


def test_graph_over_sphere_matches_perturbed_sphere():
    spec = catalog.HarmonicSpec(terms=((2, 1, 0.04), (1, -1, 0.02)))
    graph = catalog.graph_over_sphere(lambda x, y, z: jets.exp(spec.cartesian(x, y, z)))
    patch = catalog.perturbed_sphere(spec, r=1.0)
    rng = np.random.default_rng(9)
    th, ph = graph.sample_points(60, rng)
    assert np.max(np.abs(graph.position(th, ph) - patch.position(th, ph))) < 1e-12


def test_graph_over_sphere_rejects_nonpositive_radius():
    with pytest.raises(NonpositiveRadialFunction):
        catalog.graph_over_sphere(lambda x, y, z: z * 1.0)


ROTATED_CASES = {
    "bumpy-sphere": lambda request: request.getfixturevalue("bumpy_sphere"),
    "radial-graph": lambda request: catalog.graph_over_sphere(
        lambda x, y, z: jets.exp(x * z * 0.3 + y * 0.2)
    ),
    "round-sphere-r1.7": lambda request: catalog.round_sphere(r=1.7),
}


@pytest.mark.parametrize("case", ROTATED_CASES)
def test_rotated_chart_same_surface(request, case):
    # the rotated twin parametrizes the same point set: compare the
    # determinant curvature at matched directions near the main chart pole
    patch = ROTATED_CASES[case](request)
    rot = patch.rotated
    assert rot is not None
    # direction w(theta', phi') in the rotated chart equals R w; pick the
    # rotated-chart point whose image direction is near the main pole
    thp, php = 1.55, 0.1  # rotated equator maps near the main-chart pole
    f_rot = JetFrame(rot, thp, php)
    pos = f_rot.psi_val
    # matched main-chart angles from the position itself
    r3 = np.linalg.norm(pos[1:])
    th = float(np.arccos(pos[3] / r3))
    ph = float(np.arctan2(pos[2], pos[1]) % (2 * np.pi))
    f_main = JetFrame(patch, th, ph)
    assert np.max(np.abs(f_main.psi_val - pos)) < 1e-10
    assert abs(f_main.detA_val - f_rot.detA_val) < 1e-10
    assert abs(f_main.K_val - f_rot.K_val) < 1e-10


def test_closed_charts_build_directions_once(bumpy_sphere, monkeypatch):
    calls = []
    direction_jets = catalog._direction_jets

    def counted(*args):
        calls.append(args)
        return direction_jets(*args)

    monkeypatch.setattr(catalog, "_direction_jets", counted)
    for patch in (bumpy_sphere, bumpy_sphere.rotated):
        calls.clear()
        patch.position(0.4, 1.1)
        assert len(calls) == 1, patch.name
