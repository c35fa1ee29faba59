import numpy as np
import pytest

from conftest import random_perturbed_sphere, random_spec
from lightcone import catalog
from lightcone.errors import DegeneracyViolation
from lightcone.surfaces import JetFrame
from lightcone.transforms import (
    ScalarField,
    conjugate,
    double_conjugate_residual,
    expand,
    third_fundamental_form,
    verify_conjugate_duality,
    verify_expansion_laws,
)


def test_conjugate_round_sphere_is_shrunk_antipodal_sphere():
    for r in (0.5, 1.0, 2.0):
        patch = catalog.round_sphere(r=r)
        conj = conjugate(patch)
        rng = np.random.default_rng(0)
        th, ph = patch.sample_points(30, rng)
        pos = conj.position(th, ph)
        omega = np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
        )
        expected = np.concatenate(
            [np.full((30, 1), 1.0 / (2 * r)), -omega / (2 * r)], axis=-1
        )
        assert np.max(np.abs(pos - expected)) < 1e-12
        # conjugate of the radius-r sphere is round of radius 1/(2r)
        f = JetFrame(conj, th, ph)
        assert np.max(np.abs(f.A_val + 2 * r * r * np.eye(2))) < 1e-9


def test_conjugate_rejects_degenerate(paraboloid):
    with pytest.raises(DegeneracyViolation):
        conjugate(paraboloid)


def _grid_frame(patch, grid):
    return JetFrame(patch, *patch.grid_points(grid))


def test_conjugate_duality_rejects_degenerate_frame(paraboloid):
    with pytest.raises(DegeneracyViolation, match="conjugate undefined"):
        verify_conjugate_duality(_grid_frame(paraboloid, (8, 8)))


def test_double_conjugation_recovers_surface(unit_sphere, bumpy_sphere, cylinder):
    for patch in (unit_sphere, bumpy_sphere, cylinder):
        frame = _grid_frame(patch, (12, 24))
        conj = JetFrame(conjugate(patch), frame.u, frame.v)
        assert np.max(double_conjugate_residual(frame, conj)) < 1e-9


def test_third_form_round_sphere(unit_sphere):
    III = third_fundamental_form(JetFrame(unit_sphere, 0.9, 0.9))
    g = JetFrame(unit_sphere, 0.9, 0.9).g_val
    assert np.allclose(III, 0.25 * g, atol=1e-12)


def test_third_form_paraboloid_zero(paraboloid):
    III = third_fundamental_form(JetFrame(paraboloid, 0.4, -0.2))
    assert np.max(np.abs(III)) < 1e-12


def test_third_form_matches_conjugate_metric(bumpy_sphere):
    res = verify_conjugate_duality(_grid_frame(bumpy_sphere, (16, 32)))
    assert np.max(res["third_form"]) < 1e-8


def test_conjugate_duality_identities(unit_sphere):
    res = verify_conjugate_duality(_grid_frame(unit_sphere, (12, 24)))
    assert np.max(res["conjugate_weingarten"]) < 1e-9
    assert np.max(res["conjugate_second_form"]) < 1e-9
    assert np.max(res["conjugate_curvature"]) < 1e-9


def test_conjugate_duality_perturbed():
    rng = np.random.default_rng(1)
    patch, _ = random_perturbed_sphere(rng, total_amplitude=0.03)
    res = verify_conjugate_duality(_grid_frame(patch, (16, 32)))
    assert np.max(res["conjugate_weingarten"]) < 1e-7
    assert np.max(res["conjugate_second_form"]) < 1e-7
    assert np.max(res["conjugate_curvature"]) < 1e-7


def test_conjugate_duality_cylinder(cylinder):
    # duality needs only nondegeneracy, not a definite second form
    res = verify_conjugate_duality(_grid_frame(cylinder, (12, 24)))
    assert np.max(res["conjugate_weingarten"]) < 1e-9
    assert np.max(res["conjugate_second_form"]) < 1e-9


def test_umbilicity_invariant_under_conjugation(unit_sphere, bumpy_sphere):
    conj = conjugate(unit_sphere)
    u, v = unit_sphere.grid_points((16, 32))
    f = JetFrame(unit_sphere, u, v)
    fc = JetFrame(conj, u, v)
    assert np.max(f.gap_low) < 1e-8
    assert np.max(fc.gap_low) < 1e-6
    # and conjugation preserves non-umbilicity just the same
    fb = JetFrame(bumpy_sphere, u, v)
    fbc = JetFrame(conjugate(bumpy_sphere), u, v)
    assert np.max(fb.gap_low) > 1e-4
    assert np.max(fbc.gap_low) > 1e-4


def test_expand_constant_is_homothety(unit_sphere):
    c = 0.35
    scaled = expand(unit_sphere, ScalarField.constant(np.log(c)))
    target = catalog.round_sphere(r=c)
    rng = np.random.default_rng(2)
    th, ph = unit_sphere.sample_points(40, rng)
    assert np.max(np.abs(scaled.position(th, ph) - target.position(th, ph))) < 1e-14


def test_expand_zero_is_identity(bumpy_sphere):
    same = expand(bumpy_sphere, ScalarField.constant(0.0))
    rng = np.random.default_rng(3)
    th, ph = bumpy_sphere.sample_points(40, rng)
    assert np.max(np.abs(same.position(th, ph) - bumpy_sphere.position(th, ph))) < 1e-15


def test_expansion_laws_constant_sigma(unit_sphere):
    rng = np.random.default_rng(4)
    pts = unit_sphere.sample_points(50, rng)
    laws = verify_expansion_laws(JetFrame(unit_sphere, *pts), ScalarField.constant(0.3))
    # constant log-factor: second form unchanged, operator rescaled
    assert np.max(laws["expansion_second_form"]) < 1e-12
    assert np.max(laws["expansion_weingarten"]) < 1e-12
    assert np.max(laws["expansion_curvature"]) < 1e-12


def test_expansion_laws_random_harmonic_sigma(unit_sphere, bumpy_sphere):
    rng = np.random.default_rng(5)
    for patch in (unit_sphere, bumpy_sphere):
        for _ in range(3):
            sigma = random_spec(rng, l_max=3, total_amplitude=0.04).chart_field()
            pts = patch.sample_points(60, rng, margin=0.05)
            laws = verify_expansion_laws(JetFrame(patch, *pts), sigma)
            assert np.max(laws["expansion_weingarten"]) < 1e-7
            assert np.max(laws["expansion_second_form"]) < 1e-7
            assert np.max(laws["expansion_curvature"]) < 1e-7
            assert np.max(laws["expansion_trace"]) < 1e-8
            assert np.max(laws["expansion_normal"]) < 1e-7
            assert np.max(laws["expansion_pairing"]) < 1e-9
            assert np.max(laws["expansion_metric"]) < 1e-9


def test_expansion_curvature_law_on_cylinder(cylinder):
    # the conformal laws are chart-level identities, not sphere specials
    rng = np.random.default_rng(6)
    sigma = ScalarField(lambda uj, vj: (uj * uj) * 0.01 + vj * 0.02)
    pts = cylinder.sample_points(50, rng)
    laws = verify_expansion_laws(JetFrame(cylinder, *pts), sigma)
    assert np.max(laws["expansion_weingarten"]) < 1e-8
    assert np.max(laws["expansion_second_form"]) < 1e-8
    assert np.max(laws["expansion_curvature"]) < 1e-8


def test_expansion_then_conjugation_consistency():
    # expanding and then conjugating keeps every duality identity intact
    rng = np.random.default_rng(7)
    base = catalog.round_sphere(r=1.0)
    sigma = random_spec(rng, l_max=2, total_amplitude=0.04).chart_field()
    patch = expand(base, sigma)
    res = verify_conjugate_duality(_grid_frame(patch, (16, 32)))
    assert np.max(res["conjugate_weingarten"]) < 1e-6
    assert np.max(res["conjugate_second_form"]) < 1e-6
    assert np.max(res["conjugate_curvature"]) < 1e-6
    double = verify_conjugate_duality(_grid_frame(patch, (10, 20)))["double_conjugate"]
    assert np.max(double) < 1e-9


def test_expansion_law_round_base_matches_the_frame_base():
    # The analytic round geometry and the JetFrame of the round sphere give
    # the same prediction for e^sigma psi_round.
    from lightcone.jets import Jet2
    from lightcone.transforms import expansion_law

    r = 1.4
    patch = catalog.round_sphere(r=r)
    u, v = patch.grid_points((12, 24))
    tj, vj = Jet2.variable("u", u), Jet2.variable("v", v)
    s = catalog.HarmonicSpec(((2, 1, 0.03), (3, -2, 0.02))).chart_field()(tj, vj)
    fast = expansion_law(catalog.round_geometry(tj, r), s)
    ref = expansion_law(JetFrame(patch, u, v).geometry, s)
    for a in range(2):
        for b in range(2):
            assert np.allclose(fast.II[a][b].value, ref.II[a][b].value, rtol=0, atol=1e-13)
            assert np.allclose(fast.A[a][b], ref.A[a][b], rtol=0, atol=1e-13)
            assert np.allclose(fast.g[a][b], ref.g[a][b], rtol=0, atol=1e-13)
    assert np.allclose(fast.K, ref.K, rtol=0, atol=1e-13)
    assert np.allclose(fast.detA, ref.detA, rtol=0, atol=1e-13)
