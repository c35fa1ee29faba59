import numpy as np
import pytest

from conftest import random_perturbed_sphere
from lightcone import catalog, curvature, jets
from lightcone.curvature import (
    MetricField,
    brioschi_curvature,
    christoffels,
    codazzi_residual,
    curvature_relation,
    difference_tensor,
    second_form_curvature,
    trace_gradient_residual,
)
from lightcone.errors import DegenerateMetric, DegeneracyViolation, NotRiemannianII
from lightcone.jets import Jet2
from lightcone.surfaces import JetFrame, _inv2, _stack2


def _round_metric_field(r, theta0):
    """Analytic round metric of radius r in polar coordinates, as jets."""
    th = Jet2.variable("u", theta0)
    E = Jet2.constant(r * r) + th * 0.0
    F = Jet2.constant(0.0)
    st = jets.sin(th)
    G = st * st * (r * r)
    return MetricField(E=E, F=F, G=G)


def _inverse_metric(m):
    return _inv2(_stack2(m.E.value, m.F.value, m.F.value, m.G.value))


def test_brioschi_flat_metric_zero():
    m = MetricField(E=Jet2.constant(1.0), F=Jet2.constant(0.0), G=Jet2.constant(1.0))
    assert brioschi_curvature(m) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
def test_brioschi_round_metric(r):
    m = _round_metric_field(r, 0.9)
    assert brioschi_curvature(m) == pytest.approx(1.0 / r**2, abs=1e-12)


def test_brioschi_degenerate_metric_raises():
    m = MetricField(E=Jet2.constant(1.0), F=Jet2.constant(1.0), G=Jet2.constant(1.0))
    with pytest.raises(DegenerateMetric):
        brioschi_curvature(m)


def test_christoffels_constant_metric_zero():
    m = MetricField(E=Jet2.constant(2.0), F=Jet2.constant(0.5), G=Jet2.constant(3.0))
    gam = christoffels(m, _inverse_metric(m))
    assert gam.shape == (2, 2, 2)
    assert np.max(np.abs(gam)) < 1e-15


def test_christoffels_round_metric_value():
    m = _round_metric_field(1.0, 0.9)
    gam = christoffels(m, _inverse_metric(m))
    # polar angle symbol for the azimuthal pair
    expected = -np.sin(0.9) * np.cos(0.9)
    assert gam[0, 1, 1] == pytest.approx(expected, abs=1e-13)


def test_christoffels_metric_compatibility():
    # nabla g = 0 componentwise: dg(c,ab) = g(d,b) Gamma^d_{ca} + g(a,d) Gamma^d_{cb}
    m = _round_metric_field(1.3, 0.7)
    gam = christoffels(m, _inverse_metric(m))
    g = ((m.E, m.F), (m.F, m.G))
    axes = ("u", "v")
    for c in range(2):
        for a in range(2):
            for b in range(2):
                resid = g[a][b].d(axes[c]).value
                for d in range(2):
                    resid = resid - gam[d, c, a] * g[d][b].value
                    resid = resid - gam[d, c, b] * g[a][d].value
                assert abs(resid) < 1e-10


def test_gauss_curvature_three_routes_agree(bumpy_sphere):
    rng = np.random.default_rng(0)
    u, v = bumpy_sphere.sample_points(150, rng, margin=0.05)
    f = JetFrame(bumpy_sphere, u, v)
    k_br = f.K_brioschi
    assert np.max(np.abs(k_br - f.K_val)) < 1e-8
    assert np.max(np.abs(f.H2_val - f.K_val)) < 1e-8


def test_codazzi_residual_catalog(unit_sphere, cylinder):
    assert codazzi_residual(JetFrame(unit_sphere, 0.9, 1.4)) < 1e-9
    assert codazzi_residual(JetFrame(cylinder, 0.4, 2.2)) < 1e-9


def test_codazzi_residual_random_spheres():
    rng = np.random.default_rng(1)
    patch, _ = random_perturbed_sphere(rng)
    u, v = patch.sample_points(100, rng, margin=0.05)
    assert np.max(codazzi_residual(JetFrame(patch, u, v))) < 1e-7


def test_difference_tensor_round_sphere_zero(unit_sphere):
    lt = difference_tensor(JetFrame(unit_sphere, 1.0, 0.8))
    assert np.max(np.abs(lt.L)) < 1e-12


def test_difference_tensor_total_symmetry(bumpy_sphere):
    rng = np.random.default_rng(2)
    u, v = bumpy_sphere.sample_points(100, rng, margin=0.05)
    lt = difference_tensor(JetFrame(bumpy_sphere, u, v))
    low = lt.lowered
    assert np.max(np.abs(low - np.swapaxes(low, -3, -2))) < 1e-8
    assert np.max(np.abs(low - np.swapaxes(low, -2, -1))) < 1e-8
    # the tensor vanishes only on the round family; a bump wakes it up
    assert np.max(np.abs(lt.L)) > 1e-4


def test_difference_tensor_degenerate_raises(paraboloid):
    with pytest.raises(DegeneracyViolation):
        difference_tensor(JetFrame(paraboloid, 0.3, 0.3))


def test_trace_gradient_identity(bumpy_sphere):
    rng = np.random.default_rng(3)
    u, v = bumpy_sphere.sample_points(100, rng, margin=0.05)
    assert np.max(trace_gradient_residual(JetFrame(bumpy_sphere, u, v))) < 1e-7


def test_curvature_relation_round_sphere(unit_sphere):
    out = curvature_relation(JetFrame(unit_sphere, 1.1, 0.4))
    assert out["residual"] < 1e-8
    assert out["k_eta"] == pytest.approx(2.0, abs=1e-10)
    assert out["k2_over_d"] == pytest.approx(4.0, abs=1e-10)
    assert abs(out["ii_LL"]) < 1e-12
    assert abs(out["grad_term"]) < 1e-12


def test_curvature_relation_scaled_sphere():
    patch = catalog.round_sphere(r=2.0)
    out = curvature_relation(JetFrame(patch, 0.7, 5.0))
    # K = 1/4 and det A = 1/64, so the ratio is 4 and the curvature stays 2
    assert out["k_eta"] == pytest.approx(2.0, abs=1e-10)
    assert out["k2_over_d"] == pytest.approx(4.0, abs=1e-10)
    assert out["residual"] < 1e-8


def test_curvature_relation_random_spheres():
    rng = np.random.default_rng(4)
    for _ in range(3):
        patch, _ = random_perturbed_sphere(rng)
        u, v = patch.sample_points(100, rng, margin=0.05)
        out = curvature_relation(JetFrame(patch, u, v))
        assert np.max(out["residual"]) < 1e-6
        assert np.max(out["ric_residual"]) < 1e-8


def test_k_eta_round_spheres_all_radii():
    for r in (0.5, 1.0, 2.0):
        patch = catalog.round_sphere(r=r)
        keta = second_form_curvature(JetFrame(patch, 0.8, 0.8))
        assert keta == pytest.approx(2.0, abs=1e-10)


def test_k_eta_requires_definite_second_form(cylinder):
    with pytest.raises(NotRiemannianII):
        second_form_curvature(JetFrame(cylinder, 0.4, 1.0))


def test_k_eta_positive_curvature_when_definite(bumpy_sphere):
    # a Riemannian second form forces positive induced curvature
    rng = np.random.default_rng(5)
    u, v = bumpy_sphere.sample_points(150, rng, margin=0.05)
    f = JetFrame(bumpy_sphere, u, v)
    assert np.all(f.ii_positive)
    assert np.min(f.K_val) > 0.0


def test_umbilical_forces_curvature_two(unit_sphere):
    # gap identically zero on a grid forces the second-form curvature to two
    u, v = unit_sphere.grid_points((16, 32))
    f = JetFrame(unit_sphere, u, v)
    assert np.max(f.gap_low) < 1e-8
    keta = second_form_curvature(f)
    assert np.max(np.abs(keta - 2.0)) < 1e-6


def test_keta_floor_at_detA_maximizer():
    rng = np.random.default_rng(6)
    patch, _ = random_perturbed_sphere(rng, total_amplitude=0.03)
    u, v = patch.grid_points((32, 64))
    f = JetFrame(patch, u, v)
    k = int(np.argmax(f.detA_val))
    ratio = f.K_val[k] ** 2 / f.detA_val[k]
    keta = second_form_curvature(f)[k]
    assert ratio >= 4.0 - 1e-6
    assert 2.0 * keta >= ratio - 1e-6


def test_difference_tensor_built_once_per_frame(bumpy_sphere, monkeypatch):
    calls = []
    build = curvature.difference_tensor

    def counted(frame):
        calls.append(frame)
        return build(frame)

    monkeypatch.setattr(curvature, "difference_tensor", counted)
    u, v = bumpy_sphere.sample_points(20, np.random.default_rng(3), margin=0.05)
    frame = JetFrame(bumpy_sphere, u, v)
    curvature_relation(frame)
    trace_gradient_residual(frame)
    assert frame.difference.L.shape == (20, 2, 2, 2)
    assert len(calls) == 1
