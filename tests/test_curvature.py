import numpy as np
import pytest

from conftest import random_perturbed_sphere
from lightcone import catalog, cli, curvature, jets, transforms
from lightcone.curvature import (
    _inv2,
    _stack2,
    brioschi_curvature,
    brioschi_gradient,
    christoffels,
    codazzi_residual,
    curvature_relation,
    difference_tensor,
    second_form_curvature,
    trace_gradient_residual,
)
from lightcone.errors import LightconeError
from lightcone.jets import Jet2
from lightcone.surfaces import JetFrame


def _round_metric_field(r, theta0):
    """Analytic round metric (E, F, G) of radius r in polar coordinates, as jets."""
    th = Jet2.variable("u", theta0)
    E = Jet2.constant(r * r) + th * 0.0
    F = Jet2.constant(0.0)
    st = jets.sin(th)
    G = st * st * (r * r)
    return E, F, G


def _inverse_metric(E, F, G):
    return _inv2(_stack2(E.value, F.value, F.value, G.value))


def test_brioschi_flat_metric_zero():
    m = (Jet2.constant(1.0), Jet2.constant(0.0), Jet2.constant(1.0))
    assert brioschi_curvature(*m) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
def test_brioschi_round_metric(r):
    m = _round_metric_field(r, 0.9)
    assert brioschi_curvature(*m) == pytest.approx(1.0 / r**2, abs=1e-12)


def test_brioschi_degenerate_metric_raises():
    m = (Jet2.constant(1.0), Jet2.constant(1.0), Jet2.constant(1.0))
    with pytest.raises(LightconeError, match="metric determinant vanishes"):
        brioschi_curvature(*m)


def test_brioschi_gradient_matches_central_differences():
    # Each coefficient through order two of each jet, on random metrics near
    # a definite one; the rows the formula does not read are zero on both.
    rng = np.random.default_rng(8)
    c = rng.normal(scale=0.3, size=(3, 16, jets.N_COEFF))
    c[0, :, 0] += 2.0
    c[2, :, 0] += 1.5
    grads = brioschi_gradient(*(Jet2(x) for x in c))
    h = 1e-5
    for j in range(3):
        assert grads[j].shape == (6, 16)
        for k in range(6):
            step = np.zeros_like(c)
            step[j, :, k] = h
            plus, minus = (brioschi_curvature(*(Jet2(x) for x in c + t)) for t in (step, -step))
            cd = (plus - minus) / (2.0 * h)
            assert np.max(np.abs(cd - grads[j][k])) < 1e-8 * max(1.0, np.max(np.abs(cd))), (j, k)


def test_christoffels_constant_metric_zero():
    m = (Jet2.constant(2.0), Jet2.constant(0.5), Jet2.constant(3.0))
    gam = christoffels(*m, _inverse_metric(*m))
    assert gam.shape == (2, 2, 2)
    assert np.max(np.abs(gam)) < 1e-15


def test_christoffels_round_metric_value():
    m = _round_metric_field(1.0, 0.9)
    gam = christoffels(*m, _inverse_metric(*m))
    # polar angle symbol for the azimuthal pair
    expected = -np.sin(0.9) * np.cos(0.9)
    assert gam[0, 1, 1] == pytest.approx(expected, abs=1e-13)


def test_christoffels_metric_compatibility():
    # nabla g = 0 componentwise: dg(c,ab) = g(d,b) Gamma^d_{ca} + g(a,d) Gamma^d_{cb}
    E, F, G = _round_metric_field(1.3, 0.7)
    gam = christoffels(E, F, G, _inverse_metric(E, F, G))
    g = ((E, F), (F, G))
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
    L = difference_tensor(JetFrame(unit_sphere, 1.0, 0.8))
    assert np.max(np.abs(L)) < 1e-12


def test_difference_tensor_total_symmetry(bumpy_sphere):
    rng = np.random.default_rng(2)
    u, v = bumpy_sphere.sample_points(100, rng, margin=0.05)
    f = JetFrame(bumpy_sphere, u, v)
    L = difference_tensor(f)
    low = curvature.lowered_difference(f)
    assert np.max(np.abs(low - np.swapaxes(low, -3, -2))) < 1e-8
    assert np.max(np.abs(low - np.swapaxes(low, -2, -1))) < 1e-8
    # the tensor vanishes only on the round family; a bump wakes it up
    assert np.max(np.abs(L)) > 1e-4


def test_difference_tensor_degenerate_raises(paraboloid):
    with pytest.raises(LightconeError, match=r"\|det A\| <= 1.0e-08 \(min"):
        difference_tensor(JetFrame(paraboloid, 0.3, 0.3))


def test_one_degeneracy_floor(bumpy_sphere):
    # |det A| = 5e-9 sits under the one floor, 1e-8: the difference tensor
    # and the conjugate both refuse the frame, as verify's gate does.
    frame = JetFrame(bumpy_sphere, *bumpy_sphere.grid_points((4, 8)))
    detA = frame.detA_val.copy()
    detA[5] = 5e-9
    frame.detA_val = detA
    with pytest.raises(LightconeError, match=r"\|det A\| <= 1.0e-08 \(min"):
        difference_tensor(frame)
    with pytest.raises(LightconeError, match="conjugate undefined"):
        transforms._require_immersion(frame)
    assert curvature.DEGENERACY_FLOOR == 1e-8


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
    with pytest.raises(LightconeError, match="not positive definite"):
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
    assert frame.difference.shape == (20, 2, 2, 2)
    assert len(calls) == 1


# -- contractions against np.einsum ---------------------------------------------


def _same_bits(x, y):
    """Equal values with equal sign bits, zeros included."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.fixture(scope="module", params=["bumpy", "round"])
def contraction_frame(request, bumpy_sphere, unit_sphere):
    patch = bumpy_sphere if request.param == "bumpy" else unit_sphere
    return JetFrame(patch, *patch.grid_points((24, 48)))


def test_nabla_A_contractions_repeat_einsum(contraction_frame):
    f = contraction_frame
    ref = np.empty(f.nabla_A.shape)
    for a, c, b in np.ndindex(2, 2, 2):
        ref[..., a, c, b] = f.A[c][b].partial(1 - a, a)
    gam = np.swapaxes(f.gamma, -3, -2)
    ref += np.einsum("...acd,...db->...acb", gam, f.A_val)
    ref -= np.einsum("...adb,...cd->...acb", gam, f.A_val)
    assert _same_bits(f.nabla_A, ref)


def test_difference_and_lowered_tensor_repeat_einsum(contraction_frame):
    f = contraction_frame
    inv = curvature._inv2(f.A_val, f.detA_val)
    L = 0.5 * np.einsum("...cd,...adb->...abc", inv, f.nabla_A)
    assert _same_bits(f.difference, L)
    assert _same_bits(curvature.lowered_difference(f),
                      np.einsum("...abc,...cd->...abd", f.difference, f.II_val))


def test_codazzi_and_trace_gradient_repeat_einsum(contraction_frame):
    f = contraction_frame
    na = f.nabla_A
    w = na[..., 0, :, 1] - na[..., 1, :, 0]
    assert _same_bits(codazzi_residual(f), np.sqrt(np.einsum("...c,...cd,...d->...", w, f.g_val, w)))
    ii_inv = f.II_inv_val
    tr_l = np.einsum("...ab,...abc->...c", ii_inv, f.difference)
    grad = np.einsum("...cd,...d->...c", ii_inv, f.detA_grad)
    v = tr_l - grad / (2.0 * f.detA_val[..., None])
    ref = np.max(np.abs(np.einsum("...bc,...c->...b", f.II_val, v)), axis=-1)
    assert _same_bits(trace_gradient_residual(f), ref)


def test_curvature_relation_repeats_einsum(contraction_frame):
    f = contraction_frame
    out = curvature_relation(f)
    ii_inv, L, d_det = f.II_inv_val, f.difference, f.detA_grad
    grad_sq = np.einsum("...ab,...a,...b->...", ii_inv, d_det, d_det)
    assert _same_bits(out["grad_term"], grad_sq / (4.0 * f.detA_val**2))
    ric_tr = f.K_brioschi * np.einsum("...ab,...ba->...", ii_inv, f.g_val)
    assert _same_bits(out["ric_residual"], np.abs(ric_tr - f.K_brioschi**2 / f.detA_val))
    # II(L, L) is summed in stages, so only its rounding may differ.
    ii_LL = np.einsum("...ac,...bd,...abe,...cdf,...ef->...", ii_inv, ii_inv, L, L, f.II_val)
    np.testing.assert_allclose(out["ii_LL"], ii_LL, rtol=1e-12, atol=1e-12 * np.max(np.abs(ii_LL)))


def test_shape_self_adjoint_residual_repeats_einsum(contraction_frame):
    f = contraction_frame
    gA = np.einsum("...ac,...cb->...ab", f.g_val, f.A_val)
    residual = np.max(cli._frame_residuals(f)["shape_self_adjoint"])
    assert _same_bits(residual, np.max(np.abs(gA[..., 0, 1] - gA[..., 1, 0])))
