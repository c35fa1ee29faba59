"""Acceptance suite: one test per exit criterion, printing a status line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import time

import numpy as np

from conftest import random_perturbed_sphere, random_spec
from lightcone import catalog
from lightcone.curvature import curvature_relation, second_form_curvature
from lightcone.integrals import SphereGrid
from lightcone.minkowski import vec
from lightcone.search import SearchConfig, search
from lightcone.spectrum import lambda1_estimate
from lightcone.surfaces import JetFrame, umbilic_point_search
from lightcone.transforms import (
    double_conjugate_residual,
    verify_conjugate_duality,
    verify_expansion_laws,
)


def _report(idx, ok, detail, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {idx}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )


OBSERVERS = (
    vec(-1.0, 0.0, 0.0, 0.0),
    vec(-np.cosh(0.8), np.sinh(0.8), 0.0, 0.0),
    vec(-np.cosh(0.5), 0.6 * np.sinh(0.5), 0.0, 0.8 * np.sinh(0.5)),
)


def test_criterion_1_round_sphere_exactness():
    t0 = time.perf_counter()
    worst_A = worst_K = worst_d = worst_keta = 0.0
    rng = np.random.default_rng(10)
    for r in (0.5, 1.0, 2.0):
        for u_obs in OBSERVERS:
            patch = catalog.round_sphere(u=u_obs, r=r)
            th, ph = patch.sample_points(200, rng, margin=0.02)
            f = JetFrame(patch, th, ph)
            worst_A = max(worst_A, float(np.max(np.abs(f.A_val + np.eye(2) / (2 * r * r)))))
            worst_K = max(worst_K, float(np.max(np.abs(f.K_val - 1.0 / r**2))))
            worst_d = max(worst_d, float(np.max(np.abs(f.detA_val - 1.0 / (4 * r**4)))))
            keta = second_form_curvature(f)
            worst_keta = max(worst_keta, float(np.max(np.abs(keta - 2.0))))
    elapsed = time.perf_counter() - t0
    ok = worst_A < 1e-9 and worst_K < 1e-9 and worst_d < 1e-9 and worst_keta < 1e-8
    _report(
        1, ok,
        f"max|A+I/2r^2|={worst_A:.1e}, max|K-1/r^2|={worst_K:.1e}, "
        f"max|d-1/4r^4|={worst_d:.1e}, max|Keta-2|={worst_keta:.1e}",
        5.0, elapsed,
    )
    assert worst_A < 1e-9
    assert worst_K < 1e-9
    assert worst_d < 1e-9
    assert worst_keta < 1e-8
    assert elapsed < 5.0


def test_criterion_2_noncompact_examples():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    cyl = catalog.product_cylinder()
    u, v = cyl.sample_points(200, rng)
    f = JetFrame(cyl, u, v)
    tr2 = 2.0 * np.einsum("...ab,...ba->...", f.A_val, f.A_val)
    r_cyl = max(
        float(np.max(np.abs(f.detA_val + 0.25))),
        float(np.max(np.abs(f.K_val))),
        float(np.max(np.abs(tr2 - 1.0))),
    )
    par = catalog.paraboloid_graph()
    u, v = par.sample_points(200, rng)
    fp = JetFrame(par, u, v)
    r_par = max(
        float(np.max(np.abs(fp.eta_val - np.array([-1.0, -1.0, 0.0, 0.0])))),
        float(np.max(np.abs(fp.A_val))),
    )
    elapsed = time.perf_counter() - t0
    ok = r_cyl < 1e-10 and r_par < 1e-12
    _report(2, ok, f"cylinder residual={r_cyl:.1e}, graph residual={r_par:.1e}", 1.0, elapsed)
    assert r_cyl < 1e-10
    assert r_par < 1e-12
    assert elapsed < 1.0


def test_criterion_3_curvature_relation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10):
        amp = rng.uniform(0.02, 0.05)
        patch, _ = random_perturbed_sphere(rng, l_max=3, total_amplitude=amp)
        u, v = patch.sample_points(100, rng, margin=0.04)
        out = curvature_relation(JetFrame(patch, u, v))
        worst = max(worst, float(np.max(out["residual"])))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6
    _report(3, ok, f"max relation residual={worst:.1e} over 10 surfaces x 100 pts", 30.0, elapsed)
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_4_conjugate_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    worst_r1 = worst_r2 = worst_ratio = worst_double = 0.0
    for _ in range(3):
        patch, _ = random_perturbed_sphere(rng, total_amplitude=0.04)
        res = verify_conjugate_duality(patch, grid=(20, 40))
        worst_r1 = max(worst_r1, res["weingarten_inverse"])
        worst_r2 = max(worst_r2, res["second_form_match"])
        worst_ratio = max(worst_ratio, res["curvature_ratio"])
        worst_double = max(worst_double, double_conjugate_residual(patch, grid=(10, 20)))
    elapsed = time.perf_counter() - t0
    ok = worst_r1 < 1e-7 and worst_r2 < 1e-7 and worst_ratio < 1e-7 and worst_double < 1e-9
    _report(
        4, ok,
        f"inverse={worst_r1:.1e}, form={worst_r2:.1e}, ratio={worst_ratio:.1e}, "
        f"double={worst_double:.1e}",
        60.0, elapsed,
    )
    assert worst_r1 < 1e-7
    assert worst_r2 < 1e-7
    assert worst_ratio < 1e-7
    assert worst_double < 1e-9


def test_criterion_5_expansion_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(14)
    base = catalog.round_sphere(r=1.0)
    bumpy = catalog.perturbed_sphere(
        catalog.HarmonicSpec(terms=((2, 1, 0.03), (1, 0, 0.02)))
    )
    worst = 0.0
    for k in range(10):
        sigma = random_spec(rng, l_max=3, total_amplitude=0.04).chart_field()
        patch = base if k % 2 == 0 else bumpy
        pts = patch.sample_points(60, rng, margin=0.04)
        laws = verify_expansion_laws(patch, sigma, pts)
        worst = max(worst, laws["weingarten"], laws["second_form"], laws["curvature"])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7
    _report(5, ok, f"max expansion-law residual={worst:.1e} over 10 random sigma", 60.0, elapsed)
    assert worst < 1e-7


def test_criterion_6_global_integrals():
    t0 = time.perf_counter()
    surfaces = [
        ("round r=1", catalog.round_sphere(r=1.0), True),
        ("round r=2", catalog.round_sphere(r=2.0), True),
        (
            "perturbed 0.05",
            catalog.perturbed_sphere(catalog.HarmonicSpec(terms=((2, 0, 0.05),))),
            False,
        ),
        (
            "perturbed multi",
            catalog.perturbed_sphere(
                catalog.HarmonicSpec(terms=((2, 2, 0.03), (3, -1, 0.02)))
            ),
            False,
        ),
    ]
    worst_gb = worst_gb2 = worst_round_area = 0.0
    strict_ok = True
    for name, patch, is_round in surfaces:
        grid = SphereGrid(patch, 64, 128)
        worst_gb = max(worst_gb, abs(grid.gauss_bonnet() - 4 * np.pi))
        worst_gb2 = max(worst_gb2, abs(grid.gauss_bonnet_second_form() - 4 * np.pi))
        area = grid.second_form_area()
        if is_round:
            worst_round_area = max(worst_round_area, abs(area - 2 * np.pi))
        else:
            strict_ok = strict_ok and (area < 2 * np.pi)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_gb < 1e-6
        and worst_gb2 < 1e-5
        and worst_round_area < 1e-6
        and strict_ok
        and elapsed < 20.0
    )
    _report(
        6, ok,
        f"|GB-4pi|={worst_gb:.1e}, |GB_II-4pi|={worst_gb2:.1e}, "
        f"round II-area gap={worst_round_area:.1e}, strict-below-2pi={strict_ok}",
        20.0, elapsed,
    )
    assert worst_gb < 1e-6
    assert worst_gb2 < 1e-5
    assert worst_round_area < 1e-6
    assert strict_ok
    assert elapsed < 20.0


def test_criterion_7_eigenvalue_bound():
    t0 = time.perf_counter()
    worst_round = 0.0
    for r in (0.5, 1.0, 2.0):
        grid = SphereGrid(catalog.round_sphere(r=r), 64, 128)
        res = lambda1_estimate(grid)
        expected = 2.0 / r**2
        worst_round = max(worst_round, abs(res.value - expected) / expected)

    # equality margin: three times the worst measured round-sphere
    # discretization error at this resolution, far below the smallest
    # non-umbilical gap in the sweep
    margin = 5e-3
    bound_ok = True
    equality_flags = []
    for eps in (0.0, 0.02, 0.05):
        spec = catalog.HarmonicSpec(terms=((2, 0, eps),)) if eps else catalog.HarmonicSpec()
        grid = SphereGrid(catalog.perturbed_sphere(spec), 64, 128)
        res = lambda1_estimate(grid)
        bound_ok = bound_ok and res.value <= res.reilly_rhs * (1.0 + 5e-2)
        rel_gap = (res.reilly_rhs - res.value) / res.reilly_rhs
        equality_flags.append(rel_gap < margin)
    elapsed = time.perf_counter() - t0
    equality_only_round = equality_flags == [True, False, False]
    ok = worst_round < 2e-2 and bound_ok and equality_only_round and elapsed < 60.0
    _report(
        7, ok,
        f"round lambda1 rel err={worst_round:.1e}, bound holds={bound_ok}, "
        f"equality flags by eps={equality_flags}",
        60.0, elapsed,
    )
    assert worst_round < 2e-2
    assert bound_ok
    assert equality_only_round
    assert elapsed < 60.0


def test_criterion_8_inequality_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(15)
    compact = [
        catalog.round_sphere(r=1.0),
        catalog.perturbed_sphere(catalog.HarmonicSpec(terms=((2, 0, 0.04),))),
        catalog.perturbed_sphere(
            catalog.HarmonicSpec(terms=((2, -2, 0.03), (3, 1, 0.02)))
        ),
    ]
    noncompact = [catalog.product_cylinder(), catalog.paraboloid_graph()]
    min_gap = np.inf
    for patch in compact + noncompact:
        u, v = patch.grid_points((48, 96))
        ur, vr = patch.sample_points(200, rng, margin=0.03)
        f = JetFrame(patch, np.concatenate([u, ur]), np.concatenate([v, vr]))
        min_gap = min(min_gap, float(np.min(f.gap_low)), float(np.min(f.gap_high)))
    floor_ok = min_gap > -1e-9

    umbilic_ok = True
    ratio_ok = True
    for patch in compact:
        _, _, glow, ghigh = umbilic_point_search(patch)
        umbilic_ok = umbilic_ok and glow < 1e-6 and ghigh < 1e-6
        grid = SphereGrid(patch, 48, 96)
        floor = grid.second_curvature_floor(tol=1e-6)
        ratio_ok = ratio_ok and floor["ratio"] >= 4.0 - 1e-6
    elapsed = time.perf_counter() - t0
    ok = floor_ok and umbilic_ok and ratio_ok
    _report(
        8, ok,
        f"min gap={min_gap:.1e}, umbilic point found={umbilic_ok}, "
        f"ratio floor holds={ratio_ok}",
        120.0, elapsed,
    )
    assert floor_ok
    assert umbilic_ok
    assert ratio_ok


ACCEPTANCE_SEARCH = dict(
    degree_max=2,
    amplitude_bound=0.1,
    n_theta=10,
    n_phi=20,
    max_iter=300,
    n_restarts=0,
    var_tol=1e-8,
    seed=0,
)


def test_criterion_9_search_machinery():
    t0 = time.perf_counter()
    cfg = SearchConfig(**ACCEPTANCE_SEARCH, n_starts=20)
    report = search(cfg)
    assert len(report.results) == 20

    gates_ok = True
    for r in report.results:
        assert r.converged_variance, f"start {r.start_index} did not converge"
        if r.variance < 1e-8:
            gates_ok = gates_ok and r.sup_gap_low < 1e-4
            gates_ok = gates_ok and abs(r.mean_keta - 2.0) < 1e-3
        # every candidate either survived grid doubling or carries a
        # demotion reason; nothing may sit in the candidate state otherwise
        if r.classification == "demoted":
            assert r.demotion_reason
        if r.classification == "candidate":
            assert r.start_index in report.candidates

    # bit-reproducibility: rerunning a 3-start configuration twice gives
    # byte-identical traces, and those trajectories also coincide with the
    # first three starts of the 20-start run (same seeded stream)
    small = SearchConfig(**ACCEPTANCE_SEARCH, n_starts=3)
    rep_a = search(small)
    rep_b = search(small)
    repro_ok = rep_a.trace_csv() == rep_b.trace_csv()
    prefix = [row for row in report.trace_rows if row[0] < 3]
    repro_ok = repro_ok and prefix == rep_a.trace_rows

    elapsed = time.perf_counter() - t0
    ok = gates_ok and repro_ok and elapsed < 600.0
    n_umb = sum(1 for r in report.results if r.classification == "umbilical")
    _report(
        9, ok,
        f"20 starts, {n_umb} umbilical, candidates={report.candidates}, "
        f"reproducible={repro_ok}",
        600.0, elapsed,
    )
    assert gates_ok
    assert repro_ok
    assert elapsed < 600.0
