import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import minimize, rosen

from lightcone import integrals
from lightcone.catalog import HarmonicSpec, perturbed_sphere
from lightcone.harmonics import real_harmonic
from lightcone.integrals import SphereGrid, sphere_quadrature
from lightcone.search import (
    ORACLE_TOL,
    SearchConfig,
    VarianceObjective,
    _nelder_mead,
    search,
)

FAST = dict(degree_max=2, n_theta=10, n_phi=20, max_iter=150)


def rotation_block(l, R, n_theta=24, n_phi=48):
    """Orthogonal action of a rotation on the degree-l coefficient block.

    Built by quadrature of Y_l(R w) against Y_l(w); exact for polynomial
    harmonics at this node count.
    """
    TH, PH, w = sphere_quadrature(n_theta, n_phi)
    pts = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)])
    rpts = np.asarray(R, dtype=float) @ pts
    ms = range(-l, l + 1)
    D = np.empty((len(ms), len(ms)))
    for i, mi in enumerate(ms):
        yi = real_harmonic(l, mi, *rpts)
        for j, mj in enumerate(ms):
            D[i, j] = float(np.sum(w * yi * real_harmonic(l, mj, *pts)))
    return D


def test_round_sphere_is_global_minimum():
    obj = VarianceObjective(SearchConfig(**FAST))
    d = obj.diagnostics(np.zeros(len(obj.pairs)))
    assert d["ok"]
    assert d["variance"] < 1e-20
    assert d["mean_keta"] == pytest.approx(2.0, abs=1e-10)
    assert d["sup_gap_low"] < 1e-12


def test_zonal_bump_has_positive_variance():
    cfg = SearchConfig(**FAST)
    obj = VarianceObjective(cfg)
    val = obj(HarmonicSpec(terms=((2, 0, 0.05),)).pack(obj.pairs))
    assert val > 1e-6
    # regression band for the frozen configuration
    assert val == pytest.approx(9.11e-5, rel=0.05)


def test_barrier_activates_on_near_degenerate_surface(monkeypatch):
    monkeypatch.setattr("lightcone.search._BARRIER_FLOOR", 0.3)
    monkeypatch.setattr("lightcone.search._BARRIER_WEIGHT", 1e6)
    obj = VarianceObjective(SearchConfig(**FAST))
    # a strong bump drags min det A below the floor
    x = HarmonicSpec(terms=((2, 0, 0.12),)).pack(obj.pairs)
    d = obj.diagnostics(x)
    assert d["min_detA"] < 0.3
    assert d["objective"] > 1e2 * d["variance"]


def test_variance_does_not_depend_on_radius():
    # II and K_II are invariant under psi -> c psi, which is why the search
    # runs on the unit sphere: at radius r only det A and the gap scale, by
    # r^-4, and the objective's barrier with them.
    obj = VarianceObjective(SearchConfig(**FAST))
    x = HarmonicSpec(terms=((2, 0, 0.05), (2, 1, -0.02))).pack(obj.pairs)
    ref = obj.frame_diagnostics(x)
    for r in (0.5, 1.7):
        table = integrals.geometry_table(perturbed_sphere(obj.spec(x), r=r), obj.TH, obj.PH)
        d = obj._reduce(x, table)
        assert d["variance"] == pytest.approx(ref["variance"], rel=1e-12)
        assert d["mean_keta"] == pytest.approx(ref["mean_keta"], rel=1e-14)
        for name in ("min_detA", "sup_gap_low"):
            assert d[name] * r**4 == pytest.approx(ref[name], rel=1e-12), name


def test_amplitude_box_penalized():
    cfg = SearchConfig(**FAST, amplitude_bound=0.05)
    obj = VarianceObjective(cfg)
    inside = obj(HarmonicSpec(terms=((2, 0, 0.04),)).pack(obj.pairs))
    outside = obj(HarmonicSpec(terms=((2, 0, 0.2),)).pack(obj.pairs))
    assert outside > inside + 1.0


def test_objective_rotation_gauge_invariance():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(A)
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1.0
    D2 = rotation_block(2, Q)
    assert np.max(np.abs(D2 @ D2.T - np.eye(5))) < 1e-12
    cfg = SearchConfig(degree_max=2, n_theta=16, n_phi=32)
    obj = VarianceObjective(cfg)
    x = HarmonicSpec(terms=((2, 0, 0.03), (2, 2, 0.02), (2, -1, 0.01))).pack(obj.pairs)
    v1 = obj.diagnostics(x)["variance"]
    v2 = obj.diagnostics(D2 @ x)["variance"]
    assert abs(v1 - v2) < 1e-8


# Relative tolerances, against max(1, |oracle|), of the closed-form entries;
# the largest differences seen are about 1e-12 on K_eta and 3e-14 elsewhere.
ORACLE_RTOL = {"K_eta": 1e-10, "detA": 1e-12, "K": 1e-12, "gap_low": 1e-12, "weight": 1e-14}


def _record_tables(monkeypatch):
    """Keeps the last table that ``expansion_entries`` and ``geometry_table`` return, by name."""
    tables = {}
    for name in ("expansion_entries", "geometry_table"):

        def record(*args, _name=name, _route=getattr(integrals, name)):
            tables[_name] = _route(*args)
            return tables[_name]

        monkeypatch.setattr(integrals, name, record)
    return tables


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.7])
@pytest.mark.parametrize("degree_max, amplitude", [(1, 0.3), (3, 0.05), (4, 0.025)])
def test_closed_form_matches_jetframe_oracle(monkeypatch, radius, degree_max, amplitude):
    # The search fixes the unit sphere and freezes degrees 0 and 1; the two
    # routes must agree at any radius and with a dilation or boost term too.
    monkeypatch.setattr("lightcone.search._RADIUS", radius)
    monkeypatch.setattr("lightcone.search._LOWEST_FREE_DEGREE", 0)
    obj = VarianceObjective(SearchConfig(degree_max=degree_max, n_theta=10, n_phi=20))
    rng = np.random.default_rng(degree_max * 100 + int(10 * radius))
    tables = _record_tables(monkeypatch)
    walls = 0
    for _ in range(20):
        x = rng.uniform(-amplitude, amplitude, len(obj.pairs))
        tables.clear()
        d, od = obj.diagnostics(x), obj.frame_diagnostics(x)
        fast, oracle = (
            dict(t, weight=integrals.induced_weights(obj.w_nodes, np.sin(obj.TH), t))
            for t in (tables["expansion_entries"], tables["geometry_table"])
        )
        for name in ("detA", "K", "gap_low", "weight"):
            a, b = fast[name], oracle[name]
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) < ORACLE_RTOL[name], name
        np.testing.assert_array_equal(fast["ii_positive"], oracle["ii_positive"])
        assert d["ok"] == od["ok"]
        walls += not od["ok"]
        if od["ok"]:
            a, b = fast["K_eta"], oracle["K_eta"]
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) < ORACLE_RTOL["K_eta"]
    if (radius, degree_max) == (0.5, 4):
        assert walls > 0


def test_objective_grows_along_a_ray_out_of_the_box():
    # Past |x| of about 300, e^{2 sigma} overflows and the surface cannot be
    # evaluated; every path still adds the amplitude-box penalty.
    obj = VarianceObjective(SearchConfig(**FAST))
    for route in (obj.diagnostics, obj.frame_diagnostics):
        values = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (2.0, 10.0, 300.0, 1e6, 1e200):
                d = route(np.full(len(obj.pairs), s))
                assert not d["ok"]
                values.append(d["objective"])
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(values) > 0), values


def test_search_zero_start_stays_round():
    cfg = SearchConfig(**FAST, n_starts=1, seed=123)
    obj = VarianceObjective(cfg)
    d = obj.diagnostics(np.zeros(len(obj.pairs)))
    assert d["variance"] < 1e-20


def test_mini_search_all_umbilical():
    cfg = SearchConfig(**FAST, n_starts=2, seed=5)
    report = search(cfg)
    assert len(report.results) == 2
    for r in report.results:
        assert r.converged_variance
        assert r.classification == "umbilical"
        assert r.sup_gap_low < 1e-4
        assert abs(r.mean_keta - 2.0) < 1e-3
    assert report.all_umbilical
    assert report.candidates == []
    for r in report.results:
        rows = sum(1 for row in report.trace_rows if row[0] == r.start_index)
        assert r.evaluations == rows >= r.iterations
        assert r.oracle_diff <= ORACLE_TOL


def test_search_deterministic_per_seed():
    quick = dict(FAST, max_iter=60)
    cfg = SearchConfig(**quick, n_starts=1, seed=7)
    r1 = search(cfg)
    r2 = search(cfg)
    assert r1.trace_csv() == r2.trace_csv()
    assert r1.to_json() == r2.to_json()


def test_search_different_seeds_differ():
    quick = dict(FAST, max_iter=40)
    a = search(SearchConfig(**quick, n_starts=1, seed=1))
    b = search(SearchConfig(**quick, n_starts=1, seed=2))
    assert a.results[0].x0 != b.results[0].x0


def test_candidate_reverification_flow(monkeypatch):
    # Absurdly small thresholds turn the round minimizer itself into a
    # "candidate", which must then survive the doubled-grid re-check and be
    # reported through the candidate path.
    monkeypatch.setattr("lightcone.search._UMBILIC_TOL", 1e-30)
    monkeypatch.setattr("lightcone.search._CANDIDATE_GAP", 1e-30)
    report = search(SearchConfig(**FAST, n_starts=1, seed=11))
    assert report.results[0].classification == "candidate"
    assert report.candidates == [0]


def test_floor_consistency_on_trace():
    cfg = SearchConfig(**FAST, n_starts=1, seed=9)
    report = search(cfg)
    for row in report.trace_rows:
        _, _, _, variance, mean_keta, _ = row
        if variance < cfg.var_tol and np.isfinite(mean_keta):
            assert mean_keta >= 2.0 - 1e-3


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(var_tol=-1.0)
    with pytest.raises(TypeError):
        SearchConfig(bogus_field=2)  # type: ignore[call-arg]


def test_config_free_pairs_freezing():
    # Degrees 0 and 1 (the dilation and, to first order, a boost) are frozen.
    cfg = SearchConfig(degree_max=2)
    assert cfg.free_pairs() == [(2, -2), (2, -1), (2, 0), (2, 1), (2, 2)]
    cfg = SearchConfig(degree_max=4)
    assert min(l for l, _ in cfg.free_pairs()) == 2
    assert len(cfg.free_pairs()) == 5 + 7 + 9
    with pytest.raises(ValueError, match="no coefficient free"):
        SearchConfig(degree_max=1)


def test_config_fields_are_the_nine_settable_values():
    # Scale, gauge and thresholds are module constants, not settings.
    assert [f.name for f in fields(SearchConfig)] == [
        "degree_max", "amplitude_bound", "n_theta", "n_phi", "n_starts",
        "max_iter", "n_restarts", "var_tol", "seed",
    ]


# -- the simplex against scipy's ---------------------------------------------


def _simplex(x0, step):
    x0 = np.asarray(x0, dtype=float)
    return np.vstack([x0] + [x0 + step * e for e in np.eye(x0.size)])


def _logged(f):
    """f, recording a copy of every point it is called on, and the record."""
    points = []

    def logged(x):
        points.append(x.copy())
        return f(x)

    return logged, points


def _assert_same_run(f, simplex, max_iter):
    """Our simplex visits scipy's points bit for bit; returns the iteration count."""
    ref_f, ref_points = _logged(f)
    res = minimize(
        ref_f, simplex[0], method="Nelder-Mead",
        options={"initial_simplex": simplex, "maxiter": max_iter, "xatol": 1e-6,
                 "fatol": 1e-12, "adaptive": False},
    )
    our_f, points = _logged(f)
    x, iterations = _nelder_mead(our_f, simplex, max_iter, xatol=1e-6, fatol=1e-12)
    assert iterations == res.nit
    assert len(points) == len(ref_points)
    assert np.array(points).tobytes() == np.array(ref_points).tobytes()
    assert x.tobytes() == res.x.tobytes()
    return iterations


@pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.5, -0.3, 1.1, 0.8]], ids=["dim2", "dim4"])
def test_nelder_mead_matches_scipy_on_rosenbrock(x0):
    assert _assert_same_run(rosen, _simplex(x0, 0.05), 400) > 50


def test_nelder_mead_matches_scipy_on_ties():
    # Two plateaus, like the objective's two walls: every point beyond
    # radius 1 scores 1e6 and beyond radius 2 scores 2e6.  The sorts meet
    # ties from the first one on (numpy's argsort is not stable, and which
    # tied vertex counts as the worst steers the descent), and trial points
    # tie with the vertices they are compared against.
    rng = np.random.default_rng(5)
    centre = rng.uniform(-0.3, 0.3, 8)

    def walled(x):
        q = x @ x
        return 2e6 if q > 4.0 else 1e6 if q > 1.0 else float((x - centre) @ (x - centre))

    simplex = _simplex(rng.uniform(-0.5, 0.5, 8), 1.5)
    assert {walled(v) for v in simplex} == {1e6, 2e6}
    assert _assert_same_run(walled, simplex, 200) > 100


@pytest.mark.parametrize(
    "degree_max, amplitude, n_vertices",
    [(2, 0.3, 6), (3, 0.1, 13)],
    ids=["degree2", "degree3"],
)
def test_nelder_mead_matches_scipy_on_variance_objective(degree_max, amplitude, n_vertices):
    cfg = SearchConfig(degree_max=degree_max, n_theta=8, n_phi=16)
    obj = VarianceObjective(cfg)
    x0 = np.random.default_rng(2).uniform(-amplitude, amplitude, len(obj.pairs))
    simplex = _simplex(x0, 0.02)
    assert simplex.shape[0] == n_vertices
    walls = []

    def objective(x):
        d = obj.diagnostics(x)
        walls.append(not d["ok"])
        return d["objective"]

    _assert_same_run(objective, simplex, 150)
    # the descent starts on the wall and leaves it
    assert walls[0] and not all(walls)


def test_oracle_reads_no_expansion_law(monkeypatch, bumpy_sphere):
    # frame_diagnostics, and with it the doubled-grid re-check, must build
    # its table by JetFrame, or closed_form_oracle would compare the
    # expansion law with itself.
    from lightcone import transforms

    obj = VarianceObjective(SearchConfig(**FAST))
    x = HarmonicSpec(terms=((2, 0, 0.03),)).pack(obj.pairs)
    ref = obj.frame_diagnostics(x)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the expansion law")

    monkeypatch.setattr(transforms, "expansion_law", forbidden)
    assert obj.frame_diagnostics(x) == ref
    with pytest.raises(AssertionError):
        obj.diagnostics(x)
    monkeypatch.undo()

    # The objective and SphereGrid share one law-to-table step, so a second
    # copy of it in either would leave this patch unseen.
    def no_entries(*args, **kwargs):
        raise AssertionError("the table came from expansion_entries")

    monkeypatch.setattr(integrals, "expansion_entries", no_entries)
    with pytest.raises(AssertionError, match="expansion_entries"):
        obj.diagnostics(x)
    with pytest.raises(AssertionError, match="expansion_entries"):
        SphereGrid(bumpy_sphere, 8, 16)
    assert obj.frame_diagnostics(x) == ref
    TH, PH, _ = sphere_quadrature(8, 16)
    assert integrals.geometry_table(bumpy_sphere, TH, PH)["K_eta"].shape == TH.shape
