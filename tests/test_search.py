import warnings
from dataclasses import fields

import numpy as np
import pytest

from lightcone import integrals
from lightcone.catalog import HarmonicSpec, perturbed_sphere
from lightcone.harmonics import real_harmonic
from lightcone.integrals import SphereGrid, sphere_quadrature
from lightcone.search import (
    _WALL,
    ORACLE_TOL,
    SearchConfig,
    VarianceObjective,
    _levenberg_marquardt,
    _minimize_one,
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
    pairs = [(l, m) for m in range(-l, l + 1)]
    base = real_harmonic(pairs, *pts)
    D = np.empty((len(pairs), len(pairs)))
    for i, yi in enumerate(real_harmonic(pairs, *rpts)):
        for j, yj in enumerate(base):
            D[i, j] = float(np.sum(w * yi * yj))
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
    val = obj.diagnostics(HarmonicSpec(terms=((2, 0, 0.05),)).pack(obj.pairs))["objective"]
    assert val > 1e-6
    # regression band for the frozen configuration
    assert val == pytest.approx(9.11e-5, rel=0.05)


def test_variance_does_not_depend_on_radius():
    # II and K_II are invariant under psi -> c psi, which is why the search
    # runs on the unit sphere: at radius r only det A and the gap scale, by
    # r^-4, and the det A gate with them.
    obj = VarianceObjective(SearchConfig(**FAST))
    x = HarmonicSpec(terms=((2, 0, 0.05), (2, 1, -0.02))).pack(obj.pairs)
    ref = obj.frame_diagnostics(x)
    for r in (0.5, 1.7):
        table = integrals.geometry_table(perturbed_sphere(obj.spec(x), r=r), obj.TH, obj.PH)
        d = obj._reduce(table)
        assert d["variance"] == pytest.approx(ref["variance"], rel=1e-12)
        assert d["mean_keta"] == pytest.approx(ref["mean_keta"], rel=1e-14)
        for name in ("min_detA", "sup_gap_low"):
            assert d[name] * r**4 == pytest.approx(ref[name], rel=1e-12), name


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


def test_objective_stays_finite_along_a_ray_out_of_the_box():
    # Past |x| of about 300, e^{2 sigma} overflows and the surface cannot be
    # evaluated; every route still scores the finite wall, without a warning.
    obj = VarianceObjective(SearchConfig(**FAST))
    for route in (obj.diagnostics, obj.frame_diagnostics):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (2.0, 10.0, 300.0, 1e6, 1e200):
                d = route(np.full(len(obj.pairs), s))
                assert not d["ok"]
                assert d["objective"] == _WALL
                assert "residual" not in d


def test_objective_table_is_the_sphere_grid_table(monkeypatch, bumpy_sphere):
    # The objective takes SphereGrid's sigma step: the same 12 entries, bit
    # for bit; and SphereGrid's table has every geometry_table entry.
    tables = _record_tables(monkeypatch)
    config = SearchConfig(**FAST)
    obj = VarianceObjective(config)
    x = HarmonicSpec(terms=((2, 0, 0.03), (2, -1, 0.02))).pack(obj.pairs)
    obj.diagnostics(x)
    table = tables["expansion_entries"]
    grid = SphereGrid(perturbed_sphere(obj.spec(x), r=1.0), config.n_theta, config.n_phi)
    assert grid.route == "sigma"
    assert list(table) == list(grid.table) and len(table) == 12
    for key, entry in grid.table.items():
        np.testing.assert_array_equal(np.broadcast_to(table[key], obj.TH.shape), entry, key)
    TH, PH, _ = sphere_quadrature(8, 16)
    assert set(SphereGrid(bumpy_sphere, 8, 16).table) == set(
        integrals.geometry_table(bumpy_sphere, TH, PH)
    )


def test_residual_squares_sum_to_the_variance():
    obj = VarianceObjective(SearchConfig(**FAST))
    d = obj.diagnostics(HarmonicSpec(terms=((2, 0, 0.05), (2, -1, 0.02))).pack(obj.pairs))
    assert d["ok"]
    assert d["residual"].shape == obj.TH.shape
    assert d["residual"] @ d["residual"] == d["variance"] > 0.0


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


# -- the Levenberg-Marquardt step ----------------------------------------------


def test_levenberg_marquardt_solves_linear_least_squares():
    # A consistent overdetermined system: the forward-difference Jacobian
    # of an affine residual is exact up to rounding, so the descent lands
    # on the solution, to within the step floor 1e-10.
    rng = np.random.default_rng(4)
    A = rng.normal(size=(9, 3))
    solution = np.array([0.3, -0.7, 1.1])
    b = A @ solution
    x, r, steps = _levenberg_marquardt(lambda x: A @ x - b, np.zeros(3), -b, 50, 10.0, 1e-30)
    np.testing.assert_allclose(x, solution, rtol=0, atol=1e-10)
    assert r.tobytes() == (A @ x - b).tobytes()
    assert 1 <= steps < 10


@pytest.mark.parametrize("gate", ["not_ok", "box"])
def test_rejected_step_raises_the_damping(gate):
    # r(x) = x - 1 from 0 has J = 1, so each step is (1 - x) / (1 + mu).
    # Past 0.6 a point cannot be evaluated, or lies outside the box; the
    # first trials, to 1/1.001, 1/1.01 and 1/1.1, are rejected with mu
    # growing tenfold, and the one at mu = 1, to 0.5, is taken.  The only
    # other evaluation is the Jacobian probe at 1e-6, before the first step.
    points = []

    def residual(x):
        points.append(x.copy())
        return None if gate == "not_ok" and x[0] > 0.6 else x - 1.0

    bound = 0.6 if gate == "box" else 10.0
    x, r, steps = _levenberg_marquardt(residual, np.zeros(1), -np.ones(1), 4, bound, 1e-30)
    assert points[0][0] == 1e-6
    trials = [p[0] for p in points[1:]]
    expected = [1 / 1.001, 1 / 1.01, 1 / 1.1, 0.5]
    if gate == "box":
        expected = expected[-1:]
    np.testing.assert_allclose(trials, expected, rtol=1e-9)
    assert x[0] == trials[-1] and steps == 4


def test_inadmissible_start_is_halved():
    obj = VarianceObjective(SearchConfig(**FAST))
    x0 = HarmonicSpec(terms=((2, 0, 0.6), (2, 2, -0.4))).pack(obj.pairs)
    assert not obj.diagnostics(x0)["ok"]
    cfg = SearchConfig(**FAST, n_restarts=0)
    x, trace, steps, halvings = _minimize_one(obj, x0, cfg)
    assert halvings >= 1
    assert [row[1] for row in trace[:halvings]] == [_WALL] * halvings
    assert trace[halvings][1] < _WALL
    assert obj.diagnostics(x0 / 2**halvings)["ok"]
    assert steps >= 1 and obj.diagnostics(x)["variance"] < 1e-20

    report = search(SearchConfig(**dict(FAST, amplitude_bound=1.6), n_starts=2, seed=1))
    assert [r.start_halvings for r in report.results] != [0, 0]
    for r in report.results:
        rows = [row for row in report.trace_rows if row[0] == r.start_index]
        assert [row[2] for row in rows[: r.start_halvings]] == [_WALL] * r.start_halvings


#: The benchmark's ``search-variance`` configuration (acceptance criterion 9).
SEARCH_VARIANCE = dict(degree_max=2, amplitude_bound=0.1, n_theta=10, n_phi=20, max_iter=300,
                       n_restarts=0, var_tol=1e-8, n_starts=4)


@pytest.mark.parametrize("seed", range(4))
def test_search_variance_starts_reach_the_round_sphere(seed):
    report = search(SearchConfig(**SEARCH_VARIANCE, seed=seed))
    for r in report.results:
        assert r.classification == "umbilical", r
        assert r.variance <= 1e-20
        assert r.iterations >= 1
        assert r.oracle_diff <= ORACLE_TOL


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

    def same(d):
        # Equal dicts; the residual vectors bit for bit.
        return d.keys() == ref.keys() and all(np.array_equal(d[k], ref[k]) for k in d)

    monkeypatch.setattr(transforms, "expansion_law", forbidden)
    assert same(obj.frame_diagnostics(x))
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
    assert same(obj.frame_diagnostics(x))
    TH, PH, _ = sphere_quadrature(8, 16)
    assert integrals.geometry_table(bumpy_sphere, TH, PH)["K_eta"].shape == TH.shape
