import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from importlib.resources import files
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from lightcone import cli, curvature, integrals, search, spectrum
from lightcone.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_DEGENERATE,
    EXIT_OK,
    main,
)
from lightcone.errors import GaussMapUndefined
from lightcone.integrals import SphereGrid
from lightcone.search import VarianceObjective
from lightcone.surfaces import JetFrame

SCHEMA = json.loads((files("lightcone") / "manifest_schema.json").read_text())


def _load_manifest(path):
    with open(path) as fh:
        data = json.load(fh)
    jsonschema.validate(data, SCHEMA)
    return data


def test_verify_round_sphere_passes(tmp_path):
    out = tmp_path / "m.json"
    rc = main(["verify", "round-sphere", "--r", "1", "--grid", "16x32", "--out", str(out)])
    assert rc == EXIT_OK
    data = _load_manifest(out)
    assert data["passed"]
    names = {c["name"]: c for c in data["checks"]}
    assert names["round_keta"]["status"] == "PASS"
    assert names["round_keta"]["residual"] < 1e-8
    assert all(c["tolerance"] is not None for c in data["checks"] if c["residual"] is not None)


def test_verify_paraboloid_skips_conjugate_checks(tmp_path):
    out = tmp_path / "m.json"
    rc = main(["verify", "paraboloid", "--grid", "12x12", "--out", str(out)])
    assert rc == EXIT_OK
    data = _load_manifest(out)
    names = {c["name"]: c for c in data["checks"]}
    assert names["nondegeneracy"]["status"] == "SKIP"
    for check in ("conjugate_weingarten", "double_conjugate", "curvature_relation"):
        assert names[check]["status"] == "SKIP"


def test_conjugate_group_builds_three_frames(monkeypatch, bumpy_sphere):
    # The surface on the subgrid, its conjugate, and the surface frame nested
    # in the conjugate chart: the identities read these and build no more.
    init, calls = JetFrame.__init__, []

    def counting(self, *args, **kwargs):
        calls.append(args[0].name)
        init(self, *args, **kwargs)

    monkeypatch.setattr(JetFrame, "__init__", counting)
    residuals = cli._conjugate_residuals(bumpy_sphere, (16, 32))
    assert len(calls) == 3, calls
    assert len(residuals) == len(cli.CONJUGATE_CHECKS)


def test_verify_perturbed_spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([[2, 0, 0.04], [3, 1, 0.02]]))
    out = tmp_path / "m.json"
    rc = main(
        ["verify", "perturbed", "--spec", str(spec), "--grid", "12x24", "--out", str(out)]
    )
    assert rc == EXIT_OK
    data = _load_manifest(out)
    names = {c["name"]: c for c in data["checks"]}
    assert names["curvature_relation"]["status"] == "PASS"
    assert names["curvature_relation"]["residual"] < 1e-6


def test_verify_tolerance_override_can_fail(tmp_path):
    out = tmp_path / "m.json"
    rc = main(
        [
            "verify", "round-sphere", "--grid", "8x16",
            "--tol", "codazzi=1e-30", "--out", str(out),
        ]
    )
    assert rc == EXIT_CHECK_FAILED
    data = _load_manifest(out)
    names = {c["name"]: c for c in data["checks"]}
    assert names["codazzi"]["status"] == "FAIL"
    assert names["codazzi"]["tolerance"] == 1e-30


def test_verify_builds_each_brioschi_curvature_once(bumpy_sphere, monkeypatch):
    calls = []
    original = curvature.brioschi_curvature

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(curvature, "brioschi_curvature", counted)
    frame = JetFrame(bumpy_sphere, *bumpy_sphere.grid_points((6, 12)))
    cli._frame_residuals(frame)
    cli._definite_residuals(frame)
    assert len(calls) == 2  # the induced metric and II, one each


def test_verify_nonfinite_gap_fails(tmp_path, monkeypatch):
    # gap_floor clamps its one-sided residual at zero; the clamp must keep
    # NaN, so that the check fails.
    nan_gap = property(lambda self: np.full(np.shape(self.detA_val), np.nan))
    monkeypatch.setattr(JetFrame, "gap_low", nan_gap)
    out = tmp_path / "m.json"
    rc = main(["verify", "paraboloid", "--grid", "4x4", "--out", str(out)])
    assert rc == EXIT_CHECK_FAILED
    names = {c["name"]: c for c in _load_manifest(out)["checks"]}
    assert names["gap_floor"]["status"] == "FAIL"


def test_verify_summary_follows_redirected_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["verify", "paraboloid", "--grid", "4x4"])
    assert rc == EXIT_OK
    assert "=> PASS" in buf.getvalue()


@pytest.mark.parametrize("command", ["verify", "global", "export"])
@pytest.mark.parametrize(
    "text",
    [None, '[[2, 0, "x"]]', "[[2, 0]]", '{"a": 1}', "[[9, 0, 0.1]]", "[[2, 0, 0.1]", "5",
     "[[2.7, 0, 0.05]]", "[[2, 0.5, 0.05]]", "[[2, 0, true]]", "[[true, 0, 0.05]]",
     '[["2", 0, 0.05]]', "[[Infinity, 0, 0.05]]", "[[2, 0, 1" + "0" * 400 + "]]"],
    ids=["missing", "amplitude_str", "short_term", "object", "degree_9", "truncated",
         "number", "degree_fraction", "order_fraction", "amplitude_bool", "degree_bool",
         "degree_str", "degree_inf", "amplitude_huge"],
)
def test_bad_spec_rejected(tmp_path, capsys, command, text):
    spec = tmp_path / "spec.json"
    if text is not None:
        spec.write_text(text)
    argv = [command, "perturbed", "--spec", str(spec), "--grid", "4x8",
            "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_DEGENERATE
    assert "bad spec" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["nan", "inf"])
def test_nonfinite_radius_rejected(capsys, r):
    assert main(["verify", "round-sphere", "--r", r, "--grid", "4x8"]) == EXIT_DEGENERATE
    assert "radius must be positive and finite" in capsys.readouterr().err


def test_verify_tiny_radius_conjugate_off_cone_rejected(capsys):
    # The conjugate chart of a round sphere of radius 1e-4 has psi0 = 5000,
    # so its <psi, psi> rounds to 7e-9, above the on-cone tolerance.
    argv = ["verify", "round-sphere", "--r", "1e-4", "--grid", "4x8"]
    assert main(argv) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.startswith("degenerate input: conjugate(round-sphere") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "export"])
def test_radius_with_overflowing_square_rejected(tmp_path, capsys, command):
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 0.01]]")
    surface = ["round-sphere"] if command == "verify" else ["perturbed", "--spec", str(spec)]
    argv = [command, *surface, "--r", "1e200", "--grid", "4x8", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_DEGENERATE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "with a finite square" in lines[0], lines


def test_nan_observer_rejected(capsys):
    argv = ["verify", "round-sphere", "--u", "nan", "nan", "nan", "nan", "--grid", "4x8"]
    assert main(argv) == EXIT_DEGENERATE
    assert "u must satisfy <u,u> = -1" in capsys.readouterr().err


def test_verify_unknown_tolerance_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "round-sphere", "--tol", "bogus=1"])
    assert exc.value.code == EXIT_DEGENERATE


@pytest.mark.parametrize("value", ["inf", "1e400", "nan", "-1", "0"])
def test_verify_meaningless_tolerance_rejected(capsys, value):
    # inf and 1e400 would pass the check vacuously; nan, -1 and 0 would fail it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "round-sphere", "--grid", "4x8", "--tol", f"codazzi={value}"])
    assert exc.value.code == EXIT_DEGENERATE
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "global", "export"])
@pytest.mark.parametrize("amplitude", ["700", "1e300"])
def test_overflowing_spec_amplitude_rejected(tmp_path, capsys, command, amplitude):
    # Rejected before any jet is built: no overflow warning reaches stderr.
    spec = tmp_path / "spec.json"
    spec.write_text(f"[[2, 0, {amplitude}]]")
    argv = [command, "perturbed", "--spec", str(spec), "--grid", "8x16",
            "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DEGENERATE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "(r e^sigma)^2 must be finite" in lines[0], lines


def test_global_round_sphere(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["global", "round-sphere", "--r", "2", "--grid", "32x64", "--out", str(out)])
    assert rc == EXIT_OK
    data = _load_manifest(out)
    rep = data["report"]
    assert abs(rep["ii_eta_area"] - 2 * np.pi) < 1e-6
    assert abs(rep["lambda1"] - 0.5) < 0.5 * 2e-2
    assert abs(rep["gauss_bonnet"] - 4 * np.pi) < 1e-6
    assert rep["bound_rhs"] >= rep["lambda1"]
    names = {c["name"]: c for c in data["checks"]}
    assert names["lambda1_oracle"]["status"] == "PASS"
    assert abs(rep["lambda1"] - rep["lambda1_oracle"]) <= rep["lambda1_oracle_gap"]


def test_global_nonfinite_residuals_fail(tmp_path, monkeypatch):
    nan = float("nan")
    monkeypatch.setattr(
        spectrum, "lambda1_estimate",
        lambda grid: SimpleNamespace(
            value=nan, reilly_rhs=1.0, refinement_gap=nan, oracle=nan, oracle_gap=nan
        ),
    )
    monkeypatch.setattr(SphereGrid, "second_form_area", lambda self: nan)
    out = tmp_path / "g.json"
    rc = main(["global", "round-sphere", "--grid", "8x16", "--out", str(out)])
    assert rc == EXIT_CHECK_FAILED
    names = {c["name"]: c for c in _load_manifest(out)["checks"]}
    assert names["eigenvalue_bound"]["status"] == "FAIL"
    assert names["lambda1_oracle"]["status"] == "FAIL"
    assert names["second_form_area_bound"]["status"] == "FAIL"


@pytest.mark.parametrize("grid", ["1x1", "2x2", "1x4", "4x8", "7x16", "8x15"])
def test_global_grid_too_small_for_spectrum(capsys, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["global", "round-sphere", "--grid", grid]) == EXIT_DEGENERATE
    assert "too small for the spectrum" in capsys.readouterr().err


def test_global_smallest_spectrum_grid_accepted(tmp_path):
    out = tmp_path / "g.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["global", "round-sphere", "--grid", "8x16", "--out", str(out)]) == EXIT_OK
    rep = _load_manifest(out)["report"]
    assert rep["lambda1"] == pytest.approx(2.0, rel=1e-10)


def test_global_perturbed_floor_passes_off_the_grid_node(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 0.02], [2, 1, -0.01], [2, -2, 0.005]]")
    out = tmp_path / "g.json"
    argv = ["global", "perturbed", "--spec", str(spec), "--grid", "64x128", "--out", str(out)]
    assert main(argv) == EXIT_OK
    names = {c["name"]: c for c in _load_manifest(out)["checks"]}
    assert names["curvature_floor"]["status"] == "PASS"


def test_global_rejects_noncompact():
    assert main(["global", "cylinder"]) == EXIT_DEGENERATE


def test_global_rejects_degenerate():
    assert main(["global", "paraboloid", "--grid", "8x16"]) == EXIT_DEGENERATE


def test_global_rejects_closed_surface_with_det_a_below_zero(tmp_path, capsys):
    # A closed surface that reaches the non-degeneracy gate and fails it.
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 0.4]]")
    argv = ["global", "perturbed", "--spec", str(spec), "--grid", "16x32"]
    assert main(argv) == EXIT_DEGENERATE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rejected:") and "det A" in lines[0], lines


def test_global_ii_area_over_two_pi_fails(tmp_path, monkeypatch):
    # Quadrupling det A doubles the II area element: the area reads 4 pi,
    # finite and 2 pi beyond the bound, and the manifest check must say so.
    table = integrals.geometry_table

    def inflated(patch, u, v):
        t = table(patch, u, v)
        t["detA"] = t["detA"] * 4.0
        return t

    monkeypatch.setattr(integrals, "geometry_table", inflated)
    out = tmp_path / "g.json"
    argv = ["global", "round-sphere", "--grid", "8x16", "--out", str(out)]
    assert main(argv) == EXIT_CHECK_FAILED
    bound = {c["name"]: c for c in _load_manifest(out)["checks"]}["second_form_area_bound"]
    assert bound["status"] == "FAIL"
    assert bound["residual"] == pytest.approx(2 * np.pi, rel=1e-9)


def test_search_roundtrip_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "degree_max": 2,
                "n_starts": 1,
                "n_theta": 8,
                "n_phi": 16,
                "max_iter": 60,
            }
        )
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc = main(["search", "--config", str(cfg), "--seed", "7", "--out", str(out1)])
    assert rc == EXIT_OK
    rc = main(["search", "--config", str(cfg), "--seed", "7", "--out", str(out2)])
    assert rc == EXIT_OK
    t1 = (tmp_path / "r1_trace.csv").read_bytes()
    t2 = (tmp_path / "r2_trace.csv").read_bytes()
    assert t1 == t2
    rep = json.loads(out1.read_text())
    assert rep["config"]["seed"] == 7
    assert rep["results"][0]["classification"] in ("umbilical", "inconclusive")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "round-sphere", "--grid", "4x8", "--out", "{bad}"],
        ["global", "round-sphere", "--grid", "4x8", "--out", "{bad}"],
        ["search", "--config", "{cfg}", "--out", "{bad}"],
        ["search", "--config", "{cfg}", "--out", "{tmp}/r.json", "--trace", "{bad}"],
        ["search", "--config", "{cfg}", "--out", "{tmp}/r.json", "--manifest", "{bad}"],
        ["export", "round-sphere", "--grid", "4x8", "--out", "{bad}"],
    ],
    ids=["verify_out", "global_out", "search_out", "search_trace", "search_manifest",
         "export_out"],
)
def test_unwritable_output_exits_3(tmp_path, capsys, monkeypatch, argv):
    # every output path is checked before any work: the surface is never
    # built and the search never runs
    def never(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(cli, "_build_surface", never)
    monkeypatch.setattr(search, "search", never)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degree_max": 2, "n_starts": 1, "n_theta": 8, "n_phi": 16,
                               "max_iter": 20}))
    bad = tmp_path / "missing" / "out.json"
    fill = dict(bad=bad, cfg=cfg, tmp=tmp_path)
    assert main([a.format(**fill) for a in argv]) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert f"cannot write {bad}" in err
    assert "Traceback" not in err
    # the probe of the writable paths leaves no file behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_undefined_gauss_map_exits_3(capsys, monkeypatch):
    def undefined(frame):
        raise GaussMapUndefined("normal has zero time component")

    monkeypatch.setattr(cli, "gauss_maps", undefined)
    assert main(["verify", "round-sphere", "--grid", "4x8"]) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert "degenerate input: normal has zero time component" in err
    assert "Traceback" not in err


def _shift_mean(method, delta):
    def shifted(self, *args):
        d = method(self, *args)
        return dict(d, mean_keta=d["mean_keta"] + delta) if d["ok"] else d

    return shifted


@pytest.mark.parametrize(
    "method, check",
    [("frame_diagnostics", "closed_form_oracle"), ("_reduce", "umbilical_at_two")],
    ids=["oracle_disagrees", "both_routes_off_two"],
)
def test_search_check_failure_exits_2(tmp_path, capsys, monkeypatch, method, check):
    # Shifting the oracle alone splits the two routes; shifting the shared
    # reduction moves both off curvature two while they still agree.
    monkeypatch.setattr(
        VarianceObjective, method, _shift_mean(getattr(VarianceObjective, method), 1e-3)
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degree_max": 2, "n_starts": 1, "n_theta": 8, "n_phi": 16,
                               "max_iter": 150}))
    out = tmp_path / "m.json"
    rc = main(["search", "--config", str(cfg), "--seed", "3",
               "--out", str(tmp_path / "r.json"), "--manifest", str(out)])
    assert rc == EXIT_CHECK_FAILED
    names = {c["name"]: c for c in _load_manifest(out)["checks"]}
    assert names[check]["status"] == "FAIL"
    if check == "umbilical_at_two":
        assert names["closed_form_oracle"]["status"] == "PASS"
    assert "Traceback" not in capsys.readouterr().err


def test_search_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"degree_max": 2,,}')
    rc = main(["search", "--config", str(bad)])
    assert rc == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"nope": 1}',
        '{"n_starts": 0}',
        '{"degree_max": 5}',
        '{"n_theta": 0}',
        '{"amplitude_bound": NaN}',
        '{"amplitude_bound": Infinity}',
        '{"degree_max": 1}',
        '{"n_theta": 2.5}',
        '{"seed": -3}',
        '{"n_starts": true}',
        '{"freeze_degree0": "no"}',
        '{"radius": 1e308}',
        '{"radius": 1e-100}',
    ],
    ids=["unknown_key", "n_starts_0", "degree_max_5", "n_theta_0", "amplitude_nan",
         "amplitude_inf", "no_free_pairs", "n_theta_float", "seed_negative", "n_starts_bool",
         "freeze_str", "radius_r4_overflows", "radius_r4_underflows"],
)
def test_search_unknown_key_rejected(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["search", "--config", str(bad)]) == EXIT_BAD_CONFIG


def test_export_round_sphere(tmp_path):
    out = tmp_path / "nodes.csv"
    rc = main(["export", "round-sphere", "--grid", "8x16", "--out", str(out)])
    assert rc == EXIT_OK
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "phi", "K", "Keta", "d", "gap_low", "gap_high", "psi0"]
    assert len(rows) == 1 + 8 * 16
    for row in rows[1:]:
        assert float(row[2]) == pytest.approx(1.0, abs=1e-10)
        assert float(row[3]) == pytest.approx(2.0, abs=1e-8)
        assert float(row[4]) == pytest.approx(0.25, abs=1e-12)


def test_export_header_contract_for_plane_charts(tmp_path):
    out = tmp_path / "cyl.csv"
    rc = main(["export", "cylinder", "--grid", "6x12", "--out", str(out)])
    assert rc == EXIT_OK
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "phi", "K", "Keta", "d", "gap_low", "gap_high", "psi0"]
    assert len(rows) == 1 + 6 * 12


@pytest.mark.parametrize("grid", ["64by128", "0x0", "0x5", "-1x8"])
def test_grid_parser_rejects_garbage(grid):
    with pytest.raises(SystemExit) as exc:
        # "--grid=" keeps argparse from reading "-1x8" as an option
        main(["verify", "round-sphere", f"--grid={grid}"])
    assert exc.value.code == EXIT_DEGENERATE


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "round-sphere", "--bogus"], EXIT_DEGENERATE),
        (["--bogus", "export", "cylinder", "--out", "t.csv"], EXIT_DEGENERATE),
        (["global", "round-sphere", "extra"], EXIT_DEGENERATE),
        (["bogus"], EXIT_DEGENERATE),
        ([], EXIT_DEGENERATE),
        (["search"], EXIT_BAD_CONFIG),
        (["search", "--config", "c.json", "--bogus"], EXIT_BAD_CONFIG),
        (["search", "--config", "c.json", "--seed", "abc"], EXIT_BAD_CONFIG),
        (["verify", "round-sphere", "--grid", "4x8", "--seed", "-1"], EXIT_DEGENERATE),
    ],
)
def test_usage_errors_exit_apart_from_failed_checks(capsys, argv, code):
    # Code 2 is a failed check; a usage error is bad input: 3, or 4 for search.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["search", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out


# -- start-up cost -------------------------------------------------------------
#
# Only `global` needs scipy (its eigensolvers); the other commands, and the
# import of the command line itself, must not load any of it.

SRC = Path(cli.__file__).resolve().parents[1]


def _scipy_modules_after(code, cwd):
    """The scipy modules a fresh interpreter has loaded after running ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", probe],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    assert _scipy_modules_after("import lightcone.cli", tmp_path) == []


def test_verify_and_export_load_no_scipy(tmp_path):
    code = (
        "from lightcone.cli import main\n"
        "assert main(['verify', 'round-sphere', '--grid', '8x16']) == 0\n"
        "assert main(['export', 'round-sphere', '--grid', '8x16', '--out', 't.csv']) == 0"
    )
    assert _scipy_modules_after(code, tmp_path) == []


def test_search_loads_no_scipy(tmp_path):
    (tmp_path / "cfg.json").write_text(
        json.dumps({"degree_max": 2, "n_starts": 1, "n_theta": 8, "n_phi": 16, "max_iter": 20})
    )
    code = (
        "from lightcone.cli import main\n"
        "assert main(['search', '--config', 'cfg.json', '--out', 'r.json']) == 0"
    )
    assert _scipy_modules_after(code, tmp_path) == []


def test_global_loads_no_scipy_optimize(tmp_path):
    code = (
        "from lightcone.cli import main\n"
        "assert main(['global', 'round-sphere', '--grid', '8x16']) == 0"
    )
    loaded = _scipy_modules_after(code, tmp_path)
    assert "scipy.linalg" in loaded and "scipy.sparse.linalg" in loaded
    assert not any(m.startswith("scipy.optimize") for m in loaded), loaded
