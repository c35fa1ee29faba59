import contextlib
import csv
import io
import json
import os
import itertools
import re
import subprocess
import sys
import time
import warnings
import weakref
from importlib.resources import files
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from lightcone import cli, curvature, integrals, search, spectrum, surfaces, transforms
from lightcone.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_DEGENERATE,
    EXIT_OK,
    main,
)
from lightcone.errors import LightconeError
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


#: A spec whose exact umbilic lies at the main chart's poles: Y_4^3 turns the
#: surface into itself by a third of a turn about the polar axis.
_POLAR_UMBILIC = "[[2, 0, 0.08], [4, 3, 0.03]]"


@pytest.mark.parametrize("r", ["0.7", "1", "1.1", "1.3"])
def test_umbilic_point_at_the_main_pole_is_reached(tmp_path, r):
    # The exact umbilic is the pole, which lies off every node of the
    # chart's scan; the two pole candidates, each at the centre of a chart
    # centred on it, start Newton there.
    spec, out = tmp_path / "spec.json", tmp_path / "m.json"
    spec.write_text(_POLAR_UMBILIC)
    argv = ["verify", "perturbed", "--spec", str(spec), "--r", r, "--grid", "16x32"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    checks = {c["name"]: c for c in _load_manifest(out)["checks"]}
    assert checks["umbilic_point"]["residual"] < 1e-10


def test_verify_at_64x128_builds_no_second_scan_frame(tmp_path, monkeypatch):
    # verify reads its points in frames of at most surfaces._BLOCK points, one
    # alive at a time, at every grid: at 64x128 five frames over its 8392
    # points, and at 16x32 one.  The umbilic search starts from the sweep's
    # gap values, so it builds one frame of all starts, one per Newton step
    # for the starts still moving and the frame at the find: at most 10.
    sizes, build = [], JetFrame.__init__
    read, swept, alive = cli._verify_read, [], []
    search, in_search = cli.umbilic_point_search, []

    def recording(self, patch, u, v):
        # each block's frame is gone before any other frame is built
        assert [ref for ref in alive if ref() is not None] == []
        sizes.append(np.size(u))
        build(self, patch, u, v)

    def reading(frame):
        alive.append(weakref.ref(frame))
        swept.append(frame.u.size)
        return read(frame)

    def counting(patch, theta, phi, gap_low):
        first = len(sizes)
        out = search(patch, theta, phi, gap_low)
        in_search.append(len(sizes) - first)
        return out

    monkeypatch.setattr(JetFrame, "__init__", recording)
    monkeypatch.setattr(cli, "_verify_read", reading)
    monkeypatch.setattr(cli, "umbilic_point_search", counting)
    for spec, r in ((_POLAR_UMBILIC, "1"), ("[[2, -2, 0.03], [3, 1, 0.02]]", "1.1")):
        spec_file, out = tmp_path / "spec.json", tmp_path / "m.json"
        spec_file.write_text(spec)
        argv = ["verify", "perturbed", "--spec", str(spec_file), "--r", r, "--out", str(out)]
        for grid, own, blocks in (("64x128", 64 * 128 + 200, 5), ("16x32", 16 * 32 + 200, 1)):
            sizes.clear()
            swept.clear()
            assert main(argv + ["--grid", grid]) == EXIT_OK
            assert max(sizes) <= surfaces._BLOCK == 2048, grid
            assert sum(swept) == own and len(swept) == blocks, (grid, swept)
            checks = {c["name"]: c for c in _load_manifest(out)["checks"]}
            assert checks["umbilic_point"]["residual"] < 1e-10
    assert len(in_search) == 4 and max(in_search) <= 10, in_search


def test_verify_manifest_is_independent_of_the_block(tmp_path, monkeypatch):
    # Jet arithmetic is pointwise, so every residual, where, status and
    # detail keeps its bits in blocks of any size, down to a last block
    # shorter than the others, and in the one frame of all points.
    # The definite group passes on the first surface; [[4, 0, 0.0676]]
    # leaves II indefinite somewhere, so that group is skipped; the
    # paraboloid's nondegeneracy is a SKIP.
    spec_files = {}
    for name, terms in (("bumpy", [[2, 0, 0.04], [3, 1, 0.02]]), ("indefinite", [[4, 0, 0.0676]])):
        spec_files[name] = tmp_path / f"{name}.json"
        spec_files[name].write_text(json.dumps(terms))
    inputs = [("perturbed", spec_files["bumpy"], (16, 32)), ("paraboloid", None, (16, 32)),
              ("perturbed", spec_files["indefinite"], (32, 64))]

    def manifest(surface, spec, grid):
        args = SimpleNamespace(surface=surface, r=1.0, u=None, spec=spec and str(spec),
                               grid=grid, seed=0)
        m = cli.Manifest("verify", {})
        cli._verify_checks(m, args)
        out = m.to_dict()
        out.pop("wall_time_s")
        return json.dumps(out)

    read, frames = cli._verify_read, []

    def counting(frame):
        frames.append(frame.u.size)
        return read(frame)

    monkeypatch.setattr(cli, "_verify_read", counting)
    by_block, n_frames = [], []
    for block in (37, 2048, 10**6):
        monkeypatch.setattr(surfaces, "_BLOCK", block)
        frames.clear()
        by_block.append([manifest(*inp) for inp in inputs])
        n_frames.append(len(frames))
    assert by_block[0] == by_block[1] == by_block[2]
    # The patch reaches the sweep: the 2248 points of the 32x64 run take two
    # frames of 2048, and 37 points a frame gives more frames still.
    assert n_frames == [101, 4, 3], n_frames
    checks = [{c["name"]: c for c in json.loads(text)["checks"]} for text in by_block[0]]
    assert checks[0]["curvature_relation"]["status"] == "PASS"
    assert checks[1]["nondegeneracy"]["status"] == "SKIP"
    assert checks[2]["curvature_relation"]["detail"] == "second form not definite"


def _bits(table):
    return [(key, a.dtype.str, a.shape, a.tobytes()) for key, a in table.items()]


def _law_widths(monkeypatch):
    """Record the node count of every ``transforms.expansion_law`` batch."""
    law, widths = transforms.expansion_law, []

    def recording(base, s):
        out = law(base, s)
        widths.append(np.size(out.detII))
        return out

    monkeypatch.setattr(transforms, "expansion_law", recording)
    return widths


def _frame_sizes(monkeypatch):
    """Record the point count of every ``JetFrame`` built."""
    build, sizes = JetFrame.__init__, []

    def recording(self, patch, u, v):
        sizes.append(np.size(u))
        build(self, patch, u, v)

    monkeypatch.setattr(JetFrame, "__init__", recording)
    return sizes


def test_tables_global_and_export_are_independent_of_the_block(tmp_path, monkeypatch,
                                                               bumpy_sphere):
    # geometry_table reads frames of at most _BLOCK points, and
    # expansion_table blocks of at most _BLOCK // n_phi theta rings, at
    # least one, in the fewest blocks of sizes within one row; every table
    # entry, manifest field and CSV cell keeps its bits.  At 2048 the 48
    # rings of 48x96 (at most 21 a block) take three blocks of 16 and the
    # 3200 points of 40x80 two of 1600; at 37, the 9 rings of 9x16 (at most
    # two a block) take five blocks, the first of one ring, a row of 64 or
    # 96 exceeds the block, so each block is one ring, and the 3200 points
    # take 87 frames of 36 or 37; at 10**6 every table is one block.
    spec, m_out, csv_out = tmp_path / "spec.json", tmp_path / "m.json", tmp_path / "t.csv"
    spec.write_text("[[2, -2, 0.03], [3, 1, 0.02]]")
    widths, sizes = _law_widths(monkeypatch), _frame_sizes(monkeypatch)
    points = bumpy_sphere.grid_points((40, 80))

    def outputs():
        out, law_calls = [], []
        for shape in ((9, 16), (6, 64), (48, 96)):
            widths.clear()
            out.append(_bits(integrals.expansion_table(bumpy_sphere, *shape)))
            law_calls.append(list(widths))
        sizes.clear()
        out.append(_bits(integrals.geometry_table(bumpy_sphere, *points)))
        frames = list(sizes)
        argv = ["perturbed", "--spec", str(spec), "--r", "1.1", "--grid", "48x96"]
        assert main(["global", *argv, "--out", str(m_out)]) == EXIT_OK
        manifest = _load_manifest(m_out)
        manifest.pop("wall_time_s")
        assert main(["export", "cylinder", "--grid", "40x80", "--out", str(csv_out)]) == EXIT_OK
        return out + [json.dumps(manifest), csv_out.read_bytes()], law_calls, frames

    by_block = {}
    for block in (37, 2048, 10**6):
        monkeypatch.setattr(surfaces, "_BLOCK", block)
        by_block[block] = outputs()
    assert by_block[37][0] == by_block[2048][0] == by_block[10**6][0]
    assert by_block[37][1] == [[16] + [32] * 4, [64] * 6, [96] * 48]
    assert by_block[2048][1] == [[144], [384], [1536] * 3]
    assert by_block[10**6][1] == [[144], [384], [4608]]
    assert sorted(by_block[37][2]) == [36] * 19 + [37] * 68
    assert by_block[2048][2] == [1600, 1600]
    assert by_block[10**6][2] == [3200]


def test_tables_at_64x128_build_no_batch_wider_than_the_block(tmp_path, monkeypatch,
                                                              bumpy_sphere):
    # The analogue of verify's frame count: the sigma table of global and
    # export runs the law on four blocks of 16 rings, and export of an open
    # chart reads geometry_table in four frames.
    widths, sizes = _law_widths(monkeypatch), _frame_sizes(monkeypatch)
    integrals.expansion_table(bumpy_sphere, 64, 128)
    assert widths == [surfaces._BLOCK] * 4
    out = tmp_path / "t.csv"
    assert main(["export", "cylinder", "--grid", "64x128", "--out", str(out)]) == EXIT_OK
    assert sizes == [surfaces._BLOCK] * 4


def test_verify_rejection_reports_the_block_that_raises(capsys, monkeypatch):
    # The guard's figures are over the frame that raises, the first of the
    # five blocks of 1678 or 1679 points of verify's sweep; the frame of all
    # 8392 points would print 5.099e-08, and none is built.
    sizes, build = [], JetFrame.__init__

    def recording(self, patch, u, v):
        sizes.append(np.size(u))
        build(self, patch, u, v)

    monkeypatch.setattr(JetFrame, "__init__", recording)
    argv = ["verify", "round-sphere", "--r", "1e4", "--grid", "64x128"]
    assert main(argv) == EXIT_DEGENERATE
    assert capsys.readouterr().err == (
        "rejected: round-sphere(r=10000): max |<psi,psi>| = 2.980e-08, min psi0 = 1.000e+04\n"
    )
    assert sizes == [1678], sizes


def test_export_text_formats_each_bit_pattern_by_repr():
    # One repr per distinct bit pattern of a column: -0.0 and 0.0 keep
    # their own text, and so does NaN.
    cols = [np.array([0.0, -0.0, np.nan, 0.1 + 0.2, 0.0]),
            np.array([1e-300, 2.0, 2.0, -np.inf, 5.0])]
    expected = "".join(",".join(map(repr, row)) + "\n" for row in np.column_stack(cols).tolist())
    assert cli._csv_rows(cols) == expected


def test_verify_paraboloid_skips_conjugate_checks(tmp_path):
    out = tmp_path / "m.json"
    rc = main(["verify", "paraboloid", "--grid", "12x12", "--out", str(out)])
    assert rc == EXIT_OK
    data = _load_manifest(out)
    names = {c["name"]: c for c in data["checks"]}
    assert names["nondegeneracy"]["status"] == "SKIP"
    for check in ("conjugate_weingarten", "double_conjugate", "curvature_relation"):
        assert names[check]["status"] == "SKIP"


def test_conjugate_group_builds_two_frames(monkeypatch, bumpy_sphere):
    # The surface on the subgrid and its conjugate, built on -eta of that
    # frame: the identities read these and build no more.
    init, calls = JetFrame.__init__, []

    def counting(self, *args, **kwargs):
        calls.append(args[0].name)
        init(self, *args, **kwargs)

    monkeypatch.setattr(JetFrame, "__init__", counting)
    residuals, _ = cli._conjugate_residuals(bumpy_sphere, (16, 32))
    assert len(calls) == 2, calls
    assert list(residuals) == [n for n, (_, g, _) in cli.CHECKS.items() if g == "conjugate"]


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


def test_verify_tolerance_override_can_fail(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.CHECKS, "codazzi", (1e-30, "frame", "abs"))
    out = tmp_path / "m.json"
    rc = main(["verify", "round-sphere", "--grid", "8x16", "--out", str(out)])
    assert rc == EXIT_CHECK_FAILED
    data = _load_manifest(out)
    names = {c["name"]: c for c in data["checks"]}
    assert names["codazzi"]["status"] == "FAIL"
    assert names["codazzi"]["tolerance"] == 1e-30


def test_verify_builds_each_brioschi_curvature_once(bumpy_sphere, monkeypatch):
    calls = []
    original = curvature.brioschi_curvature

    def counted(*metric):
        calls.append(metric)
        return original(*metric)

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


def test_wall_time_survives_a_wall_clock_stepping_back(tmp_path, monkeypatch):
    # The wall clock may be set back during a run; the manifest's wall time
    # must still be the non-negative duration the schema asks for.
    clock = itertools.count(1e9, -60.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    out = tmp_path / "m.json"
    assert main(["verify", "paraboloid", "--grid", "4x4", "--out", str(out)]) == EXIT_OK
    assert _load_manifest(out)["wall_time_s"] >= 0.0


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
    assert err.startswith("rejected: conjugate(round-sphere") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "export"])
def test_radius_with_overflowing_square_rejected(tmp_path, capsys, command):
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 0.01]]")
    surface = ["round-sphere"] if command == "verify" else ["perturbed", "--spec", str(spec)]
    argv = [command, *surface, "--r", "1e200", "--grid", "4x8", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_DEGENERATE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "with a finite square" in lines[0], lines


@pytest.mark.parametrize("command", ["verify", "global", "export"])
def test_radius_with_underflowing_square_rejected(tmp_path, capsys, command):
    # (1e-163)^2 rounds to 0, which the sigma route of global and export
    # would divide by.
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 0.01]]")
    argv = [command, "perturbed", "--spec", str(spec), "--r", "1e-163", "--grid", "8x16",
            "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_DEGENERATE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rejected: radius must be positive"), lines


@pytest.mark.parametrize("u0", ["-1e200", "-inf", "1e300"])
def test_huge_observer_rejected_without_a_warning(capsys, u0):
    # <u, u> would overflow; the observer is rejected before it is formed.
    argv = ["verify", "round-sphere", "--u", u0, "0", "0", "0", "--grid", "4x8"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and "u must satisfy <u,u> = -1" in lines[0], lines


@pytest.mark.parametrize(
    "argv, code",
    [(["verify", "round-sphere", "--grid", "100000x100000"], EXIT_DEGENERATE),
     (["search", "--config", "{cfg}"], EXIT_BAD_CONFIG)],
    ids=["verify_grid", "search_config"],
)
def test_out_of_memory_is_bad_input(tmp_path, capsys, monkeypatch, argv, code):
    # No real allocation: the command itself raises what numpy raises for
    # an array too large for memory.
    def too_large(args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")

    monkeypatch.setattr(cli, "cmd_verify", too_large)
    monkeypatch.setattr(cli, "cmd_search", too_large)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    monkeypatch.chdir(tmp_path)
    assert main([a.format(cfg=cfg) for a in argv]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("out of memory: Unable to allocate"), lines


@pytest.mark.parametrize("command", ["verify", "export"])
def test_closed_stdout_changes_neither_output_nor_exit_code(tmp_path, command):
    # as in `lightcone verify ... | head -1`, the reader of stdout is gone
    def run(name, stdout):
        argv = [command, "round-sphere", "--grid", "8x16", "--out", str(tmp_path / name)]
        proc = subprocess.run(
            [sys.executable, "-m", "lightcone.cli", *argv], stdout=stdout,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)), text=True,
            timeout=120,
        )
        if command == "export":
            return proc, (tmp_path / name).read_bytes()
        manifest = json.loads((tmp_path / name).read_text())
        del manifest["wall_time_s"]
        return proc, manifest

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed, output = run("closed", write_end)
    finally:
        os.close(write_end)
    open_, expected = run("open", subprocess.DEVNULL)
    assert closed.returncode == open_.returncode == EXIT_OK
    assert closed.stderr == "", closed.stderr
    assert output == expected


def test_nan_observer_rejected(capsys):
    argv = ["verify", "round-sphere", "--u", "nan", "nan", "nan", "nan", "--grid", "4x8"]
    assert main(argv) == EXIT_DEGENERATE
    assert "u must satisfy <u,u> = -1" in capsys.readouterr().err


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
    assert data["seed"] is None  # global draws no random number
    rep = data["report"]
    assert abs(rep["ii_eta_area"] - 2 * np.pi) < 1e-6
    assert abs(rep["lambda1"] - 0.5) < 0.5 * 2e-2
    assert abs(rep["gauss_bonnet"] - 4 * np.pi) < 1e-6
    assert rep["bound_rhs"] >= rep["lambda1"]
    names = {c["name"]: c for c in data["checks"]}
    assert names["lambda1_oracle"]["status"] == "PASS"
    assert abs(rep["lambda1"] - rep["lambda1_oracle"]) <= rep["lambda1_oracle_gap"]


def test_boosted_round_sphere_is_named_apart(tmp_path, capsys):
    seen = []
    for extra in ([], ["--u", "-1.25", "0.75", "0", "0"]):
        out = tmp_path / "g.json"
        argv = ["global", "round-sphere", "--grid", "8x16", "--out", str(out), *extra]
        assert main(argv) == EXIT_OK
        heading = capsys.readouterr().out.splitlines()[0]
        seen.append((heading, _load_manifest(out)["report"]["surface"]))
    (plain_heading, plain), (boosted_heading, boosted) = seen
    assert plain == "round-sphere(r=1)" and plain_heading == f"global {plain} on 8x16"
    assert boosted == "round-sphere(r=1, u=(-1.25, 0.75, 0, 0))"
    assert boosted_heading == f"global {boosted} on 8x16"


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


def test_eigensolver_bug_is_not_a_rejection(monkeypatch):
    # Only the solver's LightconeError is bad input; a bug ends in a traceback.
    def broken(*args, **kwargs):
        raise TypeError("eigsh() got an unexpected keyword argument")

    monkeypatch.setattr(spectrum.spla, "eigsh", broken)
    with pytest.raises(TypeError, match="unexpected keyword"):
        main(["global", "round-sphere", "--grid", "8x16"])


def test_eigensolver_nonconvergence_is_rejected(capsys, monkeypatch):
    monkeypatch.setattr(spectrum.spla, "_MAX_ITER", 1)
    assert main(["global", "round-sphere", "--grid", "8x16"]) == EXIT_DEGENERATE
    (line,) = capsys.readouterr().err.splitlines()
    assert re.fullmatch(
        r"rejected: subspace iteration did not converge: "
        r"relative residual \d\.\de[+-]\d\d above 1e-07 after 1 steps", line
    ), line


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


@pytest.mark.parametrize(
    "terms",
    ["[[2, 0, 0.05]]", "[[3, 0, 0.04]]", "[[4, 0, 0.03]]", "[[2, 0, 0.1]]", "[[2, 0, -0.05]]"],
    ids=["l2", "l3", "l4", "l2_large", "l2_ring"],
)
def test_global_floor_passes_on_axisymmetric_spheres(tmp_path, terms):
    # the maximizer of det A sits at a coordinate pole (or on a ring of
    # maxima for the negative amplitude); a search on one chart with
    # definite-only Newton steps stopped at a node with slack below -2e-5
    spec = tmp_path / "spec.json"
    spec.write_text(terms)
    out = tmp_path / "g.json"
    argv = ["global", "perturbed", "--spec", str(spec), "--grid", "64x128", "--out", str(out)]
    assert main(argv) == EXIT_OK
    check = {c["name"]: c for c in _load_manifest(out)["checks"]}["curvature_floor"]
    assert check["status"] == "PASS" and check["residual"] >= -1e-6
    assert check["tolerance"] == -1e-6


@pytest.mark.parametrize("key", ["keta_slack", "floor_slack"])
def test_global_nan_floor_slack_fails(tmp_path, monkeypatch, key):
    floor = SphereGrid.second_curvature_floor

    def nan_floor(self):
        return dict(floor(self), **{key: float("nan")})

    monkeypatch.setattr(SphereGrid, "second_curvature_floor", nan_floor)
    out = tmp_path / "g.json"
    argv = ["global", "round-sphere", "--grid", "8x16", "--out", str(out)]
    assert main(argv) == EXIT_CHECK_FAILED
    check = {c["name"]: c for c in json.loads(out.read_text())["checks"]}["curvature_floor"]
    assert check["status"] == "FAIL"


def test_global_perturbed_reports_the_sigma_route(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 0.02], [3, 1, -0.01], [1, -1, 0.015]]")
    out = tmp_path / "g.json"
    argv = ["global", "perturbed", "--spec", str(spec), "--r", "1.3", "--grid", "32x64",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    data = _load_manifest(out)
    rep = data["report"]
    assert 0.0 <= rep["table_oracle_gap"] <= 1e-9
    check = {c["name"]: c for c in data["checks"]}["table_oracle"]
    assert check["status"] == "PASS" and check["tolerance"] == 1e-9
    assert check["residual"] == rep["table_oracle_gap"]


@pytest.mark.parametrize("observer", [[], ["--u", "-1.25", "0.75", "0", "0"]],
                         ids=["rest", "boosted"])
def test_global_round_sphere_reports_the_sigma_route(tmp_path, observer):
    # A round sphere, boosted or not, is the empty-spec expansion: its table
    # comes from the expansion law, and the JetFrame oracle guards it.
    out = tmp_path / "g.json"
    argv = ["global", "round-sphere", "--r", "1.3", *observer, "--grid", "8x16",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    data = _load_manifest(out)
    check = {c["name"]: c for c in data["checks"]}["table_oracle"]
    assert check["status"] == "PASS" and 0.0 <= check["residual"] <= 1e-12


def test_global_radial_graph_reports_the_table_oracle(tmp_path, monkeypatch):
    # Charted as a radial graph e^sigma (1, w) of constant sigma = log r, the
    # round sphere is a member of the one family: its table comes from
    # sigma, and the JetFrame oracle guards it.
    graph = cli.catalog.graph_over_sphere
    monkeypatch.setattr(cli.catalog, "round_sphere",
                        lambda u=None, r=1.0: graph(lambda x, y, z: x * 0.0 + np.log(r)))
    out = tmp_path / "g.json"
    argv = ["global", "round-sphere", "--r", "1.3", "--grid", "8x16", "--out", str(out)]
    assert main(argv) == EXIT_OK
    data = _load_manifest(out)
    assert data["report"]["surface"] == "radial-graph"
    check = {c["name"]: c for c in data["checks"]}["table_oracle"]
    assert check["status"] == "PASS" and 0.0 <= check["residual"] <= 1e-9
    assert data["report"]["table_oracle_gap"] == check["residual"]


def test_global_manifest_without_the_route_fields_is_invalid(tmp_path):
    # A global report requires table_oracle_gap, a number and never null.
    out = tmp_path / "g.json"
    assert main(["global", "round-sphere", "--grid", "8x16", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    jsonschema.validate(data, SCHEMA)
    data["report"]["table_oracle_gap"] = None
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, SCHEMA)
    del data["report"]["table_oracle_gap"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, SCHEMA)


def test_check_with_a_three_point_where_is_invalid(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "round-sphere", "--grid", "4x8", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    check = data["checks"][0]
    assert len(check["where"]) == 2
    check["where"].append(0.0)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, SCHEMA)


def _shift_sigma_curvature(monkeypatch, delta=1e-8):
    """Moves the curvature that the expansion law predicts by ``delta``."""
    law = transforms.expansion_law

    def shifted(base, s, **kwargs):
        out = law(base, s, **kwargs)
        return out._replace(K=out.K + delta)

    monkeypatch.setattr(transforms, "expansion_law", shifted)


def test_sigma_route_off_by_1e8_fails_both_oracles(tmp_path, capsys, monkeypatch):
    _shift_sigma_curvature(monkeypatch)
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 0.02], [2, 1, -0.01]]")
    out = tmp_path / "g.json"
    argv = ["global", "perturbed", "--spec", str(spec), "--grid", "16x32", "--out", str(out)]
    assert main(argv) == EXIT_CHECK_FAILED
    names = {c["name"]: c for c in _load_manifest(out)["checks"]}
    assert names["table_oracle"]["status"] == "FAIL"
    assert names["table_oracle"]["residual"] > 1e-9

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degree_max": 2, "n_starts": 1, "n_theta": 8, "n_phi": 16,
                               "max_iter": 60}))
    manifest = tmp_path / "m.json"
    rc = main(["search", "--config", str(cfg), "--out", str(tmp_path / "r.json"),
               "--manifest", str(manifest)])
    assert rc == EXIT_CHECK_FAILED
    names = {c["name"]: c for c in _load_manifest(manifest)["checks"]}
    assert names["closed_form_oracle"]["status"] == "FAIL"
    assert "Traceback" not in capsys.readouterr().err


def test_export_with_the_sigma_route_off_writes_nothing(tmp_path, capsys, monkeypatch):
    _shift_sigma_curvature(monkeypatch)
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 0.02], [2, 1, -0.01]]")
    out = tmp_path / "nodes.csv"
    argv = ["export", "perturbed", "--spec", str(spec), "--grid", "16x32", "--out", str(out)]
    assert main(argv) == EXIT_CHECK_FAILED
    assert not out.exists()
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("table_oracle FAIL"), lines
    assert captured.out == ""


@pytest.mark.parametrize("command", ["global", "export"])
def test_spec_overflowing_e4sigma_exits_3_without_warning(tmp_path, capsys, command):
    # (r e^sigma)^2 is finite, so the spec is accepted, but e^{4 sigma}
    # overflows in det g of the expansion law.
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 300]]")
    argv = [command, "perturbed", "--spec", str(spec), "--grid", "8x16",
            "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DEGENERATE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rejected:"), lines


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
    table = integrals.expansion_table

    def inflated(patch, n_theta, n_phi):
        t = table(patch, n_theta, n_phi)
        t["detA"] = t["detA"] * 4.0
        return t

    monkeypatch.setattr(integrals, "expansion_table", inflated)
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
    "out, trace",
    [("run.v2/report", "run.v2/report_trace.csv"), ("./report", "report_trace.csv"),
     ("report.json", "report_trace.csv")],
    ids=["dotted_dir", "dot_slash", "json_ext"],
)
def test_search_default_trace_beside_report(tmp_path, monkeypatch, out, trace):
    # Only the report's own extension is replaced; a dot in a directory
    # name or a leading "./" must not move the trace out of its directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degree_max": 2, "n_starts": 1, "n_theta": 8, "n_phi": 16,
                               "max_iter": 5}))
    assert main(["search", "--config", str(cfg), "--out", out]) == EXIT_OK
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()}
    assert written == {"cfg.json", os.path.normpath(out), trace}


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["search", "--config", "{cfg}", "--out", "{tmp}/r.json", "--trace", "{tmp}/r.json"],
         EXIT_BAD_CONFIG),
        (["search", "--config", "{cfg}", "--out", "{tmp}/r.json", "--manifest", "{tmp}/r.json"],
         EXIT_BAD_CONFIG),
        (["search", "--config", "{cfg}", "--out", "{tmp}/r.json", "--trace", "{tmp}/t.csv",
          "--manifest", "{tmp}/sub/../t.csv"], EXIT_BAD_CONFIG),
        (["search", "--config", "{cfg}", "--out", "{cfg}"], EXIT_BAD_CONFIG),
        (["search", "--config", "{cfg}", "--out", "{tmp}/r.json", "--manifest", "{link}"],
         EXIT_BAD_CONFIG),
        (["verify", "perturbed", "--spec", "{spec}", "--grid", "4x8", "--out", "{spec}"],
         EXIT_DEGENERATE),
        (["global", "perturbed", "--spec", "{spec}", "--grid", "4x8", "--out", "{link}"],
         EXIT_DEGENERATE),
        (["export", "perturbed", "--spec", "{spec}", "--grid", "4x8", "--out", "{spec}"],
         EXIT_DEGENERATE),
        (["search", "--config", "{cfg}", "--out", "{hard}"], EXIT_BAD_CONFIG),
        (["verify", "perturbed", "--spec", "{spec}", "--grid", "4x8", "--out", "{hard}"],
         EXIT_DEGENERATE),
    ],
    ids=["search_out_trace", "search_out_manifest", "search_trace_manifest", "search_config",
         "search_config_symlink", "verify_spec", "global_spec_symlink", "export_spec",
         "search_config_hard_link", "verify_spec_hard_link"],
)
def test_outputs_that_are_one_file_are_rejected(tmp_path, capsys, monkeypatch, argv, code):
    # An output that would overwrite another output or the input is
    # rejected before any work, and every file keeps its bytes.
    def never(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(cli, "_build_surface", never)
    monkeypatch.setattr(search, "search", never)
    (tmp_path / "sub").mkdir()
    cfg, spec = tmp_path / "cfg.json", tmp_path / "spec.json"
    cfg.write_text(json.dumps({"degree_max": 2, "n_starts": 1, "n_theta": 8, "n_phi": 16,
                               "max_iter": 5}))
    spec.write_text("[[2, 0, 0.02]]")
    link, hard = tmp_path / "link.json", tmp_path / "hard.json"
    link.symlink_to(cfg if argv[0] == "search" else spec)
    os.link(cfg if argv[0] == "search" else spec, hard)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = [a.format(cfg=cfg, spec=spec, link=link, hard=hard, tmp=tmp_path) for a in argv]
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rejected: --"), lines
    assert "same file" in lines[0]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


class _FullDisk(io.StringIO):
    """A file on a full disk: it opens, and every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "argv",
    [["verify", "round-sphere", "--grid", "4x8", "--out", "{tmp}/m.json"],
     ["search", "--config", "{tmp}/cfg.json", "--out", "{tmp}/r.json"],
     ["export", "round-sphere", "--grid", "4x8", "--out", "{tmp}/t.csv"]],
    ids=["verify_manifest", "search_report", "export_table"],
)
def test_failed_write_exits_3(tmp_path, capsys, monkeypatch, argv):
    # Opening succeeds and writing fails, as on a full disk.
    def full_disk(path, mode="r", **kwargs):
        if "w" not in mode:
            return open(path, mode, **kwargs)
        open(path, mode, **kwargs).close()
        return _FullDisk()

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degree_max": 2, "n_starts": 1, "n_theta": 8, "n_phi": 16,
                               "max_iter": 5}))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == EXIT_DEGENERATE
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"cannot write {argv[-1]}: [Errno 28] No space left on device: '{argv[-1]}'"]


def test_undefined_gauss_map_exits_3(capsys, monkeypatch):
    def undefined(frame):
        raise LightconeError("normal has zero time component")

    monkeypatch.setattr(cli, "gauss_maps", undefined)
    assert main(["verify", "round-sphere", "--grid", "4x8"]) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert "rejected: normal has zero time component" in err
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


def test_search_nan_oracle_diff_on_a_later_start_fails(tmp_path, capsys, monkeypatch):
    # Python's max drops a NaN that does not come first; the check must not.
    diffs = iter([0.0, np.nan])
    monkeypatch.setattr(search, "_oracle_difference", lambda fast, oracle: next(diffs))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degree_max": 2, "n_starts": 2, "n_theta": 8, "n_phi": 16,
                               "max_iter": 60}))
    out = tmp_path / "m.json"
    rc = main(["search", "--config", str(cfg), "--out", str(tmp_path / "r.json"),
               "--manifest", str(out)])
    assert rc == EXIT_CHECK_FAILED
    names = {c["name"]: c for c in _load_manifest(out)["checks"]}
    assert names["closed_form_oracle"]["status"] == "FAIL"
    assert np.isnan(names["closed_form_oracle"]["residual"])
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
        # Scale, gauge and thresholds are constants; setting one, even to
        # its value, is an unknown key.
        '{"radius": 1.0}',
        '{"freeze_degree0": true}',
        '{"freeze_degree1": true}',
        '{"umbilic_tol": 1e-5}',
        '{"candidate_gap": 1e-3}',
        '{"barrier_floor": 0.05}',
        '{"barrier_weight": 1e6}',
    ],
    ids=["unknown_key", "n_starts_0", "degree_max_5", "n_theta_0", "amplitude_nan",
         "amplitude_inf", "no_free_pairs", "n_theta_float", "seed_negative", "n_starts_bool",
         "freeze_str", "radius_r4_overflows", "radius_r4_underflows", "removed_radius",
         "removed_freeze_degree0", "removed_freeze_degree1", "removed_umbilic_tol",
         "removed_candidate_gap", "removed_barrier_floor", "removed_barrier_weight"],
)
def test_search_unknown_key_rejected(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["search", "--config", str(bad)]) == EXIT_BAD_CONFIG
    (key,) = json.loads(text)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and key in err[0], err


def test_search_config_names_every_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"radius": 1.0, "n_starts": 2, "freeze_degree1": true}')
    assert main(["search", "--config", str(bad)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == ["unknown config keys: radius, freeze_degree1"]


@pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["no_seed", "seed"])
@pytest.mark.parametrize("text", ["[1, 2]", '"settings"', "null"], ids=["array", "string", "null"])
def test_search_config_must_be_an_object(tmp_path, capsys, text, seed):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["search", "--config", str(bad), *seed]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "must be a JSON object" in err[0], err


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


def _csv_writer_table(th, ph, table, coordinates=("theta", "phi")):
    """The export table as the csv module writes it, row by row."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([*coordinates, "K", "Keta", "d", "gap_low", "gap_high", "psi0"])
    for k in range(th.size):
        w.writerow([repr(float(x[k])) for x in (
            th, ph, table["K"], table["K_eta"], table["detA"], table["gap_low"],
            table["gap_high"], table["psi0"])])
    return buf.getvalue()


def test_export_matches_the_csv_module_on_a_round_sphere(tmp_path):
    out = tmp_path / "nodes.csv"
    argv = ["export", "round-sphere", "--r", "1.3", "--grid", "8x16", "--out", str(out)]
    assert main(argv) == EXIT_OK
    grid = SphereGrid(cli.catalog.round_sphere(r=1.3), 8, 16)
    assert out.read_bytes() == _csv_writer_table(grid.TH, grid.PH, grid.table).encode()


def test_export_matches_the_csv_module_where_keta_is_nan(tmp_path):
    # The paraboloid's II vanishes, so every K_eta is NaN.
    out = tmp_path / "nodes.csv"
    assert main(["export", "paraboloid", "--grid", "4x6", "--out", str(out)]) == EXIT_OK
    patch = cli.catalog.paraboloid_graph()
    u, v = patch.grid_points((4, 6))
    table = integrals.geometry_table(patch, u, v)
    assert np.all(np.isnan(table["K_eta"]))
    assert out.read_bytes() == _csv_writer_table(u, v, table, ("u", "v")).encode()


def test_export_header_contract_for_plane_charts(tmp_path):
    # The open charts' coordinates are (u, v) on a rectangle, not (theta, phi).
    for surface in ("cylinder", "paraboloid"):
        out = tmp_path / f"{surface}.csv"
        rc = main(["export", surface, "--grid", "6x12", "--out", str(out)])
        assert rc == EXIT_OK
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u", "v", "K", "Keta", "d", "gap_low", "gap_high", "psi0"]
        assert len(rows) == 1 + 6 * 12


@pytest.mark.parametrize("grid", ["64by128", "0x0", "0x5", "-1x8"])
def test_grid_parser_rejects_garbage(capsys, grid):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "round-sphere", "--grid", grid])
    assert exc.value.code == EXIT_DEGENERATE
    assert "grid must look like 64x128" in capsys.readouterr().err


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
        (["verify", "round-sphere", "--grid", "-1x4"], EXIT_DEGENERATE),
        # global and export draw no random number
        (["global", "round-sphere", "--grid", "8x16", "--seed", "5"], EXIT_DEGENERATE),
        (["export", "round-sphere", "--grid", "8x16", "--seed", "5", "--out", "t.csv"],
         EXIT_DEGENERATE),
        # tolerances are pinned: there is no option to loosen one
        (["verify", "round-sphere", "--grid", "4x8", "--tol", "codazzi=1e-30"], EXIT_DEGENERATE),
    ],
)
def test_usage_errors_exit_apart_from_failed_checks(capsys, argv, code):
    # Code 2 is a failed check; a usage error is bad input: 3, or 4 for search.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "global", "export"])
@pytest.mark.parametrize(
    "options, reason",
    [
        (["perturbed", "--spec", "{spec}", "--u", "-1.25", "0.75", "0", "0"],
         "perturbed takes no --u"),
        (["round-sphere", "--spec", "/nonexistent.json"], "round-sphere takes no --spec"),
        (["paraboloid", "--r", "5"], "paraboloid takes no --r"),
        (["cylinder", "--r", "2", "--u", "-1", "0", "0", "0"], "cylinder takes no --r or --u"),
        (["perturbed", "--u", "-1", "0", "0", "0"], "perturbed takes no --u"),
    ],
)
def test_options_the_surface_ignores_are_rejected(tmp_path, capsys, command, options, reason):
    # Beside the usage errors: a surface option that the selected surface
    # would ignore is bad input, or the manifest would echo a setting never applied.
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 0.02]]")
    out = tmp_path / "out"
    argv = [command, *(a.format(spec=spec) for a in options), "--grid", "8x16", "--out", str(out)]
    assert main(argv) == EXIT_DEGENERATE
    assert capsys.readouterr().err.splitlines() == [f"rejected: {reason}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "u", [["-1.25e0", "0", "0", "0.75"], ["-1.25", "0", "0", "-7.5e-1"]],
    ids=["first_exponent", "last_exponent"],
)
def test_observer_in_exponent_notation(tmp_path, u):
    # argparse alone takes a negative number in exponent notation for an option.
    out = tmp_path / "m.json"
    argv = ["verify", "round-sphere", "--grid", "4x8", "--u", *u, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert _load_manifest(out)["config"]["u"] == [float(x) for x in u]


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["search", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out


# -- start-up cost -------------------------------------------------------------
#
# No command needs scipy: the spectrum's eigensolvers are numpy code, and
# neither a command nor the import of the command line may load any of it.

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


def test_global_loads_no_scipy(tmp_path):
    code = (
        "from lightcone.cli import main\n"
        "assert main(['global', 'round-sphere', '--grid', '8x16']) == 0"
    )
    assert _scipy_modules_after(code, tmp_path) == []
