"""Each output check accepts a real `lightcone` output and rejects a corrupted one.

    python3 -m pytest benchmarks/test_checks.py -q

The outputs come from the program itself at small grids, so the checks are
exercised on the formats they read in the benchmark.
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from lightcone import cli  # noqa: E402

R = 1.5
TERMS = [[2, 0, 0.02], [2, -1, -0.01], [2, 2, 0.005]]
SEARCH = dict(degree_max=2, amplitude_bound=0.1, n_theta=10, n_phi=20, max_iter=300,
              n_restarts=0, var_tol=1e-8, n_starts=1, seed=0)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    d = tmp_path_factory.mktemp("outputs")
    spec = d / "spec.json"
    spec.write_text(json.dumps(TERMS))
    config = d / "search.json"
    config.write_text(json.dumps(SEARCH))
    runs = [
        ["verify", "round-sphere", "--r", str(R), "--grid", "8x16", "--out", str(d / "verify.json")],
        ["global", "round-sphere", "--r", str(R), "--grid", "32x64", "--out", str(d / "global.json")],
        ["export", "round-sphere", "--r", str(R), "--grid", "16x32", "--out", str(d / "round.csv")],
        ["export", "perturbed", "--r", str(R), "--spec", str(spec), "--grid", "24x48",
         "--out", str(d / "perturbed.csv")],
        ["search", "--config", str(config), "--out", str(d / "report.json"),
         "--trace", str(d / "trace.csv")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    return {
        "verify": json.loads((d / "verify.json").read_text()),
        "global": json.loads((d / "global.json").read_text()),
        "round": (d / "round.csv").read_text(),
        "perturbed": (d / "perturbed.csv").read_text(),
        "report": json.loads((d / "report.json").read_text()),
        "trace": (d / "trace.csv").read_text(),
    }


def _verify(manifest):
    return checks.verify_manifest(manifest, "round-sphere", (8, 16))


def _export(text, terms=TERMS, grid=(24, 48)):
    return checks.export_table(text, grid, R, terms)


def _search(report, trace):
    return checks.search_report(report, trace, SEARCH)


def _set_check(manifest, name, **fields):
    bad = copy.deepcopy(manifest)
    next(c for c in bad["checks"] if c["name"] == name).update(fields)
    return bad


def test_real_outputs_pass(out):
    assert _verify(out["verify"]) == []
    assert checks.global_manifest(out["global"], R) == []
    assert _export(out["round"], terms=[], grid=(16, 32)) == []
    assert _export(out["perturbed"]) == []
    assert _search(out["report"], out["trace"]) == []


@pytest.mark.parametrize("name", ["codazzi", "round_keta", "gap_floor"])
def test_nan_residual_rejected(out, name):
    assert _verify(_set_check(out["verify"], name, residual=math.nan))


def test_nan_residual_rejected_in_global(out):
    bad = _set_check(out["global"], "gauss_bonnet_second", residual=math.nan)
    assert checks.global_manifest(bad, R)


@pytest.mark.parametrize("name", ["umbilic_point", "round_keta", "curvature_relation"])
def test_missing_check_rejected(out, name):
    bad = copy.deepcopy(out["verify"])
    bad["checks"] = [c for c in bad["checks"] if c["name"] != name]
    assert any("missing" in p for p in _verify(bad))


def test_skipped_check_rejected(out):
    bad = _set_check(out["verify"], "curvature_relation", status="SKIP", residual=None,
                     tolerance=None)
    assert _verify(bad)


def test_loosened_tolerance_rejected(out):
    bad = _set_check(out["verify"], "curvature_relation", residual=1e-3, tolerance=1e-2)
    assert _verify(bad)


def _perturb_column(text, column, row, factor):
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[column] = repr(float(fields[column]) * factor)
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_perturbed_k_column_rejected(out):
    k = checks.EXPORT_HEADER.index("K")
    assert _export(_perturb_column(out["perturbed"], k, 100, 1.0 + 1e-7))


def test_perturbed_keta_column_rejected(out):
    keta = checks.EXPORT_HEADER.index("Keta")
    assert _export(_perturb_column(out["perturbed"], keta, 500, 1.01))


def test_round_table_is_not_a_perturbed_one(out):
    assert _export(out["round"], grid=(16, 32))


def test_converged_start_below_two_rejected(out):
    bad = copy.deepcopy(out["report"])
    bad["results"][0].update(converged_variance=True, mean_keta=1.99)
    assert _search(bad, out["trace"])


def test_umbilical_away_from_two_rejected(out):
    bad = copy.deepcopy(out["report"])
    bad["results"][0].update(classification="umbilical", mean_keta=2.002)
    assert _search(bad, out["trace"])


def test_demoted_without_reason_rejected(out):
    bad = copy.deepcopy(out["report"])
    bad["results"][0].update(classification="demoted", demotion_reason="")
    assert _search(bad, out["trace"])


def test_changed_trace_byte_rejected(out):
    first = out["trace"].encode()
    again = bytearray(first)
    again[len(again) // 2] ^= 1
    assert checks.identical("trace.csv", first, bytes(again))
    assert checks.identical("trace.csv", first, first) == []


def test_reordered_trace_rejected(out):
    lines = out["trace"].splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    assert _search(out["report"], "\n".join(lines) + "\n")


def _raises(argv):
    raise RuntimeError("broken command")


def _exits(argv):
    raise SystemExit(3)


@pytest.mark.parametrize("main, code", [(lambda argv: 2, 2), (_raises, 1), (_exits, 3)])
def test_failing_invocation_is_incorrect(tmp_path, main, code):
    import run
    from workloads import Invocation

    # the output check alone would pass: only the exit code marks the failure
    inv = Invocation("stub", lambda d: [], lambda d: [])
    one_pass = run.run_pass(main, [inv], tmp_path / "pass0", None)
    [(label, got, seconds, problems)] = one_pass[1]
    assert got == code
    assert f"exit {code}" in problems
    assert run.tally([one_pass]) == (1, 1)  # failed, so the run is not correct


def test_passing_invocation_has_no_problems(tmp_path):
    import run
    from workloads import Invocation

    inv = Invocation("stub", lambda d: [], lambda d: [])
    one_pass = run.run_pass(lambda argv: 0, [inv], tmp_path / "pass0", None)
    [(label, got, seconds, problems)] = one_pass[1]
    assert (got, problems) == (0, [])
    assert run.tally([one_pass]) == (1, 0)
