"""The check table of ``lightcone.cli``: its order, and one defect that fails each row.

Every defect drives its check past its tolerance on a boosted round sphere
where the check passes without it.  A ``verify`` defect edits the cached
fields of every frame built as ``surfaces.JetFrame``, as ``surfaces._sweep``
builds them; a node defect edits one node of each, and its check must name
that node as ``where``.  Group rows run their group
function on 4x8 grid points; the other ``verify`` rows run
``_verify_checks`` on a 4x8 grid.  A ``global`` defect edits the parts that
``cmd_global`` reads from a 16x32 grid and the spectrum, computed once.
"""

import copy
import functools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from lightcone import cli, spectrum, surfaces
from lightcone.integrals import SphereGrid

GRID = (4, 8)
ARGS = SimpleNamespace(
    surface="round-sphere", r=1.0, u=[-1.25, 0.75, 0.0, 0.0], spec=None, grid=GRID, seed=0
)
E0 = np.array([1.0, 0.0, 0.0, 0.0])


def _one_frame(residuals):
    """The group function of one frame's residuals at the patch's GRID points."""
    def group(patch):
        points = patch.grid_points(GRID)
        return residuals(surfaces.JetFrame(patch, *points)), points
    return group


VERIFY_GROUPS = {
    "frame": _one_frame(cli._frame_residuals),
    "definite": _one_frame(cli._definite_residuals),
    "conjugate": lambda patch: cli._conjugate_residuals(patch, GRID),
    "expansion": lambda patch: cli._expansion_residuals(patch, 0),
}


def _rows(group):
    return [name for name, (_, in_group, _) in cli.CHECKS.items() if in_group == group]


def _entry(shape, index, size):
    """Zeros of the given shape, with ``size`` at ``index``."""
    out = np.zeros(shape)
    out[index] = size
    return out


#: Check name -> defect.  A verify defect takes a frame, a global one the
#: parts of ``_run_global``.
DEFECTS = {
    "on_cone": lambda f: vars(f).update(psi_val=f.psi_val + 1e-6 * E0),
    "normal_constraints": lambda f: vars(f).update(eta_val=f.eta_val * (1.0 + 1e-8)),
    "position_weingarten": lambda f: vars(f).update(psi_val=f.psi_val + 1e-8 * f.psi_u.values),
    "weingarten_agreement": lambda f: vars(f).update(A_val=f.A_val + 1e-7),
    "normal_parallel": lambda f: vars(f).update(gi_val=f.gi_val + 1e-7 * np.eye(2)),
    "second_form_symmetry": lambda f: vars(f).update(
        II_val=f.II_val + _entry((2, 2), (0, 1), 1e-10)
    ),
    "shape_self_adjoint": lambda f: vars(f).update(A_val=f.A_val + _entry((2, 2), (0, 1), 1e-8)),
    "curvature_trace": lambda f: vars(f).update(K_brioschi=f.K_brioschi + 1e-7),
    "second_form_inner": lambda f: vars(f).update(iivec=f.iivec * (1.0 + 1e-8)),
    "gap_floor": lambda f: vars(f).update(gap_low=f.gap_low - 1e-8),
    "gap_match": lambda f: vars(f).update(gap_high=f.gap_high + 1e-7),
    "codazzi": lambda f: vars(f).update(
        nabla_A=f.nabla_A + _entry((2, 2, 2), (0, slice(None), 1), 1e-6)
    ),
    "nondegeneracy": lambda f: vars(f).update(detA_val=0.0 * f.detA_val),
    "curvature_relation": lambda f: vars(f).update(K_eta=f.K_eta + 1e-5),
    "trace_gradient": lambda f: vars(f).update(detA_grad=f.detA_grad + 1e-5),
    "lowered_symmetry": lambda f: vars(f).update(
        difference=f.difference + _entry((2, 2, 2), (0, 1, 0), 1e-6)
    ),
    "round_keta": lambda f: vars(f).update(K_eta=f.K_eta + 1e-7),
    "conjugate_weingarten": lambda f: vars(f).update(A_val=f.A_val * (1.0 + 1e-6)),
    "conjugate_second_form": lambda f: vars(f).update(II_val=f.II_val + 1e-6),
    "conjugate_curvature": lambda f: vars(f).update(K_val=f.K_val + 1e-6),
    "third_form": lambda f: vars(f).update(g_val=f.g_val * (1.0 + 1e-6)),
    "double_conjugate": lambda f: vars(f).update(psi_val=f.psi_val + 1e-8 * E0),
    "expansion_weingarten": lambda f: vars(f).update(A_val=f.A_val + 1e-6),
    "expansion_second_form": lambda f: vars(f).update(II_val=f.II_val + 1e-6),
    "expansion_curvature": lambda f: vars(f).update(K_val=f.K_val + 1e-6),
    "expansion_trace": lambda f: vars(f).update(A_val=f.A_val + 1e-7 * np.eye(2)),
    "expansion_normal": lambda f: vars(f).update(eta_val=f.eta_val + 1e-6 * f.psi_val),
    "expansion_pairing": lambda f: vars(f).update(eta_val=f.eta_val * (1.0 + 1e-8)),
    "expansion_metric": lambda f: vars(f).update(g_val=f.g_val * (1.0 + 1e-8)),
    "gauss_maps": lambda f: vars(f).update(eta_val=f.eta_val + 1e-8 * E0),
    "umbilic_point": lambda f: vars(f).update(gap_low=f.gap_low + 1e-5),
    "table_oracle": lambda p: vars(p).update(oracle_gap=1e-8),
    "gauss_bonnet_induced": lambda p: p.table.update(K=p.table["K"] + 1e-5),
    "gauss_bonnet_second": lambda p: p.table.update(K_eta=p.table["K_eta"] + 1e-5),
    "second_form_area_bound": lambda p: p.table.update(detA=p.table["detA"] * (1.0 + 1e-5)),
    "round_second_form_area": lambda p: p.table.update(detA=p.table["detA"] * (1.0 - 1e-5)),
    "curvature_floor": lambda p: p.floor.update(keta_slack=-1e-5),
    "eigenvalue_bound": lambda p: vars(p.lam).update(value=1.1 * p.lam.reilly_rhs),
    "lambda1_oracle": lambda p: vars(p.lam).update(
        oracle_gap=0.5 * abs(p.lam.value - p.lam.oracle)
    ),
    "round_lambda1": lambda p: vars(p.lam).update(value=0.97 * p.lam.value),
}


def _frames_with(defect, monkeypatch):
    """Make every ``surfaces.JetFrame`` that the sweep or a group builds carry the defect."""
    build = surfaces.JetFrame

    def defective(*args):
        frame = build(*args)
        if defect is not None:
            defect(frame)
        return frame

    monkeypatch.setattr(surfaces, "JetFrame", defective)


def _umbilic_at_a_point(patch, theta, phi, gap_low):
    """``umbilic_point_search`` on a round sphere, where every point is umbilic."""
    point = surfaces.JetFrame(patch, 1.0, 0.5)
    return 1.0, 0.5, float(point.gap_low), float(point.gap_high)


def _run_verify(group, defect, monkeypatch):
    _frames_with(defect, monkeypatch)
    manifest = cli.Manifest("verify", {})
    if group == "verify":
        monkeypatch.setattr(cli, "umbilic_point_search", _umbilic_at_a_point)
        cli._verify_checks(manifest, ARGS)
    else:
        patch = cli._build_surface(ARGS)
        cli._check_group(manifest, group, lambda: VERIFY_GROUPS[group](patch))
    return manifest.checks


@functools.cache
def _global_parts():
    grid = SphereGrid(cli._build_surface(ARGS), 16, 32)
    return grid, spectrum.lambda1_estimate(grid), grid.second_curvature_floor()


def _run_global(defect, monkeypatch, tmp_path):
    base, lam, floor = _global_parts()
    grid = copy.copy(base)
    vars(grid).pop("ii_weights", None)  # recomputed from the table below
    grid.table = dict(base.table)
    parts = SimpleNamespace(
        table=grid.table, lam=copy.copy(lam), floor=dict(floor), oracle_gap=0.0
    )
    if defect is not None:
        defect(parts)
    grid.second_curvature_floor = lambda: parts.floor
    grid.oracle_gap = parts.oracle_gap
    monkeypatch.setattr(cli, "SphereGrid", lambda *args: grid)
    monkeypatch.setattr(spectrum, "lambda1_estimate", lambda grid: parts.lam)
    out = tmp_path / "m.json"
    cli.main(["global", "round-sphere", "--u", *map(str, ARGS.u), "--grid", "16x32",
              "--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    assert "table_oracle" in [c["name"] for c in checks]
    return checks


def _run(group, defect, monkeypatch, tmp_path):
    if group == "global":
        return _run_global(defect, monkeypatch, tmp_path)
    return _run_verify(group, defect, monkeypatch)


def test_every_check_has_a_defect():
    assert list(DEFECTS) == list(cli.CHECKS)


@pytest.mark.parametrize("group", sorted({group for _, group, _ in cli.CHECKS.values()}))
def test_checks_pass_without_a_defect(group, monkeypatch, tmp_path):
    checks = _run(group, None, monkeypatch, tmp_path)
    assert [c["status"] for c in checks] == ["PASS"] * len(checks)
    names = [c["name"] for c in checks]
    assert set(_rows(group)) <= set(names)
    if group == "global":
        assert names == _rows("global")


@pytest.mark.parametrize("name", list(cli.CHECKS))
def test_defect_fails_its_check(name, monkeypatch, tmp_path):
    tol, group, rule = cli.CHECKS[name]
    checks = _run(group, DEFECTS[name], monkeypatch, tmp_path)
    (check,) = (c for c in checks if c["name"] == name)
    assert check["status"] != "PASS", check
    assert check["tolerance"] == (-tol if rule == "slack" else tol)


#: One check of each verify group, and nondegeneracy: the group that runs
#: it, the frame field that a node defect edits and the change it makes.
NODE_DEFECTS = {
    "curvature_trace": ("frame", "K_brioschi", lambda x: x + 1e-7),
    "curvature_relation": ("definite", "K_eta", lambda x: x + 1e-5),
    "conjugate_curvature": ("conjugate", "K_val", lambda x: x + 1e-6),
    "expansion_curvature": ("expansion", "K_val", lambda x: x + 1e-6),
    "nondegeneracy": ("verify", "detA_val", lambda x: 0.0),
}
NODE = 5


def _node_defect(field, change, nodes):
    """Change ``field`` at node NODE of each frame that has it; list the node's (u, v)."""

    def defect(f):
        if np.size(f.u) > NODE:
            nodes.append([float(f.u[NODE]), float(f.v[NODE])])
            x = np.array(getattr(f, field))
            x[NODE] = change(x[NODE])
            vars(f)[field] = x

    return defect


@pytest.mark.parametrize("nan", [False, True], ids=["shift", "nan"])
@pytest.mark.parametrize("name", list(NODE_DEFECTS))
def test_node_defect_names_its_node(name, nan, monkeypatch):
    group, field, change = NODE_DEFECTS[name]
    nodes = []
    defect = _node_defect(field, (lambda x: np.nan) if nan else change, nodes)
    (check,) = (c for c in _run_verify(group, defect, monkeypatch) if c["name"] == name)
    assert check["status"] == ("SKIP" if name == "nondegeneracy" else "FAIL"), check
    assert check["where"] == nodes[0]  # the first frame built


@pytest.mark.parametrize("group", list(VERIFY_GROUPS))
def test_group_function_returns_its_rows_in_order(group):
    residuals, (u, v) = VERIFY_GROUPS[group](cli._build_surface(ARGS))
    assert list(residuals) == _rows(group)
    assert u.shape == v.shape == (u.size,)
    assert all(np.shape(r) == u.shape for r in residuals.values())
    assert {rule for _, _, rule in cli.CHECKS.values()} <= {"abs", "excess", "slack", "floor"}


@pytest.mark.parametrize("surface", ["round-sphere", "cylinder", "paraboloid", "perturbed"])
def test_verify_manifest_follows_the_table(surface, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("[[2, 0, 0.04], [3, 1, 0.02]]")
    out = tmp_path / "m.json"
    spec_args = ["--spec", str(spec)] if surface == "perturbed" else []
    cli.main(["verify", surface, *spec_args, "--grid", "4x8", "--out", str(out)])
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    rows = [name for name, (_, group, _) in cli.CHECKS.items() if group != "global"]
    if surface != "round-sphere":
        rows.remove("round_keta")  # gated to round spheres
    assert names == rows
