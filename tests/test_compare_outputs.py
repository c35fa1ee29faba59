"""The differ of ``tools/compare_outputs.py`` names every field that moved.

A change that adds or drops a manifest field outside ``checks`` must show
up by path, or a byte-identity run would report the file and no reason.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(tmp_path, before, after):
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, data in zip(paths, (before, after)):
        path.write_text(json.dumps(data))
    return paths


def test_moved_fields_names_added_dropped_and_moved_leaves(tmp_path):
    before = {"report": {"route": "sigma", "area": 1.0, "n": 2},
              "results": [{"x": 1}, {"x": 2}]}
    after = {"report": {"area": 1.5, "n": 2, "gap": 0.0}, "results": [{"x": 1}]}
    lines = _tool().moved_fields(_files(tmp_path, before, after))
    assert lines == [
        'report.route: "sigma" -> (absent)',
        "report.area: 1 of 1 moved, largest relative move 0.333",
        "results[*].x: 2 values -> 1",
        "report.gap: (absent) -> 0.0",
    ]
    assert _tool().moved_fields(_files(tmp_path, before, before)) == []


def test_manifest_fields_outside_checks_are_named(tmp_path):
    check = {"name": "a", "status": "PASS", "residual": 0.0}
    before = {"checks": [check], "wall_time_s": 1.0, "report": {"route": "sigma"}}
    after = {"checks": [check], "wall_time_s": 2.0, "report": {}}
    paths = _files(tmp_path, before, after)
    tool = _tool()
    assert tool.moved_checks(paths) == []
    assert tool.moved_fields(paths, drop=("checks", "wall_time_s")) == [
        'report.route: "sigma" -> (absent)'
    ]
