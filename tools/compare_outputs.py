#!/usr/bin/env python3
"""Run the byte-identity list of `lightcone` invocations on two source trees.

    python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository; its `src` is the only entry of
PYTHONPATH, and every run sets OPENBLAS_NUM_THREADS=1.  The spec and config
files are written once, into one temporary directory, so the paths that
manifests echo agree.  Each invocation runs in a fresh directory per root
with relative output paths, and the two runs must agree in exit code,
stdout, stderr and every output file: byte for byte, except a JSON
manifest, which is compared without its `wall_time_s`.  One line is
printed per invocation, and under it, for each output that differs:
- a manifest: one line per check whose status, residual or detail moved,
  as parent -> change, then one line per other field that moved, was added
  or was dropped, in the form of another JSON file;
- a CSV: one line per column with moved cells, how many moved and the
  largest relative move;
- another JSON file: one line per field with moved values, list indices
  written [*], in the same form, and one per field that one side lacks or
  holds a different number of times, as `path: parent -> change` with
  `(absent)` for the missing side.
The exit code is 1 if any invocation differs.  Standard library only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: The perturbed-sphere specs: file name -> (terms, extra arguments).
SPECS = {
    "two_terms.json": ([[2, -2, 0.03], [3, 1, 0.02]], ["--r", "1.1"]),
    "degree_four.json": ([[2, 0, 0.08], [4, 3, 0.03]], []),
    "axisymmetric.json": ([[3, 0, 0.04]], []),
    "empty.json": ([], []),
}
#: The search configuration of acceptance criterion 9.
CRITERION_9 = {"degree_max": 2, "amplitude_bound": 0.1, "n_theta": 10, "n_phi": 20,
               "max_iter": 300, "n_restarts": 0, "var_tol": 1e-8, "seed": 0, "n_starts": 20}
#: A search whose objective runs on 1152 nodes, more than ``jets._WIDE``, so
#: its products take the row kernel.
WIDE_SEARCH = dict(CRITERION_9, n_theta=24, n_phi=48, n_starts=2)
#: A spec whose II is indefinite somewhere, so verify skips its definite group.
INDEFINITE = [[4, 0, 0.0676]]
ROUND = ["round-sphere", "--r", "1.3"]
BOOSTED = ["round-sphere", "--u", "-1.25", "0.75", "0", "0"]
FINE = ["--grid", "64x128"]


def invocations(inputs):
    """(label, argv, manifests, other outputs) of every run, outputs relative to its directory."""
    perturbed = [(name, ["perturbed", "--spec", str(inputs / name)] + extra)
                 for name, (_, extra) in SPECS.items()]
    runs = []
    for grid in ("16x32", "64x128"):
        for name, surface in (("round", ROUND), ("boosted", BOOSTED),
                              ("cylinder", ["cylinder"]), ("paraboloid", ["paraboloid"])):
            runs.append((f"verify {name} {grid}", ["verify", *surface, "--grid", grid,
                                                   "--out", "m.json"], ["m.json"], []))
    for name, surface in perturbed:
        runs.append((f"verify {name}", ["verify", *surface, *FINE, "--out", "m.json"],
                     ["m.json"], []))
    # verify's umbilic search starts from the gap values of verify's sweep at every grid.
    for name, surface in perturbed:
        if name in ("two_terms.json", "degree_four.json"):
            runs.append((f"verify {name} 32x64", ["verify", *surface, "--grid", "32x64",
                                                  "--out", "m.json"], ["m.json"], []))
    # The sweep's edge paths: a guard that rejects, whose stderr line gives
    # figures over the block that raises, and blocks whose II is definite in
    # some only.
    runs.append(("verify round r=1e4 (rejected)",
                 ["verify", "round-sphere", "--r", "1e4", *FINE, "--out", "m.json"],
                 ["m.json"], []))
    runs.append(("verify indefinite.json", ["verify", "perturbed", "--spec",
                                            str(inputs / "indefinite.json"), *FINE,
                                            "--out", "m.json"], ["m.json"], []))
    for name, surface in [("round", ROUND), ("boosted", BOOSTED)] + perturbed:
        runs.append((f"global {name}", ["global", *surface, *FINE, "--out", "m.json"],
                     ["m.json"], []))
    for name, surface in [("round", ROUND)] + perturbed:
        runs.append((f"export {name}", ["export", *surface, *FINE, "--out", "t.csv"],
                     [], ["t.csv"]))
    # The open surfaces take the geometry_table path of export: one frame
    # at 16x32, four of 2048 points at 64x128.
    for name in ("cylinder", "paraboloid"):
        for grid in ("16x32", "64x128"):
            runs.append((f"export {name} {grid}", ["export", name, "--grid", grid,
                                                   "--out", "t.csv"], [], ["t.csv"]))
    for label, name in (("criterion-9", "criterion_9.json"), ("wide 24x48", "wide.json")):
        runs.append((f"search {label}",
                     ["search", "--config", str(inputs / name), "--out", "report.json",
                      "--trace", "trace.csv", "--manifest", "m.json"],
                     ["m.json"], ["report.json", "trace.csv"]))
    return runs


def run(root, argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"),
               OPENBLAS_NUM_THREADS="1")
    cwd.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "lightcone.cli", *argv], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def _manifest_text(path):
    data = json.loads(path.read_text())
    data.pop("wall_time_s", None)
    return json.dumps(data, indent=2)


def differences(dirs, results, manifests, others):
    """Names of what differs between the two runs of one invocation."""
    diff = [what for what, a, b in zip(("exit code", "stdout", "stderr"), *results) if a != b]
    for name in manifests + others:
        paths = [d / name for d in dirs]
        present = [p.exists() for p in paths]
        if present[0] != present[1]:
            diff.append(name)
        elif present[0]:
            read = _manifest_text if name in manifests else Path.read_bytes
            if read(paths[0]) != read(paths[1]):
                diff.append(name)
    return diff


def moved_checks(paths):
    """`name key: parent -> change` for each check entry that moved between two manifests."""
    before, after = ({c["name"]: c for c in json.loads(p.read_text())["checks"]}
                     if p.exists() else {} for p in paths)
    lines = []
    for name in dict.fromkeys([*before, *after]):
        a, b = before.get(name, {}), after.get(name, {})
        for key in ("status", "residual", "detail"):
            if json.dumps(a.get(key)) != json.dumps(b.get(key)):
                lines.append(f"{name} {key}: {a.get(key)!r} -> {b.get(key)!r}")
    return lines


def _relative_move(a, b):
    """|y - x| / max(|x|, |y|) of two number texts x, y; inf if either is not finite.

    None if either text is not a number; 0 if they differ only in how they
    write the same value.
    """
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(y - x) / max(abs(x), abs(y))


def moved_summary(name, pairs):
    """`name: k of n moved, ...` over (parent, change) text pairs, or None if none moved."""
    moved = [(a, b) for a, b in pairs if a != b]
    if not moved:
        return None
    line = f"{name}: {len(moved)} of {len(pairs)} moved"
    rel = [_relative_move(a, b) for a, b in moved]
    if None in rel:
        a, b = moved[rel.index(None)]
        return f"{line}, e.g. {a} -> {b}"
    return f"{line}, largest relative move {max(rel):.3g}"


def moved_columns(paths):
    """One line per column with moved cells between two CSV files, after any header change."""
    (head_a, *rows_a), (head_b, *rows_b) = (list(csv.reader(p.read_text().splitlines()))
                                            for p in paths)
    lines = [] if head_a == head_b else [f"header: {','.join(head_a)} -> {','.join(head_b)}"]
    if len(rows_a) != len(rows_b) or len(head_a) != len(head_b):
        return lines + [f"shape: {len(rows_a)}x{len(head_a)} -> {len(rows_b)}x{len(head_b)}"]
    for k, name in enumerate(head_b):
        lines.append(moved_summary(name, [(a[k], b[k]) for a, b in zip(rows_a, rows_b)]))
    return [line for line in lines if line]


def _leaves(data, path=""):
    """(path, JSON text) of every leaf of a JSON value, list indices written [*]."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(data, list):
        for value in data:
            yield from _leaves(value, f"{path}[*]")
    else:
        yield path, json.dumps(data)


def _shown(values):
    """A field's values on one side: the value if one, their count if more, `(absent)` if none."""
    if not values:
        return "(absent)"
    return values[0] if len(values) == 1 else f"{len(values)} values"


def moved_fields(paths, drop=()):
    """One line per field that moved, was added or was dropped between two JSON files.

    The top-level keys in ``drop`` are left out on both sides.
    """
    groups = []
    for p in paths:
        data = json.loads(p.read_text())
        fields = {}
        for key, text in _leaves({k: v for k, v in data.items() if k not in drop}):
            fields.setdefault(key, []).append(text)
        groups.append(fields)
    before, after = groups
    lines = []
    for key in dict.fromkeys([*before, *after]):
        a, b = before.get(key, []), after.get(key, [])
        if len(a) != len(b):
            lines.append(f"{key}: {_shown(a)} -> {_shown(b)}")
        elif line := moved_summary(key, list(zip(a, b))):
            lines.append(line)
    return lines


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_outputs.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        inputs = Path(tmp, "inputs")
        inputs.mkdir()
        for name, (terms, _) in SPECS.items():
            (inputs / name).write_text(json.dumps(terms))
        (inputs / "indefinite.json").write_text(json.dumps(INDEFINITE))
        (inputs / "criterion_9.json").write_text(json.dumps(CRITERION_9))
        (inputs / "wide.json").write_text(json.dumps(WIDE_SEARCH))
        runs = invocations(inputs)
        for k, (label, cmd, manifests, others) in enumerate(runs):
            dirs = [Path(tmp, side, f"{k:02d}") for side in ("parent", "change")]
            results = [run(root, cmd, d) for root, d in zip(args, dirs)]
            diff = differences(dirs, results, manifests, others)
            failed += bool(diff)
            codes = "/".join(str(code) for code, _, _ in results)
            print(f"{'DIFF' if diff else 'same'}  exit {codes}  {label}"
                  + (f"  ({', '.join(diff)})" if diff else ""), flush=True)
            for name in set(manifests) & set(diff):
                paths = [d / name for d in dirs]
                lines = moved_checks(paths)
                if all(p.exists() for p in paths):
                    lines += moved_fields(paths, drop=("checks", "wall_time_s"))
                for line in lines:
                    print(f"      {line}", flush=True)
            for name in (n for n in others if n in diff):
                paths = [d / name for d in dirs]
                if all(p.exists() for p in paths):
                    summary = moved_columns if name.endswith(".csv") else moved_fields
                    for line in summary(paths):
                        print(f"      {name} {line}", flush=True)
    print(f"{failed} of {len(runs)} invocations differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
