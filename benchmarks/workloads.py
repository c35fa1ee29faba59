"""Seeded inputs and the invocation list of each benchmark workload.

A workload is built from the benchmark seed alone: it writes the spec and
config files the program reads and returns the `lightcone` argument lists
of one pass, each paired with the check of its output.  Every pass of a run
repeats the same invocations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

GRID = (64, 128)
GRID_ARG = f"{GRID[0]}x{GRID[1]}"

#: Acceptance-criterion-9 search with a few starts; the seed is the
#: benchmark seed.
SEARCH_CONFIG = {
    "degree_max": 2,
    "amplitude_bound": 0.1,
    "n_theta": 10,
    "n_phi": 20,
    "max_iter": 300,
    "n_restarts": 0,
    "var_tol": 1e-8,
    "n_starts": 4,
}

# Sum of |amplitude| of a drawn spec.  The second form of e^sigma psi_round is
# 1/2 g + dsigma dsigma - 1/2 |grad sigma|^2 g - Hess sigma (g the unit
# sphere metric, for every radius); for degree <= 3 harmonics |grad Y| < 1.9
# and ||Hess Y|| < 5.4, so a budget of 0.04 keeps its least eigenvalue above
# 0.28: II stays definite on every seed.
VERIFY_AMPLITUDE = 0.04
EXPORT_AMPLITUDE = 0.03


@dataclass
class Invocation:
    """One `lightcone` call: its arguments and the check of its outputs."""

    label: str
    argv: Callable[[Path], list]
    check: Callable[[Path], list]
    #: output files that must repeat byte for byte across passes
    stable: tuple = ()


def _rng(seed, workload):
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _radius(rng):
    return float(rng.uniform(0.5, 2.0))


def _observer(rng):
    """Past unit timelike vector with rapidity in [0.2, 0.8]."""
    beta = rng.uniform(0.2, 0.8)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return [-math.cosh(beta)] + [float(math.sinh(beta) * c) for c in n]


def _spec(rng, degrees, n_terms, total):
    """Random harmonic terms over ``degrees`` with sum |a| = ``total``."""
    pairs = [(l, m) for l in degrees for m in range(-l, l + 1)]
    idx = sorted(rng.choice(len(pairs), size=n_terms, replace=False))
    raw = rng.uniform(-1.0, 1.0, size=n_terms)
    raw *= total / np.sum(np.abs(raw))
    return [[pairs[k][0], pairs[k][1], float(a)] for k, a in zip(idx, raw)]


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _read_json(path):
    return json.loads(path.read_text())


def verify_pointwise(seed, inputs):
    """`verify` on a boosted round sphere and two perturbed spheres."""
    rng = _rng(seed, "verify-pointwise")
    r0, u = _radius(rng), _observer(rng)
    runs = [("round", ["round-sphere", "--r", repr(r0), "--u", *map(repr, u)])]
    for name in ("perturbed-a", "perturbed-b"):
        spec = _write_json(inputs / f"{name}.json", _spec(rng, (1, 2, 3), 4, VERIFY_AMPLITUDE))
        runs.append((name, ["perturbed", "--r", repr(_radius(rng)), "--spec", spec]))

    out = []
    for label, surface_args in runs:
        manifest = f"verify-{label}.json"

        def argv(d, surface_args=surface_args, manifest=manifest):
            return ["verify", *surface_args, "--grid", GRID_ARG, "--seed", str(seed),
                    "--out", str(d / manifest)]

        def check(d, surface=surface_args[0], manifest=manifest):
            return checks.verify_manifest(_read_json(d / manifest), surface, GRID)

        out.append(Invocation(f"verify {label}", argv, check))
    return out


def global_grid(seed, inputs):
    """`global` on two round spheres and `export` of three spheres.

    The exported perturbed spheres have one harmonic degree each (2 and 3),
    so the conformal curvature law can be checked at every node.
    """
    rng = _rng(seed, "global-grid")
    r0, r1, u = _radius(rng), _radius(rng), _observer(rng)
    out = []

    def global_inv(label, surface_args, r):
        manifest = f"global-{label}.json"
        return Invocation(
            f"global {label}",
            lambda d: ["global", *surface_args, "--grid", GRID_ARG, "--out", str(d / manifest)],
            lambda d: checks.global_manifest(_read_json(d / manifest), r),
        )

    def export_inv(label, surface_args, r, terms):
        table = f"export-{label}.csv"
        return Invocation(
            f"export {label}",
            lambda d: ["export", *surface_args, "--grid", GRID_ARG, "--out", str(d / table)],
            lambda d: checks.export_table((d / table).read_text(), GRID, r, terms),
        )

    round_args = ["round-sphere", "--r", repr(r0)]
    out.append(global_inv("round", round_args, r0))
    out.append(export_inv("round", round_args, r0, []))
    out.append(global_inv("boosted", ["round-sphere", "--r", repr(r1), "--u", *map(repr, u)], r1))
    for degree in (2, 3):
        terms = _spec(rng, (degree,), 3, EXPORT_AMPLITUDE)
        spec = _write_json(inputs / f"degree{degree}.json", terms)
        r = _radius(rng)
        args = ["perturbed", "--r", repr(r), "--spec", spec]
        out.append(export_inv(f"degree{degree}", args, r, terms))
    return out


def search_variance(seed, inputs):
    """One `search` on the acceptance configuration."""
    config = dict(SEARCH_CONFIG, seed=seed)
    path = _write_json(inputs / "search.json", config)

    def argv(d):
        return ["search", "--config", path, "--out", str(d / "report.json"),
                "--trace", str(d / "trace.csv"), "--manifest", str(d / "manifest.json")]

    def check(d):
        report = _read_json(d / "report.json")
        return checks.search_report(report, (d / "trace.csv").read_text(), config)

    return [Invocation("search", argv, check, stable=("report.json", "trace.csv"))]


def nm_iterations(out_dir):
    """Simplex iterations summed over the starts of a search report."""
    path = out_dir / "report.json"
    if not path.exists():
        return 0
    return sum(r["iterations"] for r in _read_json(path)["results"])


WORKLOADS = {
    "verify-pointwise": verify_pointwise,
    "global-grid": global_grid,
    "search-variance": search_variance,
}
