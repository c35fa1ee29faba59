#!/usr/bin/env python3
"""Sweep both closed-surface extremum searches over 313 perturbed spheres.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tools/extremum_sweep.py

The surfaces are
  * the `verify-pointwise` benchmark generator's three surfaces at seeds 0-39;
  * nine named specs at r = 1.1;
  * 180 `conftest.random_perturbed_sphere` draws from `default_rng(12345)`,
    60 at each total amplitude 0.03, 0.05 and 0.08;
  * the polar spec [[2,0,0.08],[4,3,0.03]] at r = 0.7, 1, 1.1 and 1.3.

At each grid from 4x8 to 64x128 the umbilic search runs as `verify` runs
it, from verify's own frame: the grid nodes plus the 200 random points of
seed 0.  From 8x16 up the curvature floor is found as `global` finds it, on
a SphereGrid of that size.  One line per grid gives the worst
`umbilic_point` residual, the worst |grad det A| / |det A| at the floor
point and the least floor slack, each with the surface that gives it.  The
gradient is read at the centre of a chart centred on the point.  The sweep
takes a few minutes and is not part of the test suite.  It runs on
whichever tree's `src` is on PYTHONPATH, so that two trees can be compared.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "tests")]

from conftest import random_perturbed_sphere  # noqa: E402
from workloads import verify_pointwise  # noqa: E402

from lightcone import catalog, cli, surfaces  # noqa: E402
from lightcone.integrals import SphereGrid  # noqa: E402
from lightcone.surfaces import JetFrame  # noqa: E402

GRIDS = ((4, 8), (8, 16), (16, 32), (32, 64), (64, 128))
#: The floor's SphereGrid shapes: `second_curvature_floor` rejects those below 8x16.
FLOOR_SHAPES = GRIDS[1:]
NAMED_SPECS = (
    ((2, -2, 0.03), (3, 1, 0.02)),
    ((2, 0, 0.05),),
    ((3, 0, 0.04),),
    ((4, 0, 0.03),),
    ((2, 0, 0.1),),
    ((2, 0, -0.05),),
    ((2, 0, 0.04), (3, 1, 0.02)),
    ((4, 2, 0.03), (3, -3, 0.02)),
    ((2, 0, 0.02), (2, 1, -0.01), (2, -2, 0.005)),
)
POLAR_SPEC = ((2, 0, 0.08), (4, 3, 0.03))


def sweep_surfaces():
    """(label, patch) of every surface of the sweep, in a fixed order."""
    parser = cli.build_parser()
    with tempfile.TemporaryDirectory(prefix="extremum_sweep_") as tmp:
        for seed in range(40):
            inputs = Path(tmp, str(seed))
            inputs.mkdir()
            for inv in verify_pointwise(seed, inputs):
                args = parser.parse_args(inv.argv(inputs))
                yield f"seed {seed} {inv.label}", cli._build_surface(args)
    for terms in NAMED_SPECS:
        yield f"{list(map(list, terms))} r=1.1", _perturbed(terms, 1.1)
    rng = np.random.default_rng(12345)
    for amplitude in (0.03, 0.05, 0.08):
        for k in range(60):
            patch, spec = random_perturbed_sphere(rng, total_amplitude=amplitude)
            yield f"random {amplitude} #{k} {list(map(list, spec.terms))}", patch
    for r in (0.7, 1.0, 1.1, 1.3):
        yield f"{list(map(list, POLAR_SPEC))} r={r:g}", _perturbed(POLAR_SPEC, r)


def _perturbed(terms, r):
    return catalog.perturbed_sphere(catalog.HarmonicSpec(terms=terms), r=r)


def umbilic_residual(patch, grid):
    """The `umbilic_point` residual of `verify` at this grid and seed 0."""
    points = cli._verify_points(patch, grid, 0)
    gap_low = surfaces._sweep(patch, points, lambda frame: {"gap_low": frame.gap_low})["gap_low"]
    _, _, glow, ghigh = surfaces.umbilic_point_search(patch, *points, gap_low)
    return max(abs(glow), abs(ghigh))


def floor_point(patch, grid):
    """|grad det A| / |det A| at the floor point, and the least floor slack."""
    out = SphereGrid(patch, *grid).second_curvature_floor()
    rotation = surfaces.centring(*out["point"])
    frame = JetFrame(surfaces.centred(patch, rotation), np.pi / 2, 0.0)
    gradient = float(np.hypot(*frame.detA_grad) / abs(frame.detA_val))
    return gradient, min(out["keta_slack"], out["floor_slack"])


def main():
    worst = {grid: {"umbilic": (-1.0, ""), "gradient": (-1.0, ""), "slack": (np.inf, "")}
             for grid in GRIDS}
    n = 0
    for label, patch in sweep_surfaces():
        n += 1
        for grid in GRIDS:
            found = [("umbilic", umbilic_residual(patch, grid), max)]
            if grid in FLOOR_SHAPES:
                gradient, slack = floor_point(patch, grid)
                found += [("gradient", gradient, max), ("slack", slack, min)]
            w = worst[grid]
            for key, value, worse in found:
                if worse(value, w[key][0]) != w[key][0]:
                    w[key] = (value, label)
    print(f"{n} surfaces")
    for grid in GRIDS:
        w = worst[grid]
        floor = (f"worst |grad det A|/|det A| {w['gradient'][0]:.2e} ({w['gradient'][1]}); "
                 f"least floor slack {w['slack'][0]:.2e} ({w['slack'][1]})"
                 if grid in FLOOR_SHAPES else "no floor below 8x16")
        print(f"{grid[0]}x{grid[1]}: "
              f"worst umbilic_point {w['umbilic'][0]:.2e} ({w['umbilic'][1]}); {floor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
