"""Command-line interface: verify, global, search, export.

Every run writes a JSON manifest echoing the configuration, the residual of
each check with its tolerance, and the wall time.  Exit codes: 0 all checks
pass, 2 a check failed, 3 degenerate or invalid surface input, an
unwritable output path or a usage error, 4 malformed search configuration
or a usage error of ``search``.  Commands raise; ``main`` alone turns an
error into exit 3 or 4 and one stderr line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, catalog, curvature, surfaces, transforms
from .errors import BadConfig, LightconeError
from .integrals import TABLE_ORACLE_GRID, SphereGrid, geometry_table
from .minkowski import inner
from .surfaces import _sweep, gauss_maps, umbilic_point_search

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_DEGENERATE = 3
EXIT_BAD_CONFIG = 4

#: Every ``verify`` and ``global`` check in manifest order: name -> (pinned
#: tolerance, group, rule).  The groups ``frame``, ``definite``, ``conjugate``
#: and ``expansion`` are computed by one function each; ``verify`` and
#: ``global`` rows are recorded one by one in ``_verify_checks`` and
#: ``cmd_global``.  The rule turns residuals, one per node or part, into a
#: verdict in ``_judge``; NaN decides under every rule:
#:   * ``abs``: the largest residual; PASS when finite and |r| <= tol.
#:   * ``excess``: the largest residual clamped at 0; PASS when r <= tol.
#:   * ``slack``: the least residual; PASS when r >= -tol, recorded as the tolerance.
#:   * ``floor``: the least residual; PASS when r > tol, SKIP otherwise.
CHECKS = {
    # The structure equations through the lightcone: psi null, eta the parallel
    # lightlike normal with <eta, psi> = 1, Weingarten, Codazzi, K = <H, H>, K^2 >= 4 det A.
    "on_cone": (surfaces.ON_CONE_TOL, "frame", "abs"),
    "normal_constraints": (1e-10, "frame", "abs"),
    "position_weingarten": (1e-10, "frame", "abs"),
    "weingarten_agreement": (1e-8, "frame", "abs"),
    "normal_parallel": (1e-9, "frame", "abs"),
    "second_form_symmetry": (1e-12, "frame", "abs"),
    "shape_self_adjoint": (1e-10, "frame", "abs"),
    "curvature_trace": (1e-8, "frame", "abs"),
    "second_form_inner": (1e-9, "frame", "abs"),
    "gap_floor": (1e-9, "frame", "excess"),
    "gap_match": (1e-8, "frame", "abs"),
    "codazzi": (1e-7, "frame", "abs"),
    # The standing hypothesis: the eta-shape operator is nondegenerate.
    "nondegeneracy": (curvature.DEGENERACY_FLOOR, "verify", "floor"),
    # The new formula relating K and K_eta, where II is definite.
    "curvature_relation": (1e-6, "definite", "abs"),
    "trace_gradient": (1e-7, "definite", "abs"),
    "lowered_symmetry": (1e-8, "definite", "abs"),
    # K_eta = 2 on round spheres, which the paper characterizes by it.
    "round_keta": (1e-8, "verify", "abs"),
    # The conjugate surface, traced by eta: A~ = A^-1, II~ = II, K~ = K / det A.
    "conjugate_weingarten": (1e-7, "conjugate", "abs"),
    "conjugate_second_form": (1e-7, "conjugate", "abs"),
    "conjugate_curvature": (1e-7, "conjugate", "abs"),
    "third_form": (1e-8, "conjugate", "abs"),
    "double_conjugate": (1e-9, "conjugate", "abs"),
    # The transformation laws of a conformal expansion e^sigma psi.
    "expansion_weingarten": (1e-7, "expansion", "abs"),
    "expansion_second_form": (1e-7, "expansion", "abs"),
    "expansion_curvature": (1e-7, "expansion", "abs"),
    "expansion_trace": (1e-8, "expansion", "abs"),
    "expansion_normal": (1e-7, "expansion", "abs"),
    "expansion_pairing": (1e-9, "expansion", "abs"),
    "expansion_metric": (1e-9, "expansion", "abs"),
    # Both Gauss maps land on the unit sphere; a closed surface has an umbilic point.
    "gauss_maps": (1e-10, "verify", "abs"),
    "umbilic_point": (1e-6, "verify", "abs"),
    # Gauss-Bonnet for g and II, the II-area bound 2 pi (equality iff round),
    # K_eta >= 2 at the maximizer of det A, and the Reilly-type bound on lambda1.
    "table_oracle": (1e-9, "global", "abs"),
    "gauss_bonnet_induced": (1e-6, "global", "abs"),
    "gauss_bonnet_second": (1e-5, "global", "abs"),
    "second_form_area_bound": (1e-6, "global", "excess"),
    "round_second_form_area": (1e-6, "global", "abs"),
    "curvature_floor": (1e-6, "global", "slack"),
    "eigenvalue_bound": (5e-2, "global", "excess"),
    "lambda1_oracle": (1.0, "global", "abs"),
    "round_lambda1": (2e-2, "global", "abs"),
}
#: What the ``table_oracle`` check of ``global`` and ``export`` compares.
_ORACLE_DETAIL = "expansion-law table against geometry_table on {}x{}".format(*TABLE_ORACLE_GRID)


class Manifest:
    """Collects check results, prints a summary, and serializes to JSON."""

    def __init__(self, command, config, seed=None):
        self.command = command
        self.config = config
        self.seed = seed
        self.checks = []
        self.extra = {}
        self._t0 = time.perf_counter()

    def add(self, name, residual=None, tolerance=None, status=None, detail="", points=None):
        """Record a check and return its entry: a status, or residuals that ``_judge`` decides.

        ``residual`` is a number, or one residual per node or part; it is
        judged against ``tolerance``, by default the check's ``CHECKS`` row.
        ``points`` are the chart points (u, v) of the nodes; the entry then
        records as ``where`` the node that sets the residual.
        """
        if residual is not None:
            residual, tolerance, status, k = _judge(name, residual, tolerance)
        entry = {"name": name, "status": status, "residual": residual,
                 "tolerance": tolerance, "detail": detail}
        if points is not None:
            entry["where"] = [float(points[0][k]), float(points[1][k])]
        self.checks.append(entry)
        return entry

    def skip(self, name, detail):
        self.add(name, status="SKIP", detail=detail)

    @property
    def passed(self):
        return all(c["status"] != "FAIL" for c in self.checks)

    def to_dict(self):
        out = {
            "tool_version": __version__,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "wall_time_s": time.perf_counter() - self._t0,
            "checks": self.checks,
            "passed": self.passed,
        }
        out.update(self.extra)
        return out

    def print_summary(self):
        width = max((len(c["name"]) for c in self.checks), default=10) + 2
        lines = []
        for c in self.checks:
            res = "" if c["residual"] is None else f"{c['residual']:.3e}"
            tol = "" if c["tolerance"] is None else f"(tol {c['tolerance']:.1e})"
            detail = f"  {c['detail']}" if c["detail"] else ""
            lines.append(f"  {c['name']:<{width}} {c['status']:<4} {res:>10} {tol}{detail}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        _print("\n".join(lines))

    def write(self, path):
        if path:
            _write(path, json.dumps(self.to_dict(), indent=2))


def _parse_grid(text):
    try:
        nt, np_ = (int(n) for n in text.lower().split("x"))
        if nt >= 1 and np_ >= 1:
            return nt, np_
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"grid must look like 64x128, with both sizes at least 1, got {text!r}"
    )


def _parse_seed(text):
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be an integer at least 0, got {text!r}")


def _judge(name, residual, tolerance=None):
    """Residual, recorded tolerance, status and deciding index of a check by its rule.

    A check not in ``CHECKS`` takes the ``abs`` rule and needs a tolerance.
    The deciding index is the first NaN if there is one: argmax and argmin
    stop there.
    """
    default, _, rule = CHECKS.get(name, (tolerance, None, "abs"))
    tol = float(default if tolerance is None else tolerance)
    r = np.ravel(residual)
    k = int(np.argmin(r) if rule in ("slack", "floor") else np.argmax(r))
    x = float(r[k])
    if rule == "slack":
        return x, -tol, "PASS" if x >= -tol else "FAIL", k
    if rule == "floor":
        return x, tol, "PASS" if x > tol else "SKIP", k
    x = 0.0 if rule == "excess" and x <= 0.0 else x
    return x, tol, "PASS" if np.isfinite(x) and abs(x) <= tol else "FAIL", k


def _surface_manifest(command, args):
    """Manifest echoing the surface arguments."""
    config = {
        "surface": args.surface,
        "r": args.r,
        "u": args.u,
        "spec": args.spec,
        "grid": list(args.grid),
    }
    return Manifest(command, config, seed=getattr(args, "seed", None))


def _file_key(path):
    """(device, inode) of an existing file, so that hard links agree; else its real path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_files(args):
    """Raise unless every output is a file apart and can be opened for writing.

    Two outputs, or an output and the ``--config`` or ``--spec`` input, that
    are one file (``_file_key``) raise LightconeError; an output that cannot
    be opened raises its OSError.  Probing appends nothing to an existing
    file and removes a file it created.
    """
    seen = {}
    for name in ("config", "spec", "out", "trace", "manifest"):
        if not (path := getattr(args, name, None)):
            continue
        if (other := seen.setdefault(_file_key(path), name)) != name:
            raise LightconeError(f"--{other} and --{name} are the same file {path}")
        if name in ("out", "trace", "manifest"):
            existed = os.path.lexists(path)
            open(path, "a").close()
            if not existed:
                os.remove(path)


def _write(path, text):
    """Write text to path; an OSError, at open or at write, names the path as its filename."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        exc.filename = path
        raise


def _print(text):
    """Print to stdout; a reader that has closed it (``| head -1``) is not an error.

    A pipe is flushed only at exit, outside any guard, so the flush is here.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Send the rest to devnull, so the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _finish(manifest, heading, path):
    """Write the manifest, print the heading and the summary, return the exit code."""
    manifest.write(path)
    _print(heading)
    manifest.print_summary()
    return EXIT_OK if manifest.passed else EXIT_CHECK_FAILED


def _build_surface(args):
    """The catalog surface that the arguments select.

    Every input problem, including an unreadable or malformed spec file or
    an option that the surface would ignore, raises LightconeError.  ``--r``
    counts as given when it differs from 1.0, the default every manifest echoes.
    """
    sel = args.surface
    reads = {"round-sphere": ("--r", "--u"), "perturbed": ("--r", "--spec")}.get(sel, ())
    given = {"--r": args.r != 1.0, "--u": args.u is not None, "--spec": args.spec is not None}
    if ignored := [name for name, is_given in given.items() if is_given and name not in reads]:
        raise LightconeError(f"{sel} takes no {' or '.join(ignored)}")
    if sel == "round-sphere":
        u = None if args.u is None else np.asarray(args.u, dtype=float)
        return catalog.round_sphere(u=u, r=args.r)
    if sel == "cylinder":
        return catalog.product_cylinder()
    if sel == "paraboloid":
        return catalog.paraboloid_graph()
    if sel == "perturbed":
        if not args.spec:
            raise LightconeError("perturbed surface needs --spec FILE")
        try:
            with open(args.spec) as fh:
                spec = catalog.HarmonicSpec.from_json(fh.read())
        except (OSError, ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise LightconeError(f"bad spec {args.spec}: {exc}") from exc
        return catalog.perturbed_sphere(spec, r=args.r)
    raise LightconeError(f"unknown surface selector {sel!r}")


# -- verify ------------------------------------------------------------------
#
# Checks that share a gate form a group: the rows of CHECKS that name it.
# ``_frame_residuals`` and ``_definite_residuals`` return the residuals of
# their group at the points of one frame, keyed by check name;
# ``_check_group`` takes a function that returns a group's residuals with
# their chart points (u, v).


def _verify_points(patch, grid, seed):
    u, v = patch.grid_points(grid)
    rng = np.random.default_rng(seed)
    ur, vr = patch.sample_points(200, rng, margin=0.03)
    return np.concatenate([u, ur]), np.concatenate([v, vr])


def _check_group(manifest, group, residuals, skip_reason=None):
    """Add each check of residuals() at its nodes, or skip the group's checks with the reason."""
    if skip_reason:
        for name, (_, in_group, _) in CHECKS.items():
            if in_group == group:
                manifest.skip(name, skip_reason)
        return
    by_name, points = residuals()
    for name, res in by_name.items():
        manifest.add(name, res, points=points)


def _frame_residuals(frame):
    eta, psi = frame.eta_val, frame.psi_val
    II = frame.II_val
    g, A = frame.g_val, frame.A_val
    gA = sum(g[..., :, c, None] * A[..., None, c, :] for c in range(2))
    return {
        "on_cone": np.abs(inner(psi, psi)),
        "normal_constraints": np.max(np.abs([
            inner(eta, eta),
            inner(eta, psi) - 1.0,
            inner(eta, frame.psi_u.values),
            inner(eta, frame.psi_v.values),
        ]), axis=0),
        "position_weingarten": frame.position_weingarten_residual(),
        "weingarten_agreement": np.max(
            np.abs(frame.weingarten_closed_form() - frame.A_val), axis=(-2, -1)
        ),
        "normal_parallel": frame.normal_parallel_residual(),
        "second_form_symmetry": np.abs(II[..., 0, 1] - II[..., 1, 0]),
        "shape_self_adjoint": np.abs(gA[..., 0, 1] - gA[..., 1, 0]),
        "curvature_trace": np.maximum(
            np.abs(frame.K_brioschi - frame.K_val), np.abs(frame.H2_val - frame.K_val)
        ),
        "second_form_inner": frame.second_form_inner_residual(),
        "gap_floor": np.maximum(-frame.gap_low, -frame.gap_high),
        "gap_match": np.abs(frame.gap_low - frame.gap_high),
        "codazzi": curvature.codazzi_residual(frame),
    }


def _definite_residuals(frame):
    rel = curvature.curvature_relation(frame)
    low = curvature.lowered_difference(frame)
    return {
        "curvature_relation": rel["residual"],
        "trace_gradient": curvature.trace_gradient_residual(frame),
        "lowered_symmetry": np.maximum(
            np.max(np.abs(low - np.swapaxes(low, -3, -2)), axis=(-3, -2, -1)),
            np.max(np.abs(low - np.swapaxes(low, -2, -1)), axis=(-3, -2, -1)),
        ),
    }


def _verify_read(frame):
    """What ``_verify_checks`` reads of one frame, one entry per point.

    The ``definite`` residuals and K_eta come only from a frame whose II is
    definite and whose det A is nowhere degenerate: block by block, the
    gate of that group.
    """
    unit = [np.abs(np.linalg.norm(m[..., 1:], axis=-1) - 1.0) for m in gauss_maps(frame)]
    out = _frame_residuals(frame)
    out.update(detA=frame.detA_val, ii_positive=frame.ii_positive, gap_low=frame.gap_low,
               gauss_maps=np.maximum(*unit))
    if np.all(frame.ii_positive) and not np.any(curvature.degenerate(frame.detA_val)):
        out.update(_definite_residuals(frame), K_eta=frame.K_eta)
    return out


def _conjugate_residuals(patch, grid):
    points = patch.grid_points(grid)
    return _sweep(patch, points, transforms.verify_conjugate_duality), points


def _expansion_residuals(patch, seed):
    sigma = catalog.HarmonicSpec(terms=((1, 1, 0.02), (2, -1, 0.015))).chart_field()
    points = patch.sample_points(100, np.random.default_rng(seed), margin=0.05)
    residuals = _sweep(patch, points, lambda frame: transforms.verify_expansion_laws(frame, sigma))
    return residuals, points


def cmd_verify(args):
    manifest = _surface_manifest("verify", args)
    patch = _verify_checks(manifest, args)
    return _finish(
        manifest,
        f"verify {patch.name} on {args.grid[0]}x{args.grid[1]} + 200 random points",
        args.out,
    )


def _verify_checks(manifest, args):
    """Add every verify check to the manifest and return the surface.

    Any check group may meet a degenerate surface (a nested conjugate frame
    off the cone, say) and raise LightconeError.
    """
    patch = _build_surface(args)
    points = _verify_points(patch, args.grid, args.seed)
    swept = _sweep(patch, points, _verify_read)

    def rows(group):
        return {name: swept[name] for name, (_, g, _) in CHECKS.items() if g == group}, points

    _check_group(manifest, "frame", lambda: rows("frame"))

    check = manifest.add("nondegeneracy", np.abs(swept["detA"]), points=points)
    why_degenerate = None if check["status"] == "PASS" else "degenerate shape operator"
    check["detail"] = why_degenerate or "nondegenerate"
    why_not_definite = why_degenerate or (
        None if np.all(swept["ii_positive"]) else "second form not definite"
    )

    _check_group(manifest, "definite", lambda: rows("definite"), why_not_definite)
    if why_not_definite is None and args.surface == "round-sphere":
        manifest.add("round_keta", np.abs(swept["K_eta"] - 2.0), points=points)

    sub = (max(4, args.grid[0] // 4), max(8, args.grid[1] // 4))
    _check_group(manifest, "conjugate", lambda: _conjugate_residuals(patch, sub), why_degenerate)
    _check_group(manifest, "expansion", lambda: _expansion_residuals(patch, args.seed))

    manifest.add("gauss_maps", swept["gauss_maps"], points=points)

    if patch.closed:
        _, _, glow, ghigh = umbilic_point_search(patch, *points, swept["gap_low"])
        manifest.add("umbilic_point", (glow, ghigh))
    else:
        manifest.skip("umbilic_point", "not a closed surface")
    return patch


# -- global ------------------------------------------------------------------


def cmd_global(args):
    from . import spectrum

    manifest = _surface_manifest("global", args)
    patch = _build_surface(args)
    grid = SphereGrid(patch, *args.grid)
    gb = grid.gauss_bonnet()
    gb2 = grid.gauss_bonnet_second_form()
    ii_area = grid.second_form_area()
    lam = spectrum.lambda1_estimate(grid)  # rejects too small a grid first
    floor = grid.second_curvature_floor()

    manifest.add("table_oracle", grid.oracle_gap, detail=_ORACLE_DETAIL)
    manifest.add("gauss_bonnet_induced", gb - 4.0 * np.pi)
    manifest.add("gauss_bonnet_second", gb2 - 4.0 * np.pi)
    manifest.add(
        "second_form_area_bound",
        ii_area - 2.0 * np.pi,
        detail=f"area {ii_area:.9f} vs 2 pi (equality iff umbilical)",
    )
    if args.surface == "round-sphere":
        manifest.add("round_second_form_area", ii_area - 2.0 * np.pi)
    manifest.add(
        "curvature_floor",
        (floor["keta_slack"], floor["floor_slack"]),
        detail=f"ratio {floor['ratio']:.6f} at theta={floor['point'][0]:.3f}",
    )
    manifest.add(
        "eigenvalue_bound",
        (lam.value - lam.reilly_rhs) / lam.reilly_rhs,
        detail=f"lambda1 {lam.value:.6f} vs bound {lam.reilly_rhs:.6f}",
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        oracle_ratio = np.float64(abs(lam.value - lam.oracle)) / lam.oracle_gap
    nt, np_ = spectrum.ORACLE_GRIDS[0]
    manifest.add(
        "lambda1_oracle",
        oracle_ratio,
        detail=(
            f"|lambda1 - cotangent {nt}x{np_} "
            f"{lam.oracle:.6f}| in units of its refinement gap {lam.oracle_gap:.3e}"
        ),
    )
    if args.surface == "round-sphere":
        expected = 2.0 / args.r**2
        manifest.add("round_lambda1", abs(lam.value - expected) / expected)
    manifest.extra["report"] = {
        "surface": patch.name,
        "n_theta": grid.n_theta,
        "n_phi": grid.n_phi,
        "table_oracle_gap": grid.oracle_gap,
        "area": grid.area(),
        "gauss_bonnet": gb,
        "gauss_bonnet_second_form": gb2,
        "ii_eta_area": ii_area,
        "lambda1": lam.value,
        "lambda1_refinement_gap": lam.refinement_gap,
        "lambda1_oracle": lam.oracle,
        "lambda1_oracle_gap": lam.oracle_gap,
        "bound_rhs": lam.reilly_rhs,
        "margins": {
            "gauss_bonnet": gb - 4.0 * np.pi,
            "ii_area_vs_2pi": ii_area - 2.0 * np.pi,
            "bound_minus_lambda1": lam.reilly_rhs - lam.value,
        },
    }
    return _finish(manifest, f"global {patch.name} on {grid.n_theta}x{grid.n_phi}", args.out)


# -- search ------------------------------------------------------------------


def _search_config(args):
    """The SearchConfig that the arguments select; every problem raises BadConfig."""
    from .search import SearchConfig

    try:
        with open(args.config) as fh:
            data = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise BadConfig(
            f"malformed config {args.config}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, or an integer past Python's digit limit;
        # RecursionError: nested past the parser's limit.
        raise BadConfig(f"cannot read config: {exc}") from exc
    if not isinstance(data, dict):
        raise BadConfig(f"bad config {args.config}: must be a JSON object of settings")
    if unknown := [k for k in data if k not in SearchConfig.__dataclass_fields__]:
        raise BadConfig(f"unknown config keys: {', '.join(unknown)}")
    if args.seed is not None:
        data["seed"] = args.seed
    try:
        return SearchConfig(**data)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"bad config value: {exc}") from exc


def cmd_search(args):
    from . import search

    config = _search_config(args)
    manifest = Manifest("search", config.to_dict(), seed=config.seed)
    report = search.search(config)
    n_umb = sum(1 for r in report.results if r.classification == "umbilical")
    manifest.add(
        "search_completed",
        status="PASS",
        detail=(
            f"{len(report.results)} starts, {n_umb} umbilical, "
            f"{len(report.candidates)} candidates"
        ),
    )
    manifest.add(
        "closed_form_oracle",
        [r.oracle_diff for r in report.results],
        search.ORACLE_TOL,
        detail="closed-form objective against the JetFrame route at each minimizer",
    )
    offset = search.umbilical_offset(report, config)
    if offset is None:
        manifest.skip("umbilical_at_two", "no converged start has sup gap below var_tol")
    else:
        manifest.add(
            "umbilical_at_two",
            offset,
            10.0 * config.var_tol,
            detail="|mean K_eta - 2| over converged starts with sup gap below var_tol",
        )
    manifest.extra["all_umbilical"] = report.all_umbilical
    manifest.extra["candidates"] = report.candidates

    _write(args.out, report.to_json())
    _write(args.trace, report.trace_csv())
    return _finish(manifest, f"search: report -> {args.out}, trace -> {args.trace}", args.manifest)


# -- export ------------------------------------------------------------------


_EXPORT_COLUMNS = "K,Keta,d,gap_low,gap_high,psi0\n"


def _csv_rows(cols):
    """CSV lines of equal-length float columns, each cell the ``repr`` of its float.

    ``repr`` runs once per distinct bit pattern of a column, so -0.0, 0.0
    and each NaN keep their own text.
    """
    texts = []
    for col in cols:
        bits, index = np.unique(np.asarray(col, dtype=np.float64).view(np.int64),
                                return_inverse=True)
        cells = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
        texts.append(cells[index])
    return "".join(",".join(row) + "\n" for row in zip(*texts))


def cmd_export(args):
    patch = _build_surface(args)
    if patch.closed:
        grid = SphereGrid(patch, *args.grid)
        if _judge("table_oracle", grid.oracle_gap)[2] == "FAIL":
            print(
                f"table_oracle FAIL: gap {grid.oracle_gap:.3e} above "
                f"{CHECKS['table_oracle'][0]:.1e} ({_ORACLE_DETAIL}); no table written",
                file=sys.stderr,
            )
            return EXIT_CHECK_FAILED
        th, ph, table = grid.TH, grid.PH, grid.table
    else:
        th, ph = patch.grid_points(args.grid)
        table = geometry_table(patch, th, ph)

    cols = [th, ph] + [table[k] for k in ("K", "K_eta", "detA", "gap_low", "gap_high", "psi0")]
    header = ("theta,phi," if patch.closed else "u,v,") + _EXPORT_COLUMNS
    _write(args.out, header + _csv_rows(cols))
    _print(f"export: {th.size} rows -> {args.out}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------


class _NegativeValue:
    """Matches a value that starts with ``-``: a negative number ``float`` reads,
    such as -7.5e-1, or any text of ``-`` then a digit or ``.``, such as -1x4."""

    @staticmethod
    def match(text):
        if text[:1] != "-":
            return False
        try:
            float(text)
        except ValueError:
            return text[1:2] in set("0123456789.")
        return True


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with ``usage_exit``.

    argparse's own code, 2, would read as a failed check.  What
    ``_NegativeValue`` matches is a value, not an option, so the option's
    type states what is wrong with it; argparse's own rule takes -1.25e0
    and -1x4 for options.
    """

    def __init__(self, *args, usage_exit=EXIT_DEGENERATE, **kwargs):
        super().__init__(*args, **kwargs)
        self.usage_exit = usage_exit
        self._negative_number_matcher = _NegativeValue

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(self.usage_exit, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="lightcone",
        description=__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_surface_args(p, out_help="manifest JSON path", out_required=False):
        p.add_argument(
            "surface",
            choices=["round-sphere", "cylinder", "paraboloid", "perturbed"],
            help="catalog surface selector",
        )
        p.add_argument("--r", type=float, default=1.0, help="sphere radius")
        p.add_argument(
            "--u", type=float, nargs=4, default=None,
            help="observer vector (past unit timelike) for boosted spheres",
        )
        p.add_argument("--spec", default=None, help="harmonic spec JSON file")
        p.add_argument(
            "--grid", type=_parse_grid, default=(64, 128), help="grid as NTHETAxNPHI"
        )
        p.add_argument("--out", default=None, required=out_required, help=out_help)

    fmt = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_verify = sub.add_parser(
        "verify",
        help="run the pointwise identity suite",
        description="Pointwise identity suite; nested transform checks run on "
        "a quarter-resolution subgrid, the expansion-law checks on 100 random points.",
        **fmt,
    )
    add_surface_args(p_verify)
    p_verify.add_argument("--seed", type=_parse_seed, default=0, help="random-point seed")
    p_verify.set_defaults(fn=cmd_verify, parser=p_verify)

    p_global = sub.add_parser(
        "global", help="integrals, area bound and eigenvalue bound", **fmt
    )
    add_surface_args(p_global)
    p_global.set_defaults(fn=cmd_global, parser=p_global)

    p_search = sub.add_parser(
        "search", help="constant-curvature variance search", usage_exit=EXIT_BAD_CONFIG, **fmt
    )
    p_search.add_argument("--config", required=True, help="SearchConfig JSON file")
    p_search.add_argument("--seed", type=int, default=None, help="override config seed")
    p_search.add_argument("--out", default="search_report.json", help="report JSON path")
    p_search.add_argument(
        "--trace", default=None, help="trace CSV path; by default beside the report"
    )
    p_search.add_argument("--manifest", default=None, help="manifest JSON path")
    p_search.set_defaults(fn=cmd_search, parser=p_search)

    p_export = sub.add_parser("export", help="dump per-node curvature table as CSV", **fmt)
    # export writes the table, not a manifest
    add_surface_args(p_export, out_help="output CSV path", out_required=True)
    p_export.set_defaults(fn=cmd_export, parser=p_export)
    return parser


def main(argv=None):
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # What the command's parser left over is its usage error.
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "search" and args.trace is None:
        args.trace = os.path.splitext(args.out)[0] + "_trace.csv"
    # The one handler of errors: inputs are read inside guards that raise
    # LightconeError, so an OSError here comes from an output, named by its filename.
    try:
        _check_files(args)
        return args.fn(args)
    except BadConfig as exc:
        line, code = str(exc), EXIT_BAD_CONFIG
    except LightconeError as exc:
        line, code = f"rejected: {exc}", args.parser.usage_exit
    except OSError as exc:
        line, code = f"cannot write {exc.filename}: {exc}", EXIT_DEGENERATE
    except MemoryError as exc:
        # A grid or config too large for memory is bad input, not a crash.
        line, code = f"out of memory: {exc}", args.parser.usage_exit
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
