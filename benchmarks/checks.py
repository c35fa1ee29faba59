"""Output checks of the benchmark, each taken from the mathematics.

Every function returns a list of problems; an empty list means the output
passed.  None of them compares against a stored copy of program output:

* manifests are re-judged against tolerances pinned here, so a check that
  is missing, skipped, non-finite or reported against a looser tolerance
  fails;
* exported node tables are integrated with numpy's own Gauss-Legendre
  weights (Gauss-Bonnet for the induced metric and for the second form,
  the II-area bound) and tested node by node against the conformal
  curvature law of an expanded round sphere, with the log-radius recomputed
  from the spec through scipy's spherical harmonics;
* search reports are held to the rigidity facts: a constant II-curvature c
  obeys c * area_II = 4 pi with area_II <= 2 pi, so c >= 2, and only the
  round sphere (c = 2) is umbilical.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.special import sph_harm_y

FOUR_PI = 4.0 * math.pi
TWO_PI = 2.0 * math.pi

#: Tolerances of the ``lightcone`` checks, pinned at the commit that
#: introduced this benchmark.
TOLS = {
    "on_cone": 1e-9,
    "normal_constraints": 1e-10,
    "position_weingarten": 1e-10,
    "weingarten_agreement": 1e-8,
    "normal_parallel": 1e-9,
    "second_form_symmetry": 1e-12,
    "shape_self_adjoint": 1e-10,
    "curvature_trace": 1e-8,
    "second_form_inner": 1e-9,
    "gap_floor": 1e-9,
    "gap_match": 1e-8,
    "codazzi": 1e-7,
    "degeneracy_floor": 1e-8,
    "curvature_relation": 1e-6,
    "trace_gradient": 1e-7,
    "lowered_symmetry": 1e-8,
    "conjugate_weingarten": 1e-7,
    "conjugate_second_form": 1e-7,
    "conjugate_curvature": 1e-7,
    "double_conjugate": 1e-9,
    "third_form": 1e-8,
    "expansion_weingarten": 1e-7,
    "expansion_second_form": 1e-7,
    "expansion_curvature": 1e-7,
    "expansion_trace": 1e-8,
    "expansion_normal": 1e-7,
    "expansion_pairing": 1e-9,
    "expansion_metric": 1e-9,
    "gauss_maps": 1e-10,
    "round_keta": 1e-8,
    "umbilic_point": 1e-6,
    "gauss_bonnet_induced": 1e-6,
    "gauss_bonnet_second": 1e-5,
    "second_form_area": 1e-6,
    "round_second_form_area": 1e-6,
    "lambda1_slack": 5e-2,
    "round_lambda1": 2e-2,
    "curvature_floor": 1e-6,
}

# name in the manifest -> (tolerance key, how the residual is judged)
#   abs:    |residual| <= tol
#   above:  residual > tol            (a floor that must be cleared)
#   slack:  residual >= -tol          (a one-sided slack)
#   excess: 0 <= residual <= tol      (the positive part of a violation)
_RULES = {name: (name, "abs") for name in TOLS}
_RULES.update(
    {
        "nondegeneracy": ("degeneracy_floor", "above"),
        "curvature_floor": ("curvature_floor", "slack"),
        "second_form_area_bound": ("second_form_area", "excess"),
        "eigenvalue_bound": ("lambda1_slack", "excess"),
    }
)

#: Checks `verify` must report on a closed surface with nondegenerate shape
#: operator and definite second form.
VERIFY_CLOSED_DEFINITE = (
    "on_cone", "normal_constraints", "position_weingarten", "weingarten_agreement",
    "normal_parallel", "second_form_symmetry", "shape_self_adjoint",
    "curvature_trace", "second_form_inner", "gap_floor", "gap_match", "codazzi",
    "nondegeneracy", "curvature_relation", "trace_gradient", "lowered_symmetry",
    "conjugate_weingarten", "conjugate_second_form", "conjugate_curvature",
    "third_form", "double_conjugate", "expansion_weingarten",
    "expansion_second_form", "expansion_curvature", "expansion_trace",
    "expansion_normal", "expansion_pairing", "expansion_metric", "gauss_maps",
    "umbilic_point",
)
VERIFY_ROUND_EXTRA = ("round_keta",)

GLOBAL_CLOSED = (
    "gauss_bonnet_induced", "gauss_bonnet_second", "second_form_area_bound",
    "curvature_floor", "eigenvalue_bound",
)
GLOBAL_ROUND_EXTRA = ("round_second_form_area", "round_lambda1")

EXPORT_HEADER = ["theta", "phi", "K", "Keta", "d", "gap_low", "gap_high", "psi0"]


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def judge_check(check):
    """Problems with one manifest entry, judged against the pinned tolerance."""
    name = check.get("name")
    res, tol = check.get("residual"), check.get("tolerance")
    if check.get("status") != "PASS":
        return [f"{name}: status {check.get('status')}"]
    if name not in _RULES:
        return [] if res is None or _finite(res) else [f"{name}: residual {res!r}"]
    key, rule = _RULES[name]
    pinned = TOLS[key]
    if rule == "slack":
        pinned = -pinned
    if not _finite(res):
        return [f"{name}: residual {res!r} is not a finite number"]
    if tol != pinned:
        return [f"{name}: tolerance {tol!r} differs from the pinned {pinned!r}"]
    ok = {
        "abs": abs(res) <= pinned,
        "above": res > pinned,
        "slack": res >= pinned,
        "excess": 0.0 <= res <= pinned,
    }[rule]
    return [] if ok else [f"{name}: residual {res!r} outside tolerance {pinned!r}"]


def _judge_manifest(manifest, required):
    problems = []
    checks = manifest.get("checks", [])
    names = [c.get("name") for c in checks]
    for name in required:
        if name not in names:
            problems.append(f"check {name} missing")
    for c in checks:
        problems += judge_check(c)
    if manifest.get("passed") is not True:
        problems.append("manifest does not report passed")
    return problems


def verify_manifest(manifest, surface, grid):
    """Re-judge a `verify` manifest of a closed surface with definite II."""
    required = VERIFY_CLOSED_DEFINITE
    if surface == "round-sphere":
        required += VERIFY_ROUND_EXTRA
    problems = _judge_manifest(manifest, required)
    cfg = manifest.get("config", {})
    if cfg.get("surface") != surface or cfg.get("grid") != list(grid):
        problems.append(f"config echo {cfg.get('surface')!r} {cfg.get('grid')!r} is not the request")
    return problems


def global_manifest(manifest, r):
    """Re-judge a `global` manifest of a round sphere of radius r."""
    problems = _judge_manifest(manifest, GLOBAL_CLOSED + GLOBAL_ROUND_EXTRA)
    rep = manifest.get("report", {})
    lam = rep.get("lambda1")
    expected = 2.0 / r**2
    if not _finite(lam) or abs(lam - expected) > TOLS["round_lambda1"] * expected:
        problems.append(f"lambda1 {lam!r} is not 2/r^2 = {expected!r} within 2e-2")
    area = rep.get("ii_eta_area")
    if not _finite(area) or abs(area - TWO_PI) > TOLS["round_second_form_area"]:
        problems.append(f"II-area {area!r} of a round sphere is not 2 pi")
    return problems


def real_harmonic(l, m, theta, phi):
    """Real orthonormal Y_lm from scipy's complex harmonics."""
    c = sph_harm_y(l, abs(m), theta, phi)
    if m > 0:
        return math.sqrt(2.0) * (-1) ** m * c.real
    if m < 0:
        return math.sqrt(2.0) * (-1) ** m * c.imag
    return c.real


def parse_table(text):
    """(header, float array) of an exported CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], None
    body = rows[1:]
    if any(len(row) != len(rows[0]) for row in body):
        return rows[0], None
    return rows[0], np.array(body, dtype=float).reshape(len(body), len(rows[0]))


def export_table(text, grid, r, terms):
    """Check an `export` table of the expansion e^sigma * round(r).

    ``terms`` lists sigma as [degree, order, amplitude] triples; empty means
    the round sphere.  The chart is unboosted, so psi0 = r e^sigma, the area
    element is psi0^2 dt dphi and the II element sqrt(d) psi0^2 dt dphi.
    When every term has one degree l, Delta sigma = -l(l+1) sigma and the
    conformal law reads K psi0^2 - 1 = l(l+1) log(psi0 / r).
    """
    header, data = parse_table(text)
    if header != EXPORT_HEADER:
        return [f"header {header!r}"]
    nt, nph = grid
    if data is None or data.shape[0] != nt * nph:
        return [f"expected {nt * nph} rows of {len(EXPORT_HEADER)} fields"]
    if not np.all(np.isfinite(data)):
        return ["non-finite entries"]
    th, ph, K, keta, d, glow, ghigh, psi0 = data.T
    problems = []

    t, wt = np.polynomial.legendre.leggauss(nt)
    theta = np.arccos(t[::-1])
    phi = TWO_PI * np.arange(nph) / nph
    if np.max(np.abs(th - np.repeat(theta, nph))) > 1e-12 or np.max(
        np.abs(ph - np.tile(phi, nt))
    ) > 1e-12:
        return ["nodes are not the Gauss-Legendre x uniform grid"]
    if np.any(d <= 0.0) or np.any(psi0 <= 0.0):
        return ["det A or psi0 not positive"]
    w = np.repeat(wt[::-1], nph) * (TWO_PI / nph)

    sigma = np.zeros_like(th)
    for l, m, a in terms:
        sigma += a * real_harmonic(l, m, th, ph)
    if np.max(np.abs(np.log(psi0 / r) - sigma)) > 1e-12:
        problems.append("psi0 is not r exp(sigma) of the spec")

    dA = w * psi0**2
    gb = float(np.sum(K * dA))
    if abs(gb - FOUR_PI) > 1e-6:
        problems.append(f"int K dA = {gb!r}, not 4 pi within 1e-6")
    dA2 = dA * np.sqrt(d)
    gb2 = float(np.sum(keta * dA2))
    if abs(gb2 - FOUR_PI) > 1e-5:
        problems.append(f"int Keta dA_II = {gb2!r}, not 4 pi within 1e-5")
    area2 = float(np.sum(dA2))
    if not terms and abs(area2 - TWO_PI) > 1e-6:
        problems.append(f"II-area {area2!r} of the round sphere is not 2 pi within 1e-6")
    if terms and not area2 < TWO_PI - 1e-6:
        problems.append(f"II-area {area2!r} of a non-umbilical sphere is not below 2 pi")

    degrees = {l for l, _, _ in terms}
    if len(degrees) <= 1:
        l = degrees.pop() if degrees else 0
        law = float(np.max(np.abs(K * psi0**2 - 1.0 - l * (l + 1) * np.log(psi0 / r))))
        if law > 1e-9:
            problems.append(f"conformal law off by {law!r} > 1e-9")
    if np.min(glow) < -1e-9:
        problems.append(f"gap_low reaches {float(np.min(glow))!r} < -1e-9")
    if np.max(np.abs(glow - ghigh)) > 1e-8:
        problems.append("gap_low and gap_high differ by more than 1e-8")
    return problems


SEARCH_CLASSES = {"umbilical", "candidate", "demoted", "inconclusive", "unconverged"}


def search_report(report, trace_text, config):
    """Hold a search report and its trace to the rigidity gates."""
    problems = []
    for key, value in config.items():
        if report.get("config", {}).get(key) != value:
            problems.append(f"config {key} echoed as {report.get('config', {}).get(key)!r}")
    results = report.get("results", [])
    if [r.get("start_index") for r in results] != list(range(config["n_starts"])):
        return problems + [f"expected starts 0..{config['n_starts'] - 1}"]
    converged = 0
    for r in results:
        s, mean, cls = r["start_index"], r.get("mean_keta"), r.get("classification")
        if cls not in SEARCH_CLASSES:
            problems.append(f"start {s}: classification {cls!r}")
        if r.get("iterations", 0) < 1:
            problems.append(f"start {s}: no simplex iterations")
        if r.get("converged_variance"):
            converged += 1
            if not _finite(mean) or mean < 2.0 - 1e-3:
                problems.append(f"start {s}: converged with mean K_II {mean!r} < 2 - 1e-3")
        if cls == "umbilical" and not (
            r.get("converged_variance") and _finite(mean) and abs(mean - 2.0) < 1e-3
        ):
            problems.append(f"start {s}: umbilical with mean K_II {mean!r}")
        if cls == "demoted" and not r.get("demotion_reason"):
            problems.append(f"start {s}: demoted without a reason")
        if cls == "candidate" and s not in report.get("candidates", []):
            problems.append(f"start {s}: candidate not listed")
    if converged == 0:
        problems.append("no start converged, so no gate was tested")
    variances = [r.get("variance") for r in results]
    if results and report.get("best_index") != int(np.argmin(variances)):
        problems.append(f"best_index {report.get('best_index')!r} is not the least variance")
    all_umb = all(r["classification"] == "umbilical" for r in results if r["converged_variance"])
    if report.get("all_umbilical") != all_umb:
        problems.append("all_umbilical disagrees with the classifications")

    rows = list(csv.reader(io.StringIO(trace_text)))
    if not rows or rows[0] != ["start", "eval", "objective", "variance", "mean_keta", "min_detA"]:
        return problems + ["trace header"]
    expect = {}
    for row in rows[1:]:
        s, k = int(row[0]), int(row[1])
        if k != expect.get(s, 0) or not 0 <= s < config["n_starts"]:
            return problems + [f"trace row {row!r} out of order"]
        expect[s] = k + 1
        if not math.isfinite(float(row[2])):
            return problems + [f"trace row {row!r} has a non-finite objective"]
    if sorted(expect) != list(range(config["n_starts"])):
        problems.append("trace does not cover every start")
    return problems


def identical(label, first, again):
    """Byte-identity of an output across repeated runs."""
    if first == again:
        return []
    n = min(len(first), len(again))
    at = next((i for i in range(n) if first[i] != again[i]), n)
    return [f"{label} differs from the first pass at byte {at}"]
