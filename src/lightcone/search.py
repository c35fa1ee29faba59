"""Numerical search for non-round surfaces with constant second-form curvature.

Every known compact nondegenerate example with constant curvature of the
second fundamental form is a round sphere (curvature exactly two); whether
any other exists is open.  This module minimizes the area-weighted variance
of that curvature, a sum of squares of one residual per node, over the
harmonic-perturbation family from many random starts by Levenberg-Marquardt.
A minimizer that is genuinely non-umbilical yet has (numerically)
constant curvature would be a counterexample candidate; everything found is
re-verified at doubled grid resolution before being reported.  The
machinery is the deliverable here, not the mathematical outcome.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import integrals, jets
from .catalog import HarmonicSpec, _direction_jets, perturbed_sphere, round_geometry
from .errors import LightconeError
from .harmonics import L_MAX, real_harmonic
from .jets import Jet2

# Trace objective of an evaluation that is not ``ok``: finite, so every trace
# row holds a number, and above every variance the search meets.
_WALL = 1e6
# Levenberg-Marquardt: forward-difference step of the Jacobian, first
# damping, and the stop thresholds on the variance, the step and the damping.
_FD_STEP = 1e-6
_MU_START = 1e-3
_VAR_FLOOR = 1e-24
_STEP_FLOOR = 1e-10
_MU_MAX = 1e12
# A converged minimizer is umbilical when its sup gap is below _UMBILIC_TOL
# and a candidate (re-checked on a doubled grid) when it is at least
# _CANDIDATE_GAP.
_UMBILIC_TOL = 1e-5
_CANDIDATE_GAP = 1e-3
# II and K_II do not change under psi -> c psi, so the variance does not
# depend on the radius and the search runs on the unit sphere.  A degree-0
# term is that dilation and a degree-1 term, to first order, a boost of the
# round sphere, so both stay frozen and the free degrees start at 2.
_RADIUS = 1.0
_LOWEST_FREE_DEGREE = 2

# Accepted values per annotated field type; bool is never accepted as a number.
_KINDS = {"int": numbers.Integral, "float": numbers.Real}


#: Tolerance of the ``closed_form_oracle`` check on ``StartResult.oracle_diff``.
ORACLE_TOL = 1e-9
#: Diagnostics that the closed form and the JetFrame oracle must agree on.
_ORACLE_FIELDS = ("variance", "mean_keta", "sup_gap_low", "min_detA")


@dataclass
class SearchConfig:
    """Knobs of the variance search; everything is echoed into reports."""

    degree_max: int = 3
    amplitude_bound: float = 0.15
    n_theta: int = 24
    n_phi: int = 48
    n_starts: int = 20
    max_iter: int = 400
    n_restarts: int = 1
    var_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _KINDS[f.type]):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        # Each test is written so that NaN fails it.
        for name in ("amplitude_bound", "var_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("n_theta", "n_phi", "n_starts", "max_iter"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.n_restarts >= 0:
            raise ValueError("n_restarts must be at least 0")
        if not self.seed >= 0:
            raise ValueError("seed must be at least 0")
        if not self.degree_max <= L_MAX:
            raise ValueError(f"degree_max must be at most {L_MAX}")
        if not self.free_pairs():
            raise ValueError(
                f"degree_max {self.degree_max} leaves no coefficient free "
                "beside the frozen degrees"
            )

    def free_pairs(self):
        return [
            (l, m)
            for l in range(_LOWEST_FREE_DEGREE, self.degree_max + 1)
            for m in range(-l, l + 1)
        ]

    def to_dict(self):
        return asdict(self)


class VarianceObjective:
    """Area-weighted variance of the II curvature, a sum of squares.

    Every surface of the family is ``e^sigma psi_round`` with
    ``sigma = sum_k x_k Y_k``, so its table follows from the jet of sigma by
    ``integrals.expansion_entries``, the step ``SphereGrid`` takes for a
    perturbed sphere.  The nodes, one jet per free harmonic and the round
    sphere's geometry are built once; ``diagnostics`` then needs one
    harmonic sum and that step per call.  ``frame_diagnostics`` reads the
    same entries from a ``geometry_table`` sweep of the perturbed sphere, a
    full ``JetFrame`` route, and is the independent oracle.  Both are pure
    deterministic functions of the coefficients and share one reduction,
    whose ``ok`` dict holds the residual vector sqrt(w / area) (K_eta - mean);
    its squares sum to the variance.
    """

    def __init__(self, config):
        self.config = config
        self.pairs = config.free_pairs()
        self.TH, self.PH, self.w_nodes = integrals.sphere_quadrature(config.n_theta, config.n_phi)
        self._sin = np.sin(self.TH)
        tj = Jet2.variable("u", self.TH)
        w = _direction_jets(tj, Jet2.variable("v", self.PH))
        self._harmonics = real_harmonic(self.pairs, *w)
        self._round = round_geometry(tj, _RADIUS)

    def spec(self, x):
        return HarmonicSpec.unpack(self.pairs, x)

    def diagnostics(self, x):
        """Variance, mean, sup deviation, min det A and sup gap for a vector."""
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = jets.weighted_sum(self._harmonics, x)
        return self._reduce(integrals.expansion_entries(self._round, sigma, _RADIUS))

    def frame_diagnostics(self, x):
        """The same dict as ``diagnostics``, read from a ``geometry_table`` (the oracle)."""
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                patch = perturbed_sphere(self.spec(x), r=_RADIUS)
                table = integrals.geometry_table(patch, self.TH, self.PH)
        except LightconeError:
            table = None
        return self._reduce(table)

    def _reduce(self, table):
        """Report fields of a table; a missing, non-finite or gated one is not ``ok``.

        An ``ok`` table passes the det A > 1e-6 / definite-II gate and its
        objective is the variance, and ``residual`` its residual vector; any
        other scores ``_WALL``.
        """
        w = None if table is None else integrals.induced_weights(self.w_nodes, self._sin, table)
        if w is None or not all(
            np.isfinite(a).all() for a in (table["detA"], w, table["gap_low"])
        ):
            return {"ok": False, "objective": _WALL, "variance": np.inf}
        min_d = float(table["detA"].min())
        if min_d <= 1e-6 or not table["ii_positive"].all():
            return {"ok": False, "objective": _WALL, "variance": np.inf, "min_detA": min_d}
        keta = table["K_eta"]
        area = float(w.sum())
        mean = float((w * keta).sum()) / area
        residual = np.sqrt(w / area) * (keta - mean)
        var = float(residual @ residual)
        return {
            "ok": True,
            "objective": var,
            "variance": var,
            "residual": residual,
            "mean_keta": mean,
            "sup_dev": float(np.abs(keta - mean).max()),
            "sup_gap_low": float(table["gap_low"].max()),
            "min_detA": min_d,
        }


@dataclass
class StartResult:
    start_index: int
    x0: list
    coefficients: list
    objective: float
    variance: float
    mean_keta: float
    sup_dev: float
    sup_gap_low: float
    min_detA: float
    iterations: int
    evaluations: int
    start_halvings: int
    converged_variance: bool
    classification: str
    oracle_diff: float
    demotion_reason: str = ""


@dataclass
class SearchReport:
    config: dict
    results: list
    best_index: int
    all_umbilical: bool
    candidates: list
    trace_rows: list = field(repr=False, default_factory=list)

    def to_json(self):
        payload = {
            "config": self.config,
            "best_index": self.best_index,
            "all_umbilical": self.all_umbilical,
            "candidates": self.candidates,
            "results": [asdict(r) for r in self.results],
        }
        return json.dumps(payload, indent=2)

    def trace_csv(self):
        rows = [("start", "eval", "objective", "variance", "mean_keta", "min_detA")]
        return "".join(",".join(map(str, row)) + "\n" for row in rows + self.trace_rows)


def _levenberg_marquardt(residual, x, r, max_iter, bound, var_tol):
    """Levenberg-Marquardt descent of |residual|^2 from x, whose residual is r.

    Nocedal & Wright, *Numerical Optimization*, ch. 10.  ``residual(x)``
    returns a vector, or None where x cannot be evaluated.  Each step
    solves (J^T J + mu D) d = -J^T r in the least-squares sense, with
    Marquardt's scaling D = diag(J^T J) and the forward-difference Jacobian
    J, rebuilt after every accepted step.  A step is accepted only if its
    point evaluates, stays in the box |x_k| <= bound and lowers |r|^2; then
    mu falls tenfold, and otherwise it grows tenfold.  The descent stops
    when |r|^2 < ``_VAR_FLOOR``, a step is below ``_STEP_FLOOR`` in every
    coordinate, mu exceeds ``_MU_MAX``, after ``max_iter`` steps, or once
    |r|^2 < ``var_tol`` at a step that does not halve it: converged, the
    descent has met the rounding noise of the residual.  Returns (x, r, steps).
    """
    mu, steps, jac = _MU_START, 0, None
    while steps < max_iter and r @ r >= _VAR_FLOOR and mu <= _MU_MAX:
        if jac is None:
            # A probe that cannot be evaluated leaves its column zero.
            probes = [residual(x + e) for e in _FD_STEP * np.eye(x.size)]
            jac = np.stack(
                [np.zeros_like(r) if p is None else (p - r) / _FD_STEP for p in probes], axis=1
            )
        steps += 1
        damping = np.sqrt(mu * np.sum(jac * jac, axis=0))
        d = np.linalg.lstsq(
            np.vstack([jac, np.diag(damping)]), np.concatenate([-r, np.zeros(x.size)]),
            rcond=None,
        )[0]
        if np.max(np.abs(d)) < _STEP_FLOOR:
            break
        trial, before = x + d, r @ r
        rt = residual(trial) if np.max(np.abs(trial)) <= bound else None
        if rt is not None and rt @ rt < before:
            x, r, mu, jac = trial, rt, mu / 10.0, None
        else:
            mu *= 10.0
        if before < var_tol and r @ r > 0.5 * before:
            break
    return x, r, steps


def _minimize_one(obj, x0, config):
    """Levenberg-Marquardt rounds from the first admissible halving of x0.

    Returns (x, per-evaluation trace, steps, halvings).  Every evaluation,
    Jacobian probes included, goes through ``obj.diagnostics`` and leaves
    one trace row.  Each of the ``n_restarts`` further rounds starts again
    from the end point with a fresh Jacobian and damping.
    """
    trace = []

    def residual(x):
        d = obj.diagnostics(x)
        trace.append(
            (len(trace), d["objective"], d["variance"], d.get("mean_keta", np.nan),
             d.get("min_detA", np.nan))
        )
        return d.get("residual")

    # The round sphere, x = 0, is admissible, and so is a neighbourhood of it.
    x, halvings = np.asarray(x0, dtype=float), 0
    while (r := residual(x)) is None:
        x, halvings = 0.5 * x, halvings + 1
    steps = 0
    for _ in range(config.n_restarts + 1):
        x, r, k = _levenberg_marquardt(residual, x, r, config.max_iter,
                                       config.amplitude_bound, config.var_tol)
        steps += k
    return x, trace, steps, halvings


def search(config):
    """Multi-start variance minimization over the perturbation family.

    Start points are drawn from a seeded generator, so the whole run
    (including the per-evaluation trace) is reproducible bit for bit.
    Levenberg-Marquardt steers by the closed-form objective; each start's
    reported fields and every candidate re-check come from the ``JetFrame``
    oracle, and ``oracle_diff`` records how far the two routes part at the
    minimizer.
    Converged minimizers are classified as umbilical when the low gap is
    tiny; a small-variance minimizer with a decisively non-umbilical gap is
    a candidate and must survive re-verification on a doubled grid or it is
    demoted with the reason recorded.
    """
    obj = VarianceObjective(config)
    rng = np.random.default_rng(config.seed)
    dim = len(obj.pairs)
    starts = rng.uniform(
        -0.5 * config.amplitude_bound, 0.5 * config.amplitude_bound,
        size=(config.n_starts, dim),
    )

    results = []
    trace_rows = []
    candidates = []
    for s in range(config.n_starts):
        x, trace, iters, halvings = _minimize_one(obj, starts[s], config)
        for row in trace:
            trace_rows.append((s,) + row)
        d = obj.frame_diagnostics(x)
        converged = d["ok"] and d["variance"] < config.var_tol
        classification = "unconverged"
        reason = ""
        if converged:
            if d["sup_gap_low"] < _UMBILIC_TOL:
                classification = "umbilical"
            elif d["sup_gap_low"] >= _CANDIDATE_GAP:
                fine = VarianceObjective(
                    replace(config, n_theta=2 * config.n_theta, n_phi=2 * config.n_phi)
                )
                fd = fine.frame_diagnostics(x)
                if (
                    fd["ok"]
                    and fd["variance"] < config.var_tol
                    and fd["sup_gap_low"] >= _CANDIDATE_GAP
                ):
                    classification = "candidate"
                    candidates.append(s)
                else:
                    classification = "demoted"
                    reason = (
                        f"doubled grid: variance {fd.get('variance', np.inf):.3e}, "
                        f"sup gap {fd.get('sup_gap_low', np.nan):.3e}"
                    )
            else:
                classification = "inconclusive"
        results.append(
            StartResult(
                start_index=s,
                x0=[float(t) for t in starts[s]],
                coefficients=[float(t) for t in x],
                objective=float(d["objective"]),
                variance=float(d["variance"]),
                mean_keta=float(d.get("mean_keta", np.nan)),
                sup_dev=float(d.get("sup_dev", np.nan)),
                sup_gap_low=float(d.get("sup_gap_low", np.nan)),
                min_detA=float(d.get("min_detA", np.nan)),
                iterations=iters,
                evaluations=len(trace),
                start_halvings=halvings,
                converged_variance=bool(converged),
                classification=classification,
                oracle_diff=_oracle_difference(obj.diagnostics(x), d),
                demotion_reason=reason,
            )
        )

    best = int(np.argmin([r.variance for r in results]))
    all_umb = all(
        r.classification == "umbilical" for r in results if r.converged_variance
    )
    return SearchReport(
        config=config.to_dict(),
        results=results,
        best_index=best,
        all_umbilical=all_umb,
        candidates=candidates,
        trace_rows=trace_rows,
    )


def _oracle_difference(fast, oracle):
    """``integrals.worst_relative_gap`` of the compared fields; inf when ``ok`` differs.

    A field that both routes leave out, or hold at the same value (an
    infinite variance on the wall), agrees; one left out by a single route
    gives NaN.
    """
    return integrals.worst_relative_gap(
        ((fast.get(k, np.nan), oracle.get(k, np.nan)) for k in _ORACLE_FIELDS),
        fast["ok"] == oracle["ok"],
    )


def umbilical_offset(report, config):
    """Largest |mean K_eta - 2| over converged starts with sup gap below var_tol.

    Such a minimizer is numerically umbilical, hence round, so its second
    form has curvature two.  ``None`` when no start qualifies.
    """
    offsets = [
        abs(r.mean_keta - 2.0)
        for r in report.results
        if r.converged_variance and r.sup_gap_low < config.var_tol
    ]
    return max(offsets) if offsets else None
