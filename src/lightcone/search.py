"""Numerical search for non-round surfaces with constant second-form curvature.

Every known compact nondegenerate example with constant curvature of the
second fundamental form is a round sphere (curvature exactly two); whether
any other exists is open.  This module minimizes the area-weighted variance
of that curvature over the harmonic-perturbation family from many random
starts.  A minimizer that is genuinely non-umbilical yet has (numerically)
constant curvature would be a counterexample candidate; everything found is
re-verified at doubled grid resolution before being reported.  The
machinery is the deliverable here, not the mathematical outcome.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.optimize import minimize

from .catalog import HarmonicSpec, perturbed_sphere
from .errors import LightconeError
from .harmonics import L_MAX
from .integrals import sphere_quadrature
from .surfaces import JetFrame

_WALL = 1e6  # objective value returned when a surface cannot be evaluated

# Accepted values per annotated field type; bool is never accepted as a number.
_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}


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
    umbilic_tol: float = 1e-5
    candidate_gap: float = 1e-3
    barrier_floor: float = 0.05
    barrier_weight: float = 1e6
    freeze_degree0: bool = True
    freeze_degree1: bool = True
    radius: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _KINDS[f.type]) or (
                isinstance(value, bool) and f.type != "bool"
            ):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        # Each test is written so that NaN fails it.
        for name in (
            "amplitude_bound", "var_tol", "umbilic_tol", "candidate_gap",
            "barrier_floor", "barrier_weight", "radius",
        ):
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
        lo = 2 if self.freeze_degree1 else 1
        if not self.freeze_degree0:
            lo = 0
        return [
            (l, m)
            for l in range(lo, self.degree_max + 1)
            for m in range(-l, l + 1)
        ]

    def to_dict(self):
        return asdict(self)


class VarianceObjective:
    """Area-weighted variance of the II curvature plus a degeneracy barrier.

    Nodes and quadrature weights are fixed per configuration; each call
    rebuilds the perturbed sphere, so the objective is a pure deterministic
    function of the coefficient vector.
    """

    def __init__(self, config, n_theta=None, n_phi=None):
        self.config = config
        self.pairs = config.free_pairs()
        nt = n_theta or config.n_theta
        nph = n_phi or config.n_phi
        self.TH, self.PH, self.w_nodes = sphere_quadrature(nt, nph)
        self.sin_th = np.sin(self.TH)

    def spec(self, x):
        return HarmonicSpec.unpack(self.pairs, x)

    def diagnostics(self, x):
        """Variance, mean, sup deviation, min det A and sup gap for a vector."""
        cfg = self.config
        patch = perturbed_sphere(self.spec(x), r=cfg.radius)
        try:
            frame = JetFrame(patch, self.TH, self.PH)
        except LightconeError:
            return {"ok": False, "objective": _WALL, "variance": np.inf}
        d = frame.detA_val
        min_d = float(np.min(d))
        barrier = cfg.barrier_weight * max(0.0, cfg.barrier_floor - min_d) ** 2
        over = np.maximum(0.0, np.abs(np.asarray(x)) - cfg.amplitude_bound)
        barrier += cfg.barrier_weight * float(np.sum(over**2))
        if min_d <= 1e-6 or not np.all(frame.ii_positive):
            return {
                "ok": False,
                "objective": _WALL + barrier,
                "variance": np.inf,
                "min_detA": min_d,
            }
        from .curvature import brioschi_curvature, second_form_metric_field

        keta = brioschi_curvature(second_form_metric_field(frame))
        w = self.w_nodes * frame.sqrt_detg_val / self.sin_th
        area = float(np.sum(w))
        mean = float(np.sum(w * keta)) / area
        var = float(np.sum(w * (keta - mean) ** 2)) / area
        gap = frame.gap_low
        return {
            "ok": True,
            "objective": var + barrier,
            "variance": var,
            "mean_keta": mean,
            "sup_dev": float(np.max(np.abs(keta - mean))),
            "sup_gap_low": float(np.max(gap)),
            "min_detA": min_d,
        }

    def __call__(self, x):
        return self.diagnostics(x)["objective"]


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
    converged_variance: bool
    classification: str
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
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            ["start", "eval", "objective", "variance", "mean_keta", "min_detA"]
        )
        for row in self.trace_rows:
            w.writerow(row)
        return buf.getvalue()


def _minimize_one(obj, x0, config):
    """Simplex descent with restarts; returns (x, n_evals_trace)."""
    trace = []

    def wrapped(x):
        d = obj.diagnostics(x)
        trace.append(
            (
                len(trace),
                d["objective"],
                d.get("variance", np.inf),
                d.get("mean_keta", np.nan),
                d.get("min_detA", np.nan),
            )
        )
        return d["objective"]

    x = np.asarray(x0, dtype=float)
    step = 0.02
    total_iters = 0
    for _ in range(config.n_restarts + 1):
        simplex = np.vstack([x] + [x + step * e for e in np.eye(x.size)])
        res = minimize(
            wrapped,
            x,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "maxiter": config.max_iter,
                "xatol": 1e-6,
                "fatol": 1e-12,
                "adaptive": False,
            },
        )
        x = res.x
        total_iters += res.nit
        step *= 0.1
    return x, trace, total_iters


def search(config=None):
    """Multi-start variance minimization over the perturbation family.

    Start points are drawn from a seeded generator, so the whole run
    (including the per-evaluation trace) is reproducible bit for bit.
    Converged minimizers are classified as umbilical when the low gap is
    tiny; a small-variance minimizer with a decisively non-umbilical gap is
    a candidate and must survive re-verification on a doubled grid or it is
    demoted with the reason recorded.
    """
    config = config or SearchConfig()
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
        x, trace, iters = _minimize_one(obj, starts[s], config)
        for row in trace:
            trace_rows.append((s,) + row)
        d = obj.diagnostics(x)
        converged = d["ok"] and d["variance"] < config.var_tol
        classification = "unconverged"
        reason = ""
        if converged:
            if d["sup_gap_low"] < config.umbilic_tol:
                classification = "umbilical"
            elif d["sup_gap_low"] >= config.candidate_gap:
                fine = VarianceObjective(
                    config, n_theta=2 * config.n_theta, n_phi=2 * config.n_phi
                )
                fd = fine.diagnostics(x)
                if (
                    fd["ok"]
                    and fd["variance"] < config.var_tol
                    and fd["sup_gap_low"] >= config.candidate_gap
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
                converged_variance=bool(converged),
                classification=classification,
                demotion_reason=reason,
            )
        )

    best = int(np.argmin([r.variance for r in results]))
    all_umb = all(
        r.classification == "umbilical" for r in results if r.converged_variance
    )
    report = SearchReport(
        config=config.to_dict(),
        results=results,
        best_index=best,
        all_umbilical=all_umb,
        candidates=candidates,
        trace_rows=trace_rows,
    )
    _check_report_consistency(report, config)
    return report


def _check_report_consistency(report, config):
    """Converged + umbilical minimizers must sit at curvature two."""
    for r in report.results:
        if (
            r.converged_variance
            and r.sup_gap_low < config.var_tol
            and abs(r.mean_keta - 2.0) >= 10.0 * config.var_tol
        ):
            raise AssertionError(
                f"start {r.start_index}: variance and gap converged but mean "
                f"curvature {r.mean_keta} is away from two"
            )


def rotation_block(l, R, n_theta=24, n_phi=48):
    """Orthogonal action of a rotation on the degree-l coefficient block.

    Built by quadrature of Y_l(R w) against Y_l(w); exact for polynomial
    harmonics at this node count.  Used to check the gauge invariance of
    the objective.
    """
    from .harmonics import real_harmonic

    TH, PH, w = sphere_quadrature(n_theta, n_phi)
    x = np.sin(TH) * np.cos(PH)
    y = np.sin(TH) * np.sin(PH)
    z = np.cos(TH)
    pts = np.stack([x, y, z], axis=0)
    rpts = np.asarray(R, dtype=float) @ pts
    ms = range(-l, l + 1)
    D = np.empty((len(ms), len(ms)))
    for i, mi in enumerate(ms):
        yi = real_harmonic(l, mi, rpts[0], rpts[1], rpts[2])
        for j, mj in enumerate(ms):
            yj = real_harmonic(l, mj, x, y, z)
            D[i, j] = float(np.sum(w * yi * yj))
    return D
