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
from typing import Callable, NamedTuple

import numpy as np

from . import jets
from .catalog import HarmonicSpec, _direction_jets, perturbed_sphere
from .curvature import MetricField, brioschi_curvature
from .errors import LightconeError
from .harmonics import L_MAX, real_harmonic
from .integrals import SphereGrid, sphere_quadrature
from .jets import Jet2

# Objective floor of a surface that fails the det A / definiteness gate.  Its
# det A barrier is capped at _WALL and a surface that cannot be evaluated
# scores 2 _WALL, so at one amplitude-box penalty, every gated surface scores
# above every admissible one and below every unevaluable one.
_WALL = 1e6
_BOX_MAX = float(np.finfo(float).max)

# Accepted values per annotated field type; bool is never accepted as a number.
_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}


#: Tolerance of the ``closed_form_oracle`` check on ``StartResult.oracle_diff``.
ORACLE_TOL = 1e-9
#: Diagnostics that the closed form and the JetFrame oracle must agree on.
_ORACLE_FIELDS = ("variance", "mean_keta", "sup_gap_low", "min_detA")


class _Fields(NamedTuple):
    """Per-node values the objective reduces; ``keta`` runs only past the gate."""

    detA: np.ndarray
    K: np.ndarray
    ii_positive: np.ndarray
    weight: np.ndarray
    gap_low: np.ndarray
    keta: Callable[[], np.ndarray]


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
        # The closed form scales by r^2 and r^4; both must be nonzero floats.
        try:
            r4 = float(self.radius) ** 4
        except OverflowError:
            r4 = np.inf
        if not 0.0 < r4 < np.inf:
            raise ValueError("radius**4 must be a positive finite float")
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

    Every surface of the family is ``e^sigma psi_round`` with
    ``sigma = sum_k x_k Y_k``, so the fields the objective reads have closed
    forms in the jet of sigma on the unit sphere (the expansion law).  The
    nodes, one jet per free harmonic and the sphere jets are built once;
    ``diagnostics`` then needs one harmonic sum, a few jet products and the
    Brioschi formula per call.  ``frame_diagnostics`` reads the same fields
    from the ``SphereGrid`` table of the perturbed sphere, a full ``JetFrame``
    route, and is the independent oracle.  Both are pure deterministic
    functions of the coefficients and share one reduction.
    """

    def __init__(self, config, n_theta=None, n_phi=None):
        self.config = config
        self.pairs = config.free_pairs()
        self.n_theta = n_theta or config.n_theta
        self.n_phi = n_phi or config.n_phi
        self.TH, self.PH, self.w_nodes = sphere_quadrature(self.n_theta, self.n_phi)
        tj = Jet2.variable("u", self.TH)
        w = _direction_jets(tj, Jet2.variable("v", self.PH))
        self._harmonics = [real_harmonic(l, m, *w) for l, m in self.pairs]
        sin, cos = jets.sin(tj), jets.cos(tj)
        self._cot = cos / sin
        self._sin_cos = sin * cos
        self._sin2 = sin * sin
        self._inv_sin2 = 1.0 / self._sin2

    def spec(self, x):
        return HarmonicSpec.unpack(self.pairs, x)

    def diagnostics(self, x):
        """Variance, mean, sup deviation, min det A and sup gap for a vector."""
        return self._reduce(x, self._closed_form_fields(x))

    def frame_diagnostics(self, x):
        """The same dict as ``diagnostics``, read from a ``SphereGrid`` (the oracle)."""
        return self._reduce(x, self._frame_fields(x))

    def _closed_form_fields(self, x):
        """Fields of e^sigma psi_round from the sigma jet on the unit sphere.

        II' = 1/2 g + dsigma dsigma - 1/2 |grad sigma|^2 g - Hess sigma in the
        unit-sphere metric g, whatever the radius; det A' = det II' / det g'
        with g' = e^{2 sigma} r^2 g, and K' = (1 - Lap sigma) e^{-2 sigma} / r^2.
        """
        r2 = self.config.radius**2
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            sigma = 0.0
            for y, a in zip(self._harmonics, x):
                sigma = y * float(a) + sigma
            s_t, s_p = sigma.d("u"), sigma.d("v")
            s_tt, s_tp, s_pp = s_t.d("u"), s_t.d("v"), s_p.d("v")
            sq_t, sq_p = s_t * s_t, s_p * s_p
            rest = (1.0 - (sq_t + sq_p * self._inv_sin2)) * 0.5
            E = rest + sq_t - s_tt
            F = s_t * s_p - (s_tp - self._cot * s_p)
            G = self._sin2 * rest + sq_p - (s_pp + self._sin_cos * s_t)
            det_ii = E.value * G.value - F.value * F.value
            lap = s_tt.value + self._cot.value * s_t.value + s_pp.value * self._inv_sin2.value
            e2 = np.exp(2.0 * sigma.value)
            detA = det_ii / (e2 * e2 * (r2 * r2) * self._sin2.value)
            K = (1.0 - lap) / (e2 * r2)
            return _Fields(
                detA=detA,
                K=K,
                ii_positive=(E.value > 0.0) & (det_ii > 0.0),
                weight=self.w_nodes * e2 * r2,
                gap_low=K * K - 4.0 * detA,
                keta=lambda: brioschi_curvature(MetricField(E, F, G)),
            )

    def _frame_fields(self, x):
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                patch = perturbed_sphere(self.spec(x), r=self.config.radius)
                grid = SphereGrid(patch, self.n_theta, self.n_phi)
        except LightconeError:
            return None
        t = grid.table
        return _Fields(
            detA=t["detA"],
            K=t["K"],
            ii_positive=t["ii_positive"],
            weight=grid.weights,
            gap_low=t["gap_low"],
            keta=lambda: t["K_eta"],
        )

    def _reduce(self, x, fields):
        """Objective and report fields; ``None`` or non-finite fields hit the wall."""
        cfg = self.config
        over = np.maximum(0.0, np.abs(np.asarray(x)) - cfg.amplitude_bound)
        # Saturates at the largest float, so the objective stays finite and
        # does not decrease along a ray out of the box.
        with np.errstate(over="ignore"):
            box = min(cfg.barrier_weight * float(np.sum(over**2)), _BOX_MAX)
        if fields is None or not all(
            np.all(np.isfinite(a)) for a in (fields.detA, fields.weight, fields.gap_low)
        ):
            return {"ok": False, "objective": 2.0 * _WALL + box, "variance": np.inf}
        min_d = float(np.min(fields.detA))
        excess = max(0.0, cfg.barrier_floor - min_d)
        if min_d <= 1e-6 or not np.all(fields.ii_positive):
            # The product form overflows to inf, where ``** 2`` would raise.
            barrier = min(cfg.barrier_weight * (excess * excess), _WALL)
            return {
                "ok": False,
                "objective": _WALL + (barrier + box),
                "variance": np.inf,
                "min_detA": min_d,
            }
        barrier = cfg.barrier_weight * excess**2 + box
        keta = fields.keta()
        w = fields.weight
        area = float(np.sum(w))
        mean = float(np.sum(w * keta)) / area
        var = float(np.sum(w * (keta - mean) ** 2)) / area
        return {
            "ok": True,
            "objective": var + barrier,
            "variance": var,
            "mean_keta": mean,
            "sup_dev": float(np.max(np.abs(keta - mean))),
            "sup_gap_low": float(np.max(fields.gap_low)),
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
    evaluations: int
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
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            ["start", "eval", "objective", "variance", "mean_keta", "min_detA"]
        )
        for row in self.trace_rows:
            w.writerow(row)
        return buf.getvalue()


def _nelder_mead(f, simplex, max_iter, xatol, fatol):
    """Nelder-Mead simplex descent from an (N + 1, N) simplex; returns (x, iterations).

    Nelder & Mead, Comput. J. 7 (1965) 308, with reflection 1, expansion 2,
    contraction 1/2 and shrink 1/2.  The steps, the sorts and the stopping
    test are written as in scipy's ``minimize(method="Nelder-Mead")``
    without bounds or adaptive coefficients, so the vertices come out bit
    for bit the same, and ``f`` likewise receives a copy of each vertex.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = f(np.copy(sim[k]))
    # Two sorts here, then one per iteration: on tied values each sort may
    # reorder the tie, so the sequence of sorts fixes which vertex leads.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    iterations = 1
    while iterations < max_iter:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - 1 * sim[-1]
        fxr = f(np.copy(xr))
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(np.copy(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                x_in = 1.5 * xbar - 0.5 * sim[-1]
                f_in = f(np.copy(x_in))
                accept = f_in <= fxr
            else:
                x_in = 0.5 * xbar + 0.5 * sim[-1]
                f_in = f(np.copy(x_in))
                accept = f_in < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = x_in, f_in
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(np.copy(sim[j]))
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], iterations


def _minimize_one(obj, x0, config):
    """Simplex descent with restarts; returns (x, per-evaluation trace, iterations)."""
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
        x, iters = _nelder_mead(wrapped, simplex, config.max_iter, xatol=1e-6, fatol=1e-12)
        total_iters += iters
        step *= 0.1
    return x, trace, total_iters


def search(config):
    """Multi-start variance minimization over the perturbation family.

    Start points are drawn from a seeded generator, so the whole run
    (including the per-evaluation trace) is reproducible bit for bit.
    The simplex steers by the closed-form objective; each start's reported
    fields and every candidate re-check come from the ``JetFrame`` oracle,
    and ``oracle_diff`` records how far the two routes part at the minimizer.
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
        x, trace, iters = _minimize_one(obj, starts[s], config)
        for row in trace:
            trace_rows.append((s,) + row)
        d = obj.frame_diagnostics(x)
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
                fd = fine.frame_diagnostics(x)
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
                evaluations=len(trace),
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
    """Largest relative difference of the compared fields; inf when ``ok`` differs.

    Each field is compared relative to max(1, |oracle value|).  A field that
    both routes leave out, or hold at the same value (an infinite variance on
    the wall), agrees; one left out by a single route gives NaN.
    """
    if fast["ok"] != oracle["ok"]:
        return np.inf
    diffs = [0.0]
    for key in _ORACLE_FIELDS:
        a, b = fast.get(key, np.nan), oracle.get(key, np.nan)
        if not (a == b or (np.isnan(a) and np.isnan(b))):
            diffs.append(abs(a - b) / max(1.0, abs(b)))
    return float(np.max(diffs))


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
