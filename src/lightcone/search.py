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

import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import integrals, jets
from .catalog import HarmonicSpec, _direction_jets, perturbed_sphere, round_geometry
from .errors import LightconeError
from .harmonics import L_MAX, real_harmonic
from .jets import Jet2

# Objective floor of a surface that fails the det A / definiteness gate.  Its
# det A barrier is capped at _WALL and a surface that cannot be evaluated
# scores 2 _WALL, so at one amplitude-box penalty, every gated surface scores
# above every admissible one and below every unevaluable one.
_WALL = 1e6
_BOX_MAX = float(np.finfo(float).max)
# Below this min det A the det A barrier rises, with this weight; the same
# weight scales the amplitude-box penalty.
_BARRIER_FLOOR = 0.05
_BARRIER_WEIGHT = 1e6
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
    """Area-weighted variance of the II curvature plus a degeneracy barrier.

    Every surface of the family is ``e^sigma psi_round`` with
    ``sigma = sum_k x_k Y_k``, so its table follows from the jet of sigma by
    ``integrals.expansion_entries``, the step ``SphereGrid`` takes for a
    perturbed sphere.  The nodes, one jet per free harmonic and the round
    sphere's geometry are built once; ``diagnostics`` then needs one
    harmonic sum and that step per call.  ``frame_diagnostics`` reads the
    same entries from a ``geometry_table`` sweep of the perturbed sphere, a
    full ``JetFrame`` route, and is the independent oracle.  Both are pure
    deterministic functions of the coefficients and share one reduction.
    """

    def __init__(self, config, n_theta=None, n_phi=None):
        self.config = config
        self.pairs = config.free_pairs()
        self.n_theta = n_theta or config.n_theta
        self.n_phi = n_phi or config.n_phi
        self.TH, self.PH, self.w_nodes = integrals.sphere_quadrature(self.n_theta, self.n_phi)
        self._sin = np.sin(self.TH)
        tj = Jet2.variable("u", self.TH)
        w = _direction_jets(tj, Jet2.variable("v", self.PH))
        self._harmonics = [real_harmonic(l, m, *w) for l, m in self.pairs]
        self._round = round_geometry(tj, _RADIUS)

    def spec(self, x):
        return HarmonicSpec.unpack(self.pairs, x)

    def diagnostics(self, x):
        """Variance, mean, sup deviation, min det A and sup gap for a vector."""
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = jets.weighted_sum(self._harmonics, x)
        return self._reduce(x, integrals.expansion_entries(self._round, sigma, _RADIUS))

    def frame_diagnostics(self, x):
        """The same dict as ``diagnostics``, read from a ``geometry_table`` (the oracle)."""
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                patch = perturbed_sphere(self.spec(x), r=_RADIUS)
                table = integrals.geometry_table(patch, self.TH, self.PH)
        except LightconeError:
            table = None
        return self._reduce(x, table)

    def _reduce(self, x, table):
        """Objective and report fields; no table or non-finite entries hit the wall."""
        over = np.maximum(0.0, np.abs(np.asarray(x)) - self.config.amplitude_bound)
        # Saturates at the largest float, so the objective stays finite and
        # does not decrease along a ray out of the box.
        with np.errstate(over="ignore"):
            box = min(_BARRIER_WEIGHT * float(np.sum(over**2)), _BOX_MAX)
        w = None if table is None else integrals.induced_weights(self.w_nodes, self._sin, table)
        if w is None or not all(
            np.isfinite(a).all() for a in (table["detA"], w, table["gap_low"])
        ):
            return {"ok": False, "objective": 2.0 * _WALL + box, "variance": np.inf}
        min_d = float(table["detA"].min())
        excess = max(0.0, _BARRIER_FLOOR - min_d)
        if min_d <= 1e-6 or not table["ii_positive"].all():
            # The product form overflows to inf, where ``** 2`` would raise.
            barrier = min(_BARRIER_WEIGHT * (excess * excess), _WALL)
            return {
                "ok": False,
                "objective": _WALL + (barrier + box),
                "variance": np.inf,
                "min_detA": min_d,
            }
        barrier = _BARRIER_WEIGHT * excess**2 + box
        keta = table["K_eta"]
        area = float(w.sum())
        mean = float((w * keta).sum()) / area
        var = float((w * (keta - mean) ** 2).sum()) / area
        return {
            "ok": True,
            "objective": var + barrier,
            "variance": var,
            "mean_keta": mean,
            "sup_dev": float(np.abs(keta - mean).max()),
            "sup_gap_low": float(table["gap_low"].max()),
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
        rows = [("start", "eval", "objective", "variance", "mean_keta", "min_detA")]
        return "".join(",".join(map(str, row)) + "\n" for row in rows + self.trace_rows)


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
            if d["sup_gap_low"] < _UMBILIC_TOL:
                classification = "umbilical"
            elif d["sup_gap_low"] >= _CANDIDATE_GAP:
                fine = VarianceObjective(
                    config, n_theta=2 * config.n_theta, n_phi=2 * config.n_phi
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
