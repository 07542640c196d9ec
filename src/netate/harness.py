"""Scenario registry, seeded Monte Carlo driver, variance oracles, reports.

Replicates are seeded from (master seed, replicate index) through a
SeedSequence, run serially or across a process pool, and aggregated in
replicate order in the parent.  No number depends on the BLAS threads a
process runs, which differ between a pool child and the parent: the dense
eigh runs on one thread (leading_eigenpairs), and the Lanczos products on
several threads sum each row as one thread does; tools/seeded_digests.py
checks both at one and two threads.  So every summary is bit-identical for
any worker count.  Draws inside a replicate follow a fixed order: latents,
graph, treatments, covariates, outcome noise.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from ._blas import set_openblas_threads, usable_cores
from ._errors import NetateError, ReplicateFailureError, UnknownScenarioError
from .estimators import (
    EstimateResult,
    _np_config,
    _np_tuning,
    difference_in_means,
    linear_adjusted,
    nonparametric,
)
from .graphon import GraphonSpec, Network, graphon_b, make_graphon, sample_graph, sample_latents
from .kernels import KernelConfig
from .trial import (
    MonteCarloValue,
    OutcomeModel,
    TrialData,
    assign_treatments,
    conditional_mean,
    exposure_fractions,
    load_edge_list,
    outcome_exposure_derivative,
    outcome_values,
    sample_covariates,
    sample_outcome_noise,
    simulate_outcomes,
)
from .variance import (
    LEVEL,
    confidence_interval,
    conservative_network_term,
    estimate_b,
    estimate_derivative_means,
    leading_eigenpairs,
    pc_balancing_weights,
    variance_np_polyseq,
    variance_reg,
)

__all__ = [
    "Scenario",
    "MethodSummary",
    "ScenarioSummary",
    "get_scenario",
    "scenario_ids",
    "true_tau",
    "contact_network",
    "run_scenario",
    "theoretical_variance_oracle",
    "emit_report",
    "reproduce_table",
    "TABLE_IDS",
]

SCHEMA_VERSION = 1
# the paper's replicate count per table cell (not the n = 1000 of Tables 2 and 4)
TABLE_REPS = 1000
CONTACT_MIN_COUNT = 3
CONTACT_RANK = 10


@dataclass(frozen=True)
class Scenario:
    """A registered simulation design: network model, outcome model, design pi.

    `pi` and the np trim quantile `np_alpha` lie in (0, 1), whichever
    methods run.  Exactly one of `graphon` (a fresh graph per replicate) and
    `network` (a fixed graph) is set.  The covariate dimension `p` is the
    outcome model's, and the spectral rank `rank` is the graphon's
    `rank_hint`, or CONTACT_RANK on the fixed network; both follow a
    `replace` of the model or the graphon.
    """

    id: str
    outcome: OutcomeModel
    pi: float
    interference: bool = True
    graphon: GraphonSpec | None = None
    network: Network | None = None
    np_alpha: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.pi < 1.0:
            raise ValueError("pi must lie in (0, 1)")
        if not 0.0 < self.np_alpha < 1.0:
            raise ValueError(f"np_alpha must lie in (0, 1), got {self.np_alpha}")
        if (self.graphon is None) == (self.network is None):
            raise ValueError(f"scenario {self.id!r} needs exactly one of a graphon or a fixed network")
        if self.graphon is not None and self.graphon.rank_hint is None:
            raise ValueError(f"graphon {self.graphon.name!r} declares no rank_hint for the spectral rank")

    @property
    def p(self) -> int:
        return self.outcome.p

    @property
    def rank(self) -> int:
        return CONTACT_RANK if self.graphon is None else self.graphon.rank_hint


# id -> (default pi, closed-form population ATE as a function of pi).  Whether p
# may be set is the outcome model's.  Every scenario but contact-vaccine samples
# paper-sec3 graphs; contact-vaccine runs on the fixed contact network.
_PRESETS = {
    "sec31-validation": (0.5, lambda pi: -2.0 * (1.0 - pi) ** 2 + pi**2),
    "sec41-main": (0.7, lambda pi: pi - 0.5),
    # E[2 / (1 + exp(-z*))] = 1 for symmetric z*
    "contact-vaccine": (0.2, lambda pi: -0.4 * (1.0 - math.sqrt(pi))),
}


def scenario_ids() -> tuple[str, ...]:
    return tuple(_PRESETS)


def contact_network(period: str = "morning", path=None) -> Network:
    """The bundled synthetic stand-in contact network (or a user-supplied file).

    A contact file is a CSV of "i,j" or "i,j,count" rows of nonnegative
    integers, the only layout `load_edge_list` reads; recordings in any
    other layout (say, one timestamped row per contact) must first be
    aggregated to "i,j,count".  Edges require at least CONTACT_MIN_COUNT
    aggregated contacts; vertices left isolated by the threshold are
    dropped.  The bundled files are synthetic stand-ins for the real
    classroom RFID data, whose source demos/make_contact_stand_in.py names.
    """
    if period not in ("morning", "midday"):
        raise ValueError("period must be 'morning' or 'midday'")
    if path is None:
        ref = resources.files("netate.data") / f"synthetic_contacts_{period}.csv"
    else:
        ref = Path(path)
    if not ref.is_file():
        raise FileNotFoundError(
            f"contact file {ref} not found; expected a CSV of 'i,j,count' rows "
            f"(vertex ids nonnegative integers, one row per recorded contact pair)"
        )
    with resources.as_file(ref) as local:
        network, _ = load_edge_list(local, min_count=CONTACT_MIN_COUNT, drop_isolated=True)
    return network


def get_scenario(
    scenario_id: str,
    p: int | None = None,
    pi: float | None = None,
    interference: bool | None = None,
    np_alpha: float | None = None,
    period: str | None = None,
    contacts_path=None,
) -> Scenario:
    """Build a registered scenario, optionally overriding its knobs.

    `period` (default "morning") and `contacts_path` choose the contact network,
    so they are a ValueError on any scenario but contact-vaccine.
    """
    if scenario_id not in _PRESETS:
        raise UnknownScenarioError(f"unknown scenario {scenario_id!r}; known: {scenario_ids()}")
    fixed = scenario_id == "contact-vaccine"
    for name, value in (("period", period), ("contacts_path", contacts_path)):
        if value is not None and not fixed:
            raise ValueError(f"{name} applies to the contact-vaccine scenario only, not {scenario_id!r}")
    base = Scenario(
        id=scenario_id,
        outcome=OutcomeModel(scenario_id, p=1 if p is None else p),
        pi=_PRESETS[scenario_id][0],
        graphon=None if fixed else make_graphon("paper-sec3"),
        network=contact_network("morning" if period is None else period, contacts_path) if fixed else None,
    )
    if pi is not None:
        base = replace(base, pi=float(pi))
    if interference is not None:
        base = replace(base, interference=bool(interference))
    if np_alpha is not None:
        base = replace(base, np_alpha=float(np_alpha))
    return base


def true_tau(scenario: Scenario) -> float:
    """Closed-form population ATE of a registered scenario (depends on pi)."""
    if scenario.id not in _PRESETS:
        raise UnknownScenarioError(scenario.id)
    return _PRESETS[scenario.id][1](scenario.pi)


# ---------------------------------------------------------------------------
# Method resolution
# ---------------------------------------------------------------------------

# each estimator's variances, its default first
_VARIANCES = {
    "dim": ("spectral", "conservative", "none"),
    "linear": ("spectral", "conservative", "none"),
    "np": ("polyseq", "none"),
}
# the variances whose network term needs b_hat and the derivative contrasts
_NETWORK_VARIANCES = ("spectral", "polyseq")


def _resolve_method(method: str) -> tuple[str, str]:
    est, _, var = method.partition(":")
    if est not in _VARIANCES:
        raise ValueError(f"unknown estimator {est!r}; use one of {tuple(_VARIANCES)}")
    var = var or _VARIANCES[est][0]
    if var not in _VARIANCES[est]:
        raise ValueError(f"variance {var!r} not available for {est!r}")
    return est, var


# ---------------------------------------------------------------------------
# Replicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RepTask:
    scenario: Scenario
    n: int
    methods: tuple[tuple[str, str], ...]
    seed: int
    rep: int
    tuning: tuple[KernelConfig, float | None] | None  # _np_config's, None without an np method
    shared_b_hat: float | None
    shared_spectral: object | None


def _network_term(
    net: Network, rank: int, data: TrialData, b_hat: float | None = None, spectral=None
) -> float:
    """The network term b_hat pi (1 - pi) (d1 - d0)^2; b_hat and spectral may be precomputed."""
    if b_hat is None:
        b_hat = estimate_b(net)
    if spectral is None:
        spectral = leading_eigenpairs(net, rank)
    weights = pc_balancing_weights(net, spectral, data.W, data.pi)
    d1, d0 = estimate_derivative_means(data, weights)
    return b_hat * data.pi * (1.0 - data.pi) * (d1 - d0) ** 2


def _run_replicate(task: _RepTask) -> dict:
    scenario = task.scenario
    rng = np.random.default_rng(np.random.SeedSequence([task.seed, task.rep]))
    n = task.n

    net = scenario.network
    if scenario.graphon is not None and scenario.interference:
        latents = sample_latents(n, rng)
        net = sample_graph(scenario.graphon, latents, rng)
    w = assign_treatments(n, scenario.pi, rng)
    draw = sample_covariates(scenario.outcome, n, rng)
    exposures = exposure_fractions(net, w) if scenario.interference else scenario.pi
    y = simulate_outcomes(scenario.outcome, w, exposures, draw, rng)
    data = TrialData(Y=y, W=w, Z=draw.Z, pi=scenario.pi)

    network_term = 0.0
    if scenario.interference and any(var in _NETWORK_VARIANCES for _, var in task.methods):
        network_term = _network_term(net, scenario.rank, data, task.shared_b_hat, task.shared_spectral)

    out: dict = {}
    for est, var in task.methods:
        key = f"{est}:{var}"
        try:
            # only the plain-float record goes back to the parent process
            out[key] = _estimate_once(task.tuning, data, est, var, network_term)[1]
        except NetateError as exc:
            out[key] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def _estimate_once(
    tuning: tuple[KernelConfig, float | None] | None, data: TrialData, est: str, var: str, network_term: float
) -> tuple[EstimateResult, dict]:
    """One estimate and its variance; returns the estimator's result and the replicate record.

    `tuning` is the run's (KernelConfig, alpha) from _np_config; only np reads it.

    The conservative variance puts pi (1 - pi) 8 tau_hat^2 in place of the
    given network term.  The record holds tau and the kept count, and unless
    var is "none" the variance v, its interval, and the same without the
    network term (v_nonet) and the four components, whose last is that term.
    """
    kept = None
    fit_data = data
    if est == "dim":
        result = difference_in_means(data)
        # the dim variance uses residuals around group means (intercept-only design)
        fit_data = replace(data, Z=np.empty((data.n, 0)))
    elif est == "linear":
        result = linear_adjusted(data)
    else:
        config, sums = _np_tuning(data, *tuning)
        result = nonparametric(data, config, sums=sums)
        kept = result.diagnostics["kept"]

    rec = {"tau": result.tau_hat, "kept": kept}
    if var == "none":
        return result, rec

    if var == "conservative":
        network_term = data.pi * (1.0 - data.pi) * conservative_network_term(result.tau_hat)
    if var == "polyseq":
        report = variance_np_polyseq(data, network_term)
    else:
        report = variance_reg(fit_data, linear_adjusted(fit_data), network_term)
    rec["components"] = report.components
    c1, c2, c3, _ = report.components
    v, v_nonet = report.v_hat, c1 + c2 + c3

    lo, hi = confidence_interval(result.tau_hat, v, data.n)
    lo2, hi2 = confidence_interval(result.tau_hat, max(v_nonet, 0.0), data.n)
    rec.update({"v": v, "lo": lo, "hi": hi, "v_nonet": v_nonet, "lo_nonet": lo2, "hi_nonet": hi2})
    return result, rec


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class MethodSummary:
    method: str
    reps_ok: int
    reps_failed: int
    mean: float
    variance: float
    mse: float
    n_mse: float
    coverage: float | None
    coverage_nonet: float | None
    ci_halfwidth: float | None
    mean_v_hat: float | None
    mean_kept: float | None
    estimates: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        """Every field but the raw estimates."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "estimates"}


@dataclass
class ScenarioSummary:
    scenario_id: str
    n: int
    pi: float
    p: int
    interference: bool
    tau_true: float
    reps: int
    seed: int
    level: float
    methods: dict[str, MethodSummary]

    def to_dict(self) -> dict:
        """The schema version, the other fields as "scenario" (scenario_id as its "id"), and the methods."""
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": {
                "id" if f.name == "scenario_id" else f.name: getattr(self, f.name)
                for f in fields(self) if f.name != "methods"
            },
            "methods": {name: ms.to_dict() for name, ms in self.methods.items()},
        }


def _aggregate(method: str, records: list[dict], tau: float, n: int) -> MethodSummary:
    ok = [r for r in records if "error" not in r]
    est = np.array([r["tau"] for r in ok])
    mean = float(est.mean())
    var = float(est.var(ddof=1)) if est.size > 1 else 0.0
    mse = float(np.mean((est - tau) ** 2))
    with_ci = [r for r in ok if "lo" in r]
    coverage = cov2 = halfwidth = mean_v = None
    if with_ci:
        lo = np.array([r["lo"] for r in with_ci])
        hi = np.array([r["hi"] for r in with_ci])
        coverage = float(((lo <= tau) & (tau <= hi)).mean())
        lo2 = np.array([r["lo_nonet"] for r in with_ci])
        hi2 = np.array([r["hi_nonet"] for r in with_ci])
        cov2 = float(((lo2 <= tau) & (tau <= hi2)).mean())
        halfwidth = float(((hi - lo) / 2.0).mean())
        mean_v = float(np.mean([r["v"] for r in with_ci]))
    kepts = [r["kept"] for r in ok if r.get("kept") is not None]
    return MethodSummary(
        method=method,
        reps_ok=len(ok),
        reps_failed=len(records) - len(ok),
        mean=mean,
        variance=var,
        mse=mse,
        n_mse=n * mse,
        coverage=coverage,
        coverage_nonet=cov2,
        ci_halfwidth=halfwidth,
        mean_v_hat=mean_v,
        mean_kept=float(np.mean(kepts)) if kepts else None,
        estimates=est,
    )


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose children split the usable cores: each runs max(1, cores // workers)
    threads in both bundled OpenBLAS copies, and the Lanczos products take that share too."""
    share = max(1, usable_cores() // workers)
    return ProcessPoolExecutor(max_workers=workers, initializer=set_openblas_threads, initargs=(share,))


def run_scenario(
    scenario: Scenario,
    n: int,
    methods,
    reps: int,
    seed: int,
    workers: int = 1,
    h_band: float | None = None,
    b_trim: float | None = None,
) -> ScenarioSummary:
    """Run seeded replicates of a scenario and aggregate per-method statistics.

    `methods` is a sequence of "estimator[:variance]" strings, e.g. "linear",
    "dim:conservative", "np".  `h_band` and `b_trim` override the np
    bandwidth and trim level; the trim quantile is the scenario's np_alpha.
    With an np method the kernel order, the bandwidth and a given trim level
    are built once, before the first replicate (estimators._np_config), so an
    unsupported p raises there, and a b_trim above the bandwidth warns once,
    at the caller's line; a trim level derived from a replicate's data is
    built, and may warn, in that replicate.
    Intervals are at variance.LEVEL and polyseq stops by variance's fixed
    rule.  For fixed-network scenarios n is the network size; the spectral
    pieces of the variance are computed once and shared.
    Replicate failures are counted per method. A method that fails in more
    than 5% of replicates, every replicate included, raises
    ReplicateFailureError (a RuntimeError) quoting the count and the first
    error with its exception type.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    resolved = tuple(_resolve_method(m) for m in methods)
    if not resolved:
        raise ValueError("methods must be nonempty")
    if scenario.network is not None:
        n = scenario.network.n

    tuning = None
    if any(est == "np" for est, _ in resolved):
        tuning = _np_config(n, scenario.p, scenario.np_alpha, h_band, b_trim)
    shared_b = shared_spec = None
    if scenario.network is not None and scenario.interference:
        if any(v in _NETWORK_VARIANCES for _, v in resolved):
            shared_b = estimate_b(scenario.network)
            shared_spec = leading_eigenpairs(scenario.network, scenario.rank)

    tasks = [
        _RepTask(
            scenario=scenario,
            n=n,
            methods=resolved,
            seed=int(seed),
            rep=rep,
            tuning=tuning,
            shared_b_hat=shared_b,
            shared_spectral=shared_spec,
        )
        for rep in range(reps)
    ]
    if workers > 1 and reps > 1:
        with _worker_pool(workers) as pool:
            results = list(pool.map(_run_replicate, tasks, chunksize=max(1, reps // (workers * 8))))
    else:
        results = [_run_replicate(t) for t in tasks]

    tau = true_tau(scenario)
    summaries = {}
    for est, var in resolved:
        key = f"{est}:{var}"
        records = [r[key] for r in results]
        errors = [r["error"] for r in records if "error" in r]
        if len(errors) > 0.05 * reps:
            raise ReplicateFailureError(
                f"method {key} failed in {len(errors)}/{reps} replicates; first: {errors[0]}"
            )
        summaries[key] = _aggregate(key, records, tau, n)
    return ScenarioSummary(
        scenario_id=scenario.id,
        n=n,
        pi=scenario.pi,
        p=scenario.p,
        interference=scenario.interference,
        tau_true=tau,
        reps=reps,
        seed=int(seed),
        level=LEVEL,
        methods=summaries,
    )


# ---------------------------------------------------------------------------
# Theoretical-variance oracles
# ---------------------------------------------------------------------------

# each formula and the keys of `params` it reads
_FORMULAS = {"Vreg": (), "Vdim": (), "Vnp": (), "Valpha": ("alpha1", "alpha0"), "Vg": ("g1", "g0")}


def theoretical_variance_oracle(
    scenario: Scenario,
    formula: str,
    mc_reps: int,
    rng: np.random.Generator,
    params: dict | None = None,
) -> MonteCarloValue:
    """Monte Carlo evaluation of an asymptotic-variance formula.

    Covariates and noise are drawn from the scenario's laws; population
    regression coefficients come from the same draws' moments; the network
    factor b comes from nested quadrature on the scenario's graphon (or the
    plug-in statistic for a fixed network).  Returns the value with a
    standard error from 20 batches; mc_reps must be at least
    20 * max(50, p + 2), so that every batch has more draws than the p + 1
    regression coefficients it fits.  "Valpha" reads the slopes
    params["alpha1"] and params["alpha0"]; "Vg" calls params["g1"] and
    params["g0"] as function_adjusted does, on a covariate matrix.  The
    other formulas read no params.  A key the formula does not read, or a
    missing one, is a ValueError naming it, raised before any draw.
    """
    if formula not in _FORMULAS:
        raise ValueError(f"formula must be one of {tuple(_FORMULAS)}")
    params = params or {}
    reads = _FORMULAS[formula]
    unknown = [key for key in params if key not in reads]
    if unknown:
        raise ValueError(f"{formula} reads no parameter {', '.join(map(repr, unknown))}; "
                         f"its parameters are {list(reads)}")
    missing = [key for key in reads if key not in params]
    if missing:
        raise ValueError(f"{formula} needs the parameter {', '.join(map(repr, missing))}")
    model = scenario.outcome
    pi = scenario.pi
    m = int(mc_reps)
    min_reps = 20 * max(50, model.p + 2)
    if m < min_reps:
        raise ValueError(f"mc_reps must be at least {min_reps} for p = {model.p}, got {mc_reps}")

    draw = sample_covariates(model, m, rng)
    noise = sample_outcome_noise(model, m, rng)
    ones = np.ones(m)
    zeros = np.zeros(m)
    f1 = outcome_values(model, ones, pi, draw, noise)
    f0 = outcome_values(model, zeros, pi, draw, noise)
    g1 = outcome_exposure_derivative(model, ones, pi, draw, noise)
    g0 = outcome_exposure_derivative(model, zeros, pi, draw, noise)
    Z = draw.Z

    if not scenario.interference:
        b = 0.0
    elif scenario.graphon is not None:
        b = graphon_b(scenario.graphon)
    else:
        b = estimate_b(scenario.network)

    need_cond = formula in ("Vnp", "Vg")
    if need_cond:
        m1 = conditional_mean(model, 1, pi, draw)
        m0 = conditional_mean(model, 0, pi, draw)

    def evaluate(idx: np.ndarray) -> float:
        z = Z[idx]
        a1, a0 = f1[idx], f0[idx]
        net = b * pi * (1.0 - pi) * (g1[idx].mean() - g0[idx].mean()) ** 2
        if formula == "Vdim":
            return a1.var() / pi + a0.var() / (1.0 - pi) + net
        if formula in ("Vreg", "Valpha"):
            x = np.column_stack([np.ones(idx.size), z])
            mxx = x.T @ x / idx.size
            beta1 = np.linalg.solve(mxx, x.T @ a1 / idx.size)
            beta0 = np.linalg.solve(mxx, x.T @ a0 / idx.size)
            r1 = a1 - x @ beta1
            r0 = a0 - x @ beta0
            zc = z - z.mean(axis=0)
            cov = zc.T @ zc / idx.size
            d = beta1[1:] - beta0[1:]
            v = (r1 * r1).mean() / pi + (r0 * r0).mean() / (1.0 - pi) + d @ cov @ d + net
            if formula == "Valpha":
                u = (1.0 - pi) * (np.asarray(params["alpha1"], dtype=float) - beta1[1:]) + pi * (
                    np.asarray(params["alpha0"], dtype=float) - beta0[1:]
                )
                v += (u @ cov @ u) / (pi * (1.0 - pi))
            return v
        # Vnp / Vg share the first three terms
        c1, c0 = m1[idx], m0[idx]
        mix = (1.0 - pi) * (a1 - c1) + pi * (a0 - c0)
        v = (a1 - a0).var() + (mix * mix).mean() / (pi * (1.0 - pi)) + net
        if formula == "Vg":
            h1 = np.broadcast_to(np.asarray(params["g1"](z), dtype=float), (idx.size,))
            h0 = np.broadcast_to(np.asarray(params["g0"](z), dtype=float), (idx.size,))
            slack = (1.0 - pi) * (h1 - h1.mean() - c1 + a1.mean()) + pi * (h0 - h0.mean() - c0 + a0.mean())
            v += (slack * slack).mean() / (pi * (1.0 - pi))
        return v

    value = float(evaluate(np.arange(m)))
    batch_vals = np.array([evaluate(idx) for idx in np.array_split(np.arange(m), 20)])
    se = float(batch_vals.std(ddof=1) / math.sqrt(batch_vals.size))
    return MonteCarloValue(value=value, se=se)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _safe_name(method: str) -> str:
    return method.replace(":", "-")


# the MethodSummary fields written to cells.csv; csv writes a float as str(), which is its repr()
_CELL_COLUMNS = ("reps_ok", "reps_failed", "mean", "variance", "n_mse",
                 "coverage", "coverage_nonet", "ci_halfwidth", "mean_kept")


def emit_report(summary: ScenarioSummary, out_dir) -> list[Path]:
    """Write summary.json, cells.csv and one hist_<method>.csv per method under out_dir.

    Histogram files carry 30-bin edges and counts for each method's estimate
    draws plus the parameters of the overlay normal N(tau, V/n), where V/n
    is the sample variance of the estimates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "summary.json"
    path.write_text(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    written = [path]
    path = out / "cells.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "n", "pi", "p", "method", *_CELL_COLUMNS])
        for name, ms in summary.methods.items():
            row = ms.to_dict()
            writer.writerow([summary.scenario_id, summary.n, summary.pi, summary.p, name,
                             *(row[c] for c in _CELL_COLUMNS)])
    written.append(path)
    for name, ms in summary.methods.items():
        sd = math.sqrt(max(ms.variance * summary.n, 0.0) / summary.n)
        counts, edges = np.histogram(ms.estimates, bins=30)
        path = out / f"hist_{_safe_name(name)}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(f"# overlay_mean={summary.tau_true!r} overlay_sd={sd!r}\n")
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", "count"])
            for k in range(counts.size):
                writer.writerow([repr(float(edges[k])), repr(float(edges[k + 1])), int(counts[k])])
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Table reproduction
# ---------------------------------------------------------------------------

TABLE_IDS = ("table1", "table2", "table3", "table4", "table5", "table6", "fig3")

_TABLE1_REFERENCE = {
    (100, 0.5): (0.901, 0.837), (100, 0.6): (0.935, 0.853), (100, 0.7): (0.964, 0.880),
    (300, 0.5): (0.914, 0.848), (300, 0.6): (0.941, 0.856), (300, 0.7): (0.960, 0.892),
    (500, 0.5): (0.925, 0.832), (500, 0.6): (0.943, 0.852), (500, 0.7): (0.963, 0.897),
}
_TABLE2_REFERENCE = {
    1: {(0.2, 0.01): 1.906, (0.4, 0.01): 1.896, (0.6, 0.01): 1.740, (0.8, 0.01): 1.755, (1.0, 0.01): 2.095,
        (0.2, 0.05): 2.165, (0.4, 0.05): 1.845, (0.6, 0.05): 1.826, (0.8, 0.05): 1.974, (1.0, 0.05): 1.875},
    5: {(1.8, 0.01): 1.949, (2.0, 0.01): 1.858, (2.2, 0.01): 2.057, (2.4, 0.01): 2.015, (2.6, 0.01): 2.035,
        (1.8, 0.05): 2.207, (2.0, 0.05): 1.973, (2.2, 0.05): 1.907, (2.4, 0.05): 2.204, (2.6, 0.05): 2.009},
}
_TABLE3_REFERENCE = {(1, 100): 0.965, (1, 300): 0.971, (1, 500): 0.971,
                     (5, 100): 0.921, (5, 300): 0.973, (5, 500): 0.983}
_TABLE4_REFERENCE = {
    1: (0.518, 0.200, 1.735, 1.735), 2: (0.745, 0.200, 1.794, 1.794),
    3: (0.995, 0.200, 1.957, 1.958), 4: (1.831, 0.199, 1.922, 1.923),
    5: (2.173, 0.198, 2.016, 2.019), 6: (2.523, 0.199, 2.103, 2.104),
    7: (2.881, 0.204, 2.248, 2.267), 8: (3.652, 0.191, 1.902, 1.982),
    9: (4.046, 0.192, 2.092, 2.144), 10: (4.443, 0.194, 2.120, 2.147),
}
_TABLE5_REFERENCE = {
    ("morning", "dim"): (-0.217, 0.0498), ("morning", "linear"): (-0.243, 0.0338),
    ("morning", "np"): (-0.255, 0.0334),
    ("midday", "dim"): (-0.234, 0.0721), ("midday", "linear"): (-0.256, 0.0536),
    ("midday", "np"): (-0.243, 0.0528),
}
_TABLE6_REFERENCE = {
    ("morning", "dim"): (-0.231, 0.0584, 0.944, 0.912),
    ("morning", "linear"): (-0.232, 0.0416, 0.923, 0.853),
    ("morning", "np"): (-0.225, 0.0403, 0.945, 0.862),
    ("midday", "dim"): (-0.229, 0.0941, 0.962, 0.917),
    ("midday", "linear"): (-0.228, 0.0734, 0.954, 0.839),
    ("midday", "np"): (-0.216, 0.0718, 0.971, 0.839),
}


def _scaled_reps(budget: float) -> int:
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(f"budget must be a finite number > 0, got {budget!r}")
    return max(int(round(TABLE_REPS * budget)), 20)


def reproduce_table(
    table_id: str,
    budget: float = 1.0,
    seed: int = 20240,
    workers: int = 1,
    out_dir=None,
    contacts: dict | None = None,
) -> dict:
    """Run the preset grid behind one of the reported tables.

    `budget` scales the replicate count (1.0 = the full TABLE_REPS); scaled runs
    are labeled and carry the Monte Carlo widening factor sqrt(TABLE_REPS/reps).
    `contacts` may map "morning"/"midday" to user-supplied contact files for
    table5 and table6; any other key or table is a ValueError.
    Returns a report dict of cells with computed and reference values, and
    writes report.json when out_dir is given.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table {table_id!r}; choose from {TABLE_IDS}")
    reps = _scaled_reps(budget)
    contacts = contacts or {}
    if contacts and table_id not in ("table5", "table6"):
        raise ValueError(f"contacts apply to table5 and table6 only, not {table_id!r}")
    unknown = [key for key in contacts if key not in ("morning", "midday")]
    if unknown:
        raise ValueError(f"contacts keys must be 'morning' or 'midday', got {unknown}")
    report = {
        "table": table_id,
        "reps": reps,
        "scaled": reps != TABLE_REPS,
        "mc_tolerance_factor": math.sqrt(TABLE_REPS / reps),
        "cells": [],
    }
    cells = report["cells"]

    if table_id == "table1":
        for n in (100, 300, 500):
            for pi in (0.5, 0.6, 0.7):
                scenario = get_scenario("sec31-validation", pi=pi)
                # the second column is the linear estimate with the conservative
                # network term: at 1000 replicates it is within 2.5 binomial SE
                # of the paper in 9 of 9 cells, dim:conservative in 1 of 9
                summary = run_scenario(
                    scenario, n, ("linear:spectral", "linear:conservative"), reps, seed, workers
                )
                ref = _TABLE1_REFERENCE[(n, pi)]
                cells.append({
                    "n": n, "pi": pi,
                    "coverage": summary.methods["linear:spectral"].coverage,
                    "coverage_reference": ref[0],
                    "coverage_conservative": summary.methods["linear:conservative"].coverage,
                    "coverage_conservative_reference": ref[1],
                })
    elif table_id == "table2":
        for p, grid in _TABLE2_REFERENCE.items():
            for (h, alpha), ref in grid.items():
                scenario = get_scenario("sec41-main", p=p, np_alpha=alpha)
                summary = run_scenario(scenario, 1000, ("np:none",), reps, seed, workers, h_band=h)
                cells.append({
                    "p": p, "h_band": h, "alpha": alpha,
                    "n_mse": summary.methods["np:none"].n_mse, "n_mse_reference": ref,
                })
    elif table_id == "table3":
        for (p, n), ref in _TABLE3_REFERENCE.items():
            scenario = get_scenario("sec41-main", p=p)
            summary = run_scenario(scenario, n, ("np:polyseq",), reps, seed, workers)
            cells.append({
                "p": p, "n": n,
                "coverage": summary.methods["np:polyseq"].coverage, "coverage_reference": ref,
            })
    elif table_id == "table4":
        for p, (h_ref, mean_ref, var_ref, mse_ref) in _TABLE4_REFERENCE.items():
            scenario = get_scenario("sec41-main", p=p)
            summary = run_scenario(scenario, 1000, ("np:none",), reps, seed, workers)
            ms = summary.methods["np:none"]
            cells.append({
                "p": p, "h_band_reference": h_ref,
                "mean": ms.mean, "mean_reference": mean_ref,
                "n_variance": 1000 * ms.variance, "n_variance_reference": var_ref,
                "n_mse": ms.n_mse, "n_mse_reference": mse_ref,
            })
    elif table_id in ("table5", "table6"):
        keys = {short: ":".join(_resolve_method(short)) for short in _VARIANCES}  # default variances
        for period in ("morning", "midday"):
            scenario = get_scenario(
                "contact-vaccine", period=period, contacts_path=contacts.get(period)
            )
            if table_id == "table5":
                summary = run_scenario(scenario, scenario.network.n, tuple(keys), 1, seed, 1)
                for short, key in keys.items():
                    ms = summary.methods[key]
                    ref = _TABLE5_REFERENCE[(period, short)]
                    se = math.sqrt(ms.mean_v_hat / summary.n)
                    cells.append({
                        "network": period, "method": short,
                        "estimate": ms.mean, "estimate_reference": ref[0],
                        "se": se, "se_reference": ref[1],
                        "ci_low": ms.mean - ms.ci_halfwidth, "ci_high": ms.mean + ms.ci_halfwidth,
                    })
            else:
                summary = run_scenario(scenario, scenario.network.n, tuple(keys), reps, seed, workers)
                dim_var = summary.methods[keys["dim"]].variance
                for short, key in keys.items():
                    ms = summary.methods[key]
                    ref = _TABLE6_REFERENCE[(period, short)]
                    cells.append({
                        "network": period, "method": short,
                        "mean": ms.mean, "mean_reference": ref[0],
                        "se": math.sqrt(ms.mean_v_hat / summary.n), "se_reference": ref[1],
                        "coverage": ms.coverage, "coverage_reference": ref[2],
                        "coverage_nonet": ms.coverage_nonet, "coverage_nonet_reference": ref[3],
                        "variance_reduction_vs_dim": 1.0 - ms.variance / dim_var if short != "dim" else 0.0,
                    })
    elif table_id == "fig3":
        for n in (250, 500, 750, 1000):
            scenario = get_scenario("sec41-main", p=5, np_alpha=0.05)
            summary = run_scenario(scenario, n, ("linear:none", "np:none"), reps, seed, workers)
            cells.append({
                "n": n,
                "n_mse_linear": summary.methods["linear:none"].n_mse,
                "n_mse_np": summary.methods["np:none"].n_mse,
                "n_mse_linear_reference_at_1000": 3.95,
            })

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    return report
