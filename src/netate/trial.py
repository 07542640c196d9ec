"""Experiment datasets: assignment, exposures, outcome models, and ingestion.

Outcome models are registered by id.  Each registry entry owns its covariate
law, whether standard normal outcome noise is drawn, the outcome function
f(w, exposure), the exposure derivative of f (used by variance oracles), and
whether the conditional mean E[f(w, pi) | z] is f at zero noise.  A
covariate draw can carry hidden arrays consumed only by the outcome function
(e.g. a raw vulnerability of which the observed covariate is a perturbed
version); estimators only ever see the observed matrix Z.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ._errors import EdgeListParseError, UnknownScenarioError, warn_caller
from .graphon import Network, require_positive_degrees

__all__ = [
    "TrialData",
    "OutcomeModel",
    "CovariateDraw",
    "MonteCarloValue",
    "assign_treatments",
    "exposure_fractions",
    "sample_covariates",
    "sample_outcome_noise",
    "outcome_values",
    "simulate_outcomes",
    "ate_oracle",
    "load_edge_list",
    "load_trial_csv",
    "save_trial_csv",
]


@dataclass(frozen=True)
class TrialData:
    """Observables handed to estimators: outcomes, treatments, covariates.

    `pi` is the design treatment probability.  The network is not part of
    the data: the variance's network term takes it as an argument of its
    own.  Y and Z must be finite.  Group non-emptiness is an estimation-time
    requirement, not a construction-time one.
    """

    Y: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    pi: float

    def __post_init__(self):
        y = np.asarray(self.Y, dtype=float)
        w = np.asarray(self.W)
        z = np.asarray(self.Z, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        if z.ndim != 2:
            raise ValueError("Z must be a 2-D matrix (n rows)")
        n = y.shape[0]
        if w.shape[0] != n or z.shape[0] != n:
            raise ValueError("Y, W, Z must share length n")
        if not ((w == 0) | (w == 1)).all():
            raise ValueError("W entries must be 0 or 1")
        if not (np.isfinite(y).all() and np.isfinite(z).all()):
            raise ValueError("Y and Z entries must be finite")
        if not 0.0 < self.pi < 1.0:
            raise ValueError("pi must lie in (0, 1)")
        object.__setattr__(self, "Y", y)
        object.__setattr__(self, "W", w.astype(np.int64))
        object.__setattr__(self, "Z", z)

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def p(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class CovariateDraw:
    """Observed covariates plus hidden outcome-only inputs."""

    Z: np.ndarray
    hidden: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class OutcomeModel:
    """A registered outcome scenario plus its constants."""

    scenario_id: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario_id not in _REGISTRY:
            raise UnknownScenarioError(
                f"unknown outcome model {self.scenario_id!r}; known: {sorted(_REGISTRY)}"
            )
        if "p" in self.params:
            p = check_p(self.params["p"])
            if p != 1 and not _REGISTRY[self.scenario_id].p_settable:
                raise ValueError(
                    f"outcome model {self.scenario_id!r} owns a scalar covariate; p must be 1, got {p}"
                )

    @property
    def p(self) -> int:
        return int(self.params.get("p", 1))


def check_p(p) -> int:
    """The covariate dimension `p` as an int; ValueError naming it unless it is an integer >= 1.

    An integral float such as 3.0 is accepted; 2.7 is rejected rather than truncated to 2.
    """
    try:
        dim = int(p)
    except (TypeError, ValueError, OverflowError):  # None, text, nan, inf
        dim = None
    if dim != p:
        raise ValueError(f"p must be an integer, got {p}")
    if dim < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return dim


class MonteCarloValue(NamedTuple):
    value: float
    se: float


# ---------------------------------------------------------------------------
# Outcome-model registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OutcomeDef:
    # the covariate law: (model, n, rng) -> CovariateDraw
    sample_covariates: Callable
    # True: the law draws model.p columns.  False: it draws one, so OutcomeModel
    # (and with it get_scenario) rejects p != 1
    p_settable: bool
    # True: the outcome noise is n standard normal draws.  False: the outcome
    # ignores its noise argument, so no draw is made and the generator is untouched
    noisy: bool
    outcome: Callable
    outcome_deriv: Callable
    # True only when the outcome reads the draw through Z alone and its noise
    # enters additively with mean zero, so that E[f(w, pi) | Z] is the outcome
    # formula at zero noise.  A model without that property sets False.
    closed_form_mean: bool


def _quadratic_cov(model, n, rng):
    return CovariateDraw(Z=rng.uniform(-2.0, 1.0, size=(n, 1)))


def _quadratic_outcome(model, w, e, draw, noise):
    z = draw.Z[:, 0]
    return w * (-2.0 * (1.0 - e) ** 2 - 2.0 * z * e**2 + 0.5 * noise) + z**2


def _quadratic_deriv(model, w, e, draw, noise):
    z = draw.Z[:, 0]
    return w * (4.0 * (1.0 - e) - 4.0 * z * e)


def _ar_cholesky(p: int) -> np.ndarray:
    idx = np.arange(p)
    sigma = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    return np.linalg.cholesky(sigma)


def _kernel_scn_scale(p: int) -> float:
    # variance of sum_j z_j under the AR(0.5) covariance, in closed form
    return math.sqrt(3.0 * p - 4.0 + 2.0 ** (2 - p))


def _smooth_cov(model, n, rng):
    p = model.p
    z = rng.standard_normal((n, p)) @ _ar_cholesky(p).T
    return CovariateDraw(Z=z)


def _smooth_outcome(model, w, e, draw, noise):
    z = draw.Z
    p = z.shape[1]
    s = z.sum(axis=1) / _kernel_scn_scale(p)
    g = np.exp(z).sum(axis=1) / (2.0 * math.sqrt(p))
    return w * (e - 0.5 + s + 0.5 * noise) + g


def _smooth_deriv(model, w, e, draw, noise):
    return w * np.ones(draw.Z.shape[0])


def _vaccine_cov(model, n, rng):
    z_star = rng.normal(0.0, math.sqrt(2.0), size=n)
    v = rng.uniform(0.9, 1.1, size=n)
    return CovariateDraw(Z=(z_star * v)[:, None], hidden={"z_star": z_star})


def _vaccine_raw(draw):
    z_star = draw.hidden.get("z_star")
    if z_star is None:
        raise UnknownScenarioError(
            "contact-vaccine outcomes depend on the raw vulnerability; pass the "
            "CovariateDraw produced by sample_covariates, not a bare Z matrix"
        )
    return z_star


def _vaccine_outcome(model, w, e, draw, noise):
    z_star = _vaccine_raw(draw)
    return 2.0 / (1.0 + np.exp(-z_star)) * (1.0 - 0.4 * w) * (1.0 - np.sqrt(e))


def _vaccine_deriv(model, w, e, draw, noise):
    z_star = _vaccine_raw(draw)
    return 2.0 / (1.0 + np.exp(-z_star)) * (1.0 - 0.4 * w) * (-0.5 / np.sqrt(e))


def _const_cov(model, n, rng):
    return CovariateDraw(Z=rng.standard_normal((n, model.p)))


def _const_outcome(model, w, e, draw, noise):
    return np.full(draw.Z.shape[0], float(model.params.get("c", 0.0)))


def _const_deriv(model, w, e, draw, noise):
    return np.zeros(draw.Z.shape[0])


_REGISTRY: dict[str, _OutcomeDef] = {
    # degenerate outcome, useful for exactness checks
    "constant": _OutcomeDef(
        sample_covariates=_const_cov,
        p_settable=True,
        noisy=False,
        outcome=_const_outcome,
        outcome_deriv=_const_deriv,
        closed_form_mean=True,
    ),
    # treated arm reacts quadratically to the exposure fraction; scalar uniform covariate
    "sec31-validation": _OutcomeDef(
        sample_covariates=_quadratic_cov,
        p_settable=False,
        noisy=True,
        outcome=_quadratic_outcome,
        outcome_deriv=_quadratic_deriv,
        closed_form_mean=True,
    ),
    # linear exposure response with a nonlinear (exp) covariate signal; AR(0.5) Gaussian z
    "sec41-main": _OutcomeDef(
        sample_covariates=_smooth_cov,
        p_settable=True,
        noisy=True,
        outcome=_smooth_outcome,
        outcome_deriv=_smooth_deriv,
        closed_form_mean=True,
    ),
    # vaccine response on a contact network; observed covariate is a perturbed
    # vulnerability, and randomness enters through the covariate draw only
    "contact-vaccine": _OutcomeDef(
        sample_covariates=_vaccine_cov,
        p_settable=False,
        noisy=False,
        outcome=_vaccine_outcome,
        outcome_deriv=_vaccine_deriv,
        closed_form_mean=False,
    ),
}


def _definition(model: OutcomeModel) -> _OutcomeDef:
    return _REGISTRY[model.scenario_id]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def assign_treatments(n: int, pi: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Bernoulli(pi) treatment indicators."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie strictly inside (0, 1)")
    return (rng.random(n) < pi).astype(np.int64)


def exposure_fractions(network: Network, w: np.ndarray) -> np.ndarray:
    """Treated-neighbor fraction M_i / N_i for every vertex."""
    require_positive_degrees(network)
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] != network.n:
        raise ValueError("treatment vector length does not match network size")
    return network.treated_neighbor_counts(w) / network.degrees


def sample_covariates(model: OutcomeModel, n: int, rng: np.random.Generator) -> CovariateDraw:
    """Draw covariates from the model's registered law."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _definition(model).sample_covariates(model, n, rng)


def sample_outcome_noise(model: OutcomeModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the model's outcome noise (a zero vector, drawing nothing, for noiseless models)."""
    return rng.standard_normal(n) if _definition(model).noisy else np.zeros(n)


def outcome_values(
    model: OutcomeModel,
    w: np.ndarray,
    exposures: np.ndarray | float,
    covariates: CovariateDraw | np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Evaluate the registered outcome formula at explicit noise values.

    Deterministic; lets oracles evaluate both treatment arms on shared draws.
    """
    if isinstance(covariates, CovariateDraw):
        draw = covariates
    else:
        z = np.asarray(covariates, dtype=float)
        draw = CovariateDraw(Z=z[:, None] if z.ndim == 1 else z)
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if draw.Z.shape[0] != n:
        raise ValueError("covariate rows must match treatment length")
    e = np.broadcast_to(np.asarray(exposures, dtype=float), (n,))
    d = _definition(model)
    return np.asarray(d.outcome(model, w, e, draw, np.asarray(noise, dtype=float)), dtype=float)


def simulate_outcomes(
    model: OutcomeModel,
    w: np.ndarray,
    exposures: np.ndarray | float,
    covariates: CovariateDraw | np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Evaluate the registered outcome formula with fresh noise.

    `exposures` may be a vector of treated-neighbor fractions or a scalar
    (the no-interference case, where the exposure argument is pinned at pi).
    """
    n = np.asarray(w).shape[0]
    return outcome_values(model, w, exposures, covariates, sample_outcome_noise(model, n, rng))


def outcome_exposure_derivative(
    model: OutcomeModel,
    w: np.ndarray,
    exposures: np.ndarray | float,
    covariates: CovariateDraw,
    noise: np.ndarray,
) -> np.ndarray:
    """d/d(exposure) of the outcome formula; used by variance oracles."""
    w = np.asarray(w, dtype=float)
    e = np.broadcast_to(np.asarray(exposures, dtype=float), w.shape)
    return np.asarray(_definition(model).outcome_deriv(model, w, e, covariates, noise), dtype=float)


def conditional_mean(model: OutcomeModel, w: int, pi: float, covariates: CovariateDraw) -> np.ndarray:
    """E[f(w, pi) | Z] when the model provides it in closed form."""
    if not _definition(model).closed_form_mean:
        raise UnknownScenarioError(
            f"model {model.scenario_id!r} has no closed-form conditional mean"
        )
    n = covariates.Z.shape[0]
    return outcome_values(model, np.full(n, float(w)), pi, covariates, np.zeros(n))


def ate_oracle(
    model: OutcomeModel, pi: float, mc_reps: int, rng: np.random.Generator
) -> MonteCarloValue:
    """Monte Carlo value of E[f(1, pi) - f(0, pi)] over covariate/noise laws."""
    if mc_reps < 10_000:
        raise ValueError("mc_reps must be at least 10^4")
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie in (0, 1)")
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < mc_reps:
        m = min(200_000, mc_reps - done)
        draw = sample_covariates(model, m, rng)
        noise = sample_outcome_noise(model, m, rng)
        f1 = outcome_values(model, np.ones(m), pi, draw, noise)
        diff = f1 - outcome_values(model, np.zeros(m), pi, draw, noise)
        total += float(diff.sum())
        total_sq += float((diff * diff).sum())
        done += m
    mean = total / mc_reps
    var = max(total_sq / mc_reps - mean * mean, 0.0)
    return MonteCarloValue(value=mean, se=math.sqrt(var / mc_reps))


# ---------------------------------------------------------------------------
# File ingestion / emission
# ---------------------------------------------------------------------------

def _blank(row: list[str]) -> bool:
    """True for a csv row read from an empty or whitespace-only line."""
    return not row or (len(row) == 1 and not row[0].strip())


def load_edge_list(
    path, min_count: int = 1, drop_isolated: bool = False
) -> tuple[Network, np.ndarray]:
    """Read "i,j" or "i,j,count" rows into an undirected simple graph.

    Counts aggregate over duplicate rows and both orientations; an edge is
    kept when the total is >= min_count.  Counts are summed exactly in
    int64, each first capped at max(min_count, 0), which changes no total's
    side of min_count.  Self-loop rows are dropped (a single warning reports
    how many).  Vertices are relabeled densely 0..n-1 in increasing id
    order (after drop_isolated removes those without an edge); the returned
    array maps new index -> original id.
    """
    cap = max(min_count, 0)
    ends: list[int] = []  # i, j of every row but the self-loops, interleaved
    counts: list[int] = []
    self_loops = 0
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if _blank(row):
                continue
            if len(row) not in (2, 3):
                raise EdgeListParseError(str(path), lineno, f"expected 2 or 3 fields, got {len(row)}")
            try:
                i = int(row[0])
                j = int(row[1])
                c = int(row[2]) if len(row) == 3 else 1
            except ValueError as exc:
                raise EdgeListParseError(str(path), lineno, f"non-integer field: {exc}") from None
            if i < 0 or j < 0:
                raise EdgeListParseError(str(path), lineno, "vertex ids must be nonnegative")
            if c < 0:
                raise EdgeListParseError(str(path), lineno, "count must be nonnegative")
            if i == j:
                self_loops += 1
                continue
            ends += (i, j)
            counts.append(c if c < cap else cap)
    if self_loops:
        warn_caller(f"dropped {self_loops} self-loop row(s) from {path}")

    ids, pairs = np.unique(np.array(ends, dtype=np.int64), return_inverse=True)
    n = ids.shape[0]
    pairs = np.sort(pairs.reshape(-1, 2), axis=1)
    keys, edge_of = np.unique(pairs[:, 0] * n + pairs[:, 1], return_inverse=True)
    totals = np.zeros(keys.shape[0], dtype=np.int64)
    np.add.at(totals, edge_of, np.array(counts, dtype=np.int64))
    kept = np.stack(np.divmod(keys[totals >= min_count], n), axis=1)
    if drop_isolated:
        ids, kept = np.unique(ids[kept], return_inverse=True)
    return Network.from_edges(ids.shape[0], kept.reshape(-1, 2)), ids


def save_trial_csv(data: TrialData, path) -> None:
    """Write the dataset with header y,w,z1,...,zp."""
    header = ["y", "w"] + [f"z{k + 1}" for k in range(data.p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            writer.writerow([repr(float(data.Y[i])), int(data.W[i])] + [repr(float(v)) for v in data.Z[i]])


def load_trial_csv(path, pi: float) -> TrialData:
    """Read a y,w,z1,...,zp dataset; pi is supplied by the design, not the file.

    Empty and whitespace-only lines are skipped, as load_edge_list skips them.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["y", "w"]:
            raise ValueError(f"{path}: expected header starting with y,w")
        p = len(header) - 2
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if _blank(row):
                continue
            if len(row) != p + 2:
                raise ValueError(f"{path}:{lineno}: expected {p + 2} fields")
            values = []
            for name, text in zip(header, row):
                try:
                    value = float(text)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}:{lineno}: {name.strip()} must be a finite number, got {text.strip()!r}"
                    )
                values.append(value)
            if values[1] not in (0.0, 1.0):
                raise ValueError(f"{path}:{lineno}: treatment w must be 0 or 1, got {row[1].strip()}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return TrialData(Y=arr[:, 0], W=arr[:, 1].astype(np.int64), Z=arr[:, 2:], pi=pi)
