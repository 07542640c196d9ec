"""Point estimators for the average treatment effect.

Every estimator consumes a :class:`~netate.trial.TrialData` and returns an
:class:`EstimateResult` carrying the point estimate and method diagnostics.
Group least-squares fits make one orthogonal decomposition each (SVD-based
lstsq), and the reciprocal-condition-number gate reads the singular values
that lstsq returns; normal equations are never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ._errors import (
    AllTrimmedError,
    EmptyGroupError,
    InvalidAdjustmentError,
    SingularDesignError,
)
from .kernels import KernelConfig, kernel_order_for_dimension, weights_matrix
from .trial import TrialData

__all__ = [
    "EstimateResult",
    "difference_in_means",
    "linear_adjusted",
    "fixed_adjusted",
    "function_adjusted",
    "nonparametric",
    "RCOND_THRESHOLD",
    "TRIM_FACTOR",
]

RCOND_THRESHOLD = 1e-10
TRIM_FACTOR = 1.01


@dataclass
class EstimateResult:
    tau_hat: float
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.tau_hat):
            raise InvalidAdjustmentError(f"estimate is not finite: {self.tau_hat}")


def _groups(data: TrialData) -> tuple[np.ndarray, np.ndarray]:
    treated = data.W == 1
    if not treated.any() or treated.all():
        raise EmptyGroupError("both treatment groups must be non-empty")
    return treated, ~treated


def difference_in_means(data: TrialData) -> EstimateResult:
    """Mean outcome of the treated minus mean outcome of the controls."""
    treated, control = _groups(data)
    tau = float(data.Y[treated].mean() - data.Y[control].mean())
    return EstimateResult(tau, "dim", {"n1": int(treated.sum()), "n0": int(control.sum())})


def _group_ols(X: np.ndarray, y: np.ndarray, label: str) -> tuple[np.ndarray, float]:
    """Least squares within one group; returns (coefficients, rcond)."""
    if X.shape[1] == 1:
        # intercept-only fit is the group mean; keeps the p=0 identity exact
        return np.array([y.mean()]), 1.0
    beta, _, _, s = np.linalg.lstsq(X, y, rcond=None)
    rcond = float(s[-1] / s[0]) if X.shape[0] >= X.shape[1] and s[-1] > 0.0 else 0.0
    if rcond < RCOND_THRESHOLD:
        raise SingularDesignError(f"{label} design matrix is rank deficient", rcond=rcond)
    return beta, rcond


def linear_adjusted(data: TrialData) -> EstimateResult:
    """Group-wise least squares on [1, Z]; estimate = mean_x' (beta1 - beta0).

    The estimate equals x_bar @ (beta1 - beta0) with x_bar the column means
    of the design, which is also the treatment coefficient of a single
    regression on treatment, centered covariates, and their interaction.
    """
    treated, control = _groups(data)
    X = np.column_stack([np.ones(data.n), data.Z])
    beta1, rcond1 = _group_ols(X[treated], data.Y[treated], "treated")
    beta0, rcond0 = _group_ols(X[control], data.Y[control], "control")
    tau = float(X.mean(axis=0) @ (beta1 - beta0))
    return EstimateResult(
        tau,
        "linear",
        {
            "beta1": beta1,
            "beta0": beta0,
            "rcond1": rcond1,
            "rcond0": rcond0,
            "n1": int(treated.sum()),
            "n0": int(control.sum()),
        },
    )


def fixed_adjusted(data: TrialData, alpha1, alpha0) -> EstimateResult:
    """Plug-in adjustment with fixed slope vectors and centered covariates."""
    treated, control = _groups(data)
    a1 = np.zeros(data.p) if alpha1 is None else np.asarray(alpha1, dtype=float).reshape(data.p)
    a0 = np.zeros(data.p) if alpha0 is None else np.asarray(alpha0, dtype=float).reshape(data.p)
    zc = data.Z - data.Z.mean(axis=0)
    adj1 = zc @ a1
    adj0 = zc @ a0
    tau = float((data.Y[treated] - adj1[treated]).mean() - (data.Y[control] - adj0[control]).mean())
    return EstimateResult(tau, "fixed_alpha", {"alpha1": a1, "alpha0": a0})


def function_adjusted(data: TrialData, g1: Callable, g0: Callable) -> EstimateResult:
    """Adjustment by functions g(Z) -> n values (or a scalar), recentered by their sample means."""
    treated, control = _groups(data)

    def evaluate(g, label):
        vals = np.broadcast_to(np.asarray(g(data.Z), dtype=float), (data.n,))
        if not np.isfinite(vals).all():
            raise InvalidAdjustmentError(f"{label} returned a non-finite value")
        return vals

    v1 = evaluate(g1, "g1")
    v0 = evaluate(g0, "g0")
    tau = float(
        (data.Y[treated] - v1[treated] + v1.mean()).mean()
        - (data.Y[control] - v0[control] + v0.mean()).mean()
    )
    return EstimateResult(tau, "function_adjusted", {})


def _np_columns(data: TrialData) -> np.ndarray:
    """The (n, 5) right-hand side [1, w, 1 - w, Y w, Y (1 - w)] of the kernel sums."""
    w = data.W.astype(float)
    return np.column_stack([np.ones(data.n), w, 1.0 - w, data.Y * w, data.Y * (1.0 - w)])


def _np_config(
    n: int, p: int, alpha: float, h_band: float | None, b_trim: float | None
) -> tuple[KernelConfig, float | None]:
    """A run's np tuning at sample size n and dimension p: its KernelConfig, and alpha or None.

    The order q and the bandwidth (1 + p/2) n^(-1/a1), a1 = p/2 + 3q, or
    h_band, depend on n and p alone, so a run builds them once, before any
    estimate: an unsupported p or an alpha outside (0, 1) fails here, and a
    given b_trim above h warns here, at the caller's line, and comes back
    with alpha None.  Without b_trim the config holds h in its place (which
    cannot warn), and _np_tuning derives the trim level from each dataset.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    q = kernel_order_for_dimension(p)
    a1 = 0.5 * p + 3 * q
    h = float(h_band) if h_band is not None else (1.0 + 0.5 * p) * float(n) ** (-1.0 / a1)
    config = KernelConfig(q=q, p=p, h_band=h, b_trim=h if b_trim is None else float(b_trim))
    return config, alpha if b_trim is None else None


def _np_tuning(
    data: TrialData, config: KernelConfig, alpha: float | None
) -> tuple[KernelConfig, np.ndarray]:
    """The kernel estimator's KernelConfig for `data`, and its sums K @ _np_columns(data).

    `config` and `alpha` are the run's, from _np_config.  With alpha None
    the config is used as given.  Otherwise the trim level is C2 n^(-1/a2)
    with a2 = (3p + 18q)/(q - p/2) and C2 the alpha-quantile of the
    density estimates at the sample points; the config that carries it is
    built here, per dataset, and warns here if it exceeds h.

    The sums are computed once either way, and their column 0 is the
    unscaled density estimate that the trim level needs.  They come from
    weights_matrix, which makes no (n, n) array and reads no trim level.
    """
    sums = weights_matrix(data.Z, config, rhs=_np_columns(data))
    if alpha is None:
        return config, sums
    n, p, q, h = data.n, config.p, config.q, config.h_band
    a2 = (3.0 * p + 18.0 * q) / (q - 0.5 * p)
    p_hat = sums[:, 0] / (n * h**p)
    c2 = float(np.quantile(p_hat, alpha))
    if c2 <= 0:
        raise ValueError(
            f"the {alpha}-quantile of the density estimates is {c2:g} <= 0; "
            f"pass b_trim explicitly"
        )
    return KernelConfig(q=q, p=p, h_band=h, b_trim=c2 * float(n) ** (-1.0 / a2)), sums


def nonparametric(
    data: TrialData, config: KernelConfig, sums: np.ndarray | None = None
) -> EstimateResult:
    """Trimmed average of local-constant group fits at every sample point.

    Points are kept when both group density estimates exceed the trim level
    and the pooled density exceeds TRIM_FACTOR times it; trimmed points
    contribute zero but stay in the 1/n averaging.  The group proportion
    pi_hat = mean(W) feeds the group density estimates.

    Everything here is read from five kernel sums per point, K @ V with
    V = [1, w, 1 - w, Y w, Y (1 - w)]: the density, the group masses den1
    and den0, and the numerators num1 and num0.  den0 is a sum of its own,
    not the density minus den1: with the signed higher-order kernels that
    difference cancels where den0 is near zero, which is where the
    trimming tests read it.  On the harness path `sums` is the K @ V that
    _np_tuning computed with `config`; a library caller may omit it, and
    weights_matrix computes it here.  Either way no (n, n) array is made.
    """
    treated, control = _groups(data)
    if config.p != data.p:
        raise ValueError("kernel config dimension does not match the data")
    n = data.n
    pi_hat = float(data.W.mean())
    diagnostics: dict[str, Any] = {
        "q": config.q,
        "h_band": config.h_band,
        "b_trim": config.b_trim,
        "trim_factor": TRIM_FACTOR,
        "pi_hat": pi_hat,
        "pi_design": data.pi,
    }

    if not math.isfinite(config.h_band):
        # infinite bandwidth: constant kernel weights, so the local fits are
        # the group means and no point is trimmed
        tau = float(data.Y[treated].mean() - data.Y[control].mean())
        diagnostics.update({"kept": n, "trimmed": 0})
        return EstimateResult(tau, "nonparametric", diagnostics)

    if sums is None:
        sums = weights_matrix(data.Z, config, rhs=_np_columns(data))
    if sums.shape != (n, 5):
        raise ValueError("kernel sums shape does not match the data")
    scale = n * config.h_band**config.p
    p_hat = sums[:, 0] / scale
    den1, den0, num1, num0 = sums[:, 1:].T
    p1 = den1 / (scale * pi_hat)
    p2 = den0 / (scale * (1.0 - pi_hat))
    kept = (p1 > config.b_trim) & (p2 > config.b_trim) & (p_hat > TRIM_FACTOR * config.b_trim)
    if not kept.any():
        raise AllTrimmedError("every point failed the trimming conditions")

    contrast = num1[kept] / den1[kept] - num0[kept] / den0[kept]
    tau = float(contrast.sum() / n)
    diagnostics.update({"kept": int(kept.sum()), "trimmed": int(n - kept.sum())})
    return EstimateResult(tau, "nonparametric", diagnostics)
