import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netate import (
    AllTrimmedError,
    EmptyGroupError,
    InvalidAdjustmentError,
    KernelConfig,
    SingularDesignError,
    TrialData,
    UnsupportedDimensionError,
    difference_in_means,
    fixed_adjusted,
    function_adjusted,
    get_scenario,
    linear_adjusted,
    nonparametric,
    run_scenario,
)
from netate.estimators import RCOND_THRESHOLD, TRIM_FACTOR, _group_ols, _np_columns, _np_config, _np_tuning
from netate import estimators, kernels

from conftest import WORKERS, rng_for, whole_matrix_weights


def make_data(n=200, p=2, pi=0.5, seed=0, beta1=None, beta0=None, noise=0.0):
    """Outcomes exactly linear per group unless noise > 0."""
    rng = rng_for(30, seed)
    Z = rng.standard_normal((n, p))
    w = (rng.random(n) < pi).astype(int)
    if w.sum() in (0, n):
        w[0], w[1] = 1, 0
    b1 = np.arange(1, p + 1, dtype=float) if beta1 is None else np.asarray(beta1)
    b0 = np.linspace(-1, 1, p) if beta0 is None else np.asarray(beta0)
    y = np.where(w == 1, 2.0 + Z @ b1, -1.0 + Z @ b0)
    if noise:
        y = y + noise * rng.standard_normal(n)
    return TrialData(Y=y, W=w, Z=Z, pi=pi)


# ---------------------------------------------------------------------------
# difference in means
# ---------------------------------------------------------------------------

def test_dim_hand_case():
    data = TrialData(Y=np.array([1.0, 2, 3, 4]), W=np.array([1, 1, 0, 0]), Z=np.zeros((4, 0)), pi=0.5)
    assert difference_in_means(data).tau_hat == -2.0


def test_dim_constant_outcome():
    data = TrialData(Y=np.full(6, 3.3), W=np.array([1, 0, 1, 0, 1, 0]), Z=np.zeros((6, 0)), pi=0.5)
    assert difference_in_means(data).tau_hat == 0.0


def test_dim_empty_group():
    data = TrialData(Y=np.array([5.0]), W=np.array([1]), Z=np.zeros((1, 0)), pi=0.5)
    with pytest.raises(EmptyGroupError):
        difference_in_means(data)


# ---------------------------------------------------------------------------
# linear adjustment
# ---------------------------------------------------------------------------

def test_linear_recovers_exact_linear_truth():
    data = make_data(n=120, p=3, seed=1)
    b1 = np.arange(1, 4, dtype=float)
    b0 = np.linspace(-1, 1, 3)
    expected = (2.0 - (-1.0)) + data.Z.mean(axis=0) @ (b1 - b0)
    assert linear_adjusted(data).tau_hat == pytest.approx(expected, abs=1e-10)


def test_linear_p0_equals_dim_exactly():
    data = make_data(n=60, p=2, seed=2, noise=1.0)
    data0 = TrialData(Y=data.Y, W=data.W, Z=np.zeros((60, 0)), pi=0.5)
    assert linear_adjusted(data0).tau_hat == difference_in_means(data0).tau_hat


def test_linear_duplicate_column_is_singular():
    data = make_data(n=80, p=2, seed=3)
    dup = TrialData(Y=data.Y, W=data.W, Z=np.column_stack([data.Z[:, 0], data.Z[:, 0]]), pi=0.5)
    with pytest.raises(SingularDesignError):
        linear_adjusted(dup)


def _svd_rcond(X):
    """Reciprocal condition number of a group design from a separate SVD."""
    s = np.linalg.svd(X, compute_uv=False)
    return s[-1] / s[0]


def _group_designs(data):
    X = np.column_stack([np.ones(data.n), data.Z])
    return X[data.W == 1], X[data.W == 0]


def test_rank_gate_fewer_rows_than_columns():
    data = make_data(n=40, p=2, seed=6)
    w = np.zeros(40, dtype=int)
    w[:2] = 1  # two treated rows against three design columns
    with pytest.raises(SingularDesignError) as err:
        linear_adjusted(TrialData(Y=data.Y, W=w, Z=data.Z, pi=0.5))
    assert err.value.rcond == 0.0


def test_rank_gate_duplicate_column_reads_lstsq_singular_values():
    data = make_data(n=80, p=2, seed=3)
    dup = TrialData(Y=data.Y, W=data.W, Z=np.column_stack([data.Z[:, 0], data.Z[:, 0]]), pi=0.5)
    with pytest.raises(SingularDesignError) as err:
        linear_adjusted(dup)
    expected = _svd_rcond(_group_designs(dup)[0])
    assert expected < RCOND_THRESHOLD
    assert err.value.rcond == pytest.approx(expected, rel=1e-12)


# group rconds near 5e-9, 2.5e-10, 1e-10 and 5e-11: the third passes only the treated group
@pytest.mark.parametrize("delta,passes", [(1e-8, True), (5e-10, True), (2e-10, False), (1e-10, False)])
def test_rank_gate_near_collinear_columns(delta, passes):
    data = make_data(n=120, p=1, seed=7, noise=0.3)
    e = rng_for(32).standard_normal(data.n)
    z = data.Z[:, 0]
    near = TrialData(Y=data.Y, W=data.W, Z=np.column_stack([z, z + delta * e]), pi=0.5)
    expected1, expected0 = (_svd_rcond(X) for X in _group_designs(near))
    assert (min(expected1, expected0) >= RCOND_THRESHOLD) == passes
    if passes:
        diagnostics = linear_adjusted(near).diagnostics
        assert diagnostics["rcond1"] == pytest.approx(expected1, rel=1e-12)
        assert diagnostics["rcond0"] == pytest.approx(expected0, rel=1e-12)
    else:
        with pytest.raises(SingularDesignError) as err:
            linear_adjusted(near)
        first_failing = next(r for r in (expected1, expected0) if r < RCOND_THRESHOLD)
        assert err.value.rcond == pytest.approx(first_failing, rel=1e-12)


@pytest.mark.parametrize("ratio", [2.0, 0.5])
def test_rank_gate_either_side_of_threshold(ratio):
    # a 50 x 3 design whose smallest singular value is ratio * RCOND_THRESHOLD
    rng = rng_for(33)
    U, _ = np.linalg.qr(rng.standard_normal((50, 3)))
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    X = U @ np.diag([1.0, 0.5, ratio * RCOND_THRESHOLD]) @ V.T
    y = rng.standard_normal(50)
    expected = _svd_rcond(X)
    assert (expected >= RCOND_THRESHOLD) == (ratio > 1.0)
    if ratio > 1.0:
        beta, rcond = _group_ols(X, y, "treated")
        assert rcond == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(beta, np.linalg.lstsq(X, y, rcond=None)[0])
    else:
        with pytest.raises(SingularDesignError) as err:
            _group_ols(X, y, "treated")
        assert err.value.rcond == pytest.approx(expected, rel=1e-12)


def test_lin_single_regression_identity():
    # coefficient of W in one joint fit on [1, W, Zc, W*Zc] equals the estimate
    data = make_data(n=150, p=3, seed=4, noise=0.7)
    zc = data.Z - data.Z.mean(axis=0)
    X = np.column_stack([np.ones(data.n), data.W, zc, data.W[:, None] * zc])
    coef, *_ = np.linalg.lstsq(X, data.Y, rcond=None)
    assert linear_adjusted(data).tau_hat == pytest.approx(coef[1], abs=1e-9)


def test_linear_affine_covariate_invariance():
    data = make_data(n=140, p=3, seed=5, noise=0.5)
    rng = rng_for(31)
    A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    shift = rng.standard_normal(3)
    transformed = TrialData(Y=data.Y, W=data.W, Z=data.Z @ A.T + shift, pi=0.5)
    assert linear_adjusted(transformed).tau_hat == pytest.approx(
        linear_adjusted(data).tau_hat, abs=1e-9
    )


# ---------------------------------------------------------------------------
# fixed-coefficient adjustment
# ---------------------------------------------------------------------------

def test_fixed_zero_equals_dim():
    data = make_data(n=90, p=2, seed=6, noise=1.0)
    assert fixed_adjusted(data, np.zeros(2), np.zeros(2)).tau_hat == difference_in_means(data).tau_hat


def test_fixed_p0_equals_dim_exactly():
    data = make_data(n=70, p=1, seed=9, noise=1.0)
    data0 = TrialData(Y=data.Y, W=data.W, Z=np.zeros((70, 0)), pi=0.5)
    assert fixed_adjusted(data0, None, None).tau_hat == difference_in_means(data0).tau_hat


def test_fixed_at_ols_slopes_equals_linear():
    data = make_data(n=130, p=4, seed=7, noise=0.8)
    fit = linear_adjusted(data)
    alpha1 = fit.diagnostics["beta1"][1:]
    alpha0 = fit.diagnostics["beta0"][1:]
    assert fixed_adjusted(data, alpha1, alpha0).tau_hat == pytest.approx(fit.tau_hat, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 999), shift=st.floats(-50, 50, allow_nan=False))
def test_fixed_translation_invariance(seed, shift):
    data = make_data(n=60, p=2, seed=seed, noise=0.5)
    a1, a0 = np.array([0.4, -1.1]), np.array([0.0, 2.0])
    base = fixed_adjusted(data, a1, a0).tau_hat
    moved = TrialData(Y=data.Y, W=data.W, Z=data.Z + shift, pi=0.5)
    assert fixed_adjusted(moved, a1, a0).tau_hat == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# function adjustment
# ---------------------------------------------------------------------------

def test_function_constant_equals_dim():
    data = make_data(n=70, p=2, seed=8, noise=1.0)
    res = function_adjusted(data, lambda z: 5.0, lambda z: -2.0)
    assert res.tau_hat == pytest.approx(difference_in_means(data).tau_hat, abs=1e-12)


def test_function_linear_equals_fixed():
    data = make_data(n=110, p=2, seed=9, noise=0.6)
    a1, a0 = np.array([1.5, -0.5]), np.array([0.25, 0.75])
    res = function_adjusted(data, lambda z: z @ a1 + 3.0, lambda z: z @ a0 - 1.0)
    assert res.tau_hat == pytest.approx(fixed_adjusted(data, a1, a0).tau_hat, abs=1e-10)


def test_function_rejects_non_finite():
    data = make_data(n=40, p=1, seed=10)
    with pytest.raises(InvalidAdjustmentError):
        function_adjusted(data, lambda z: float("nan"), lambda z: 0.0)


def test_function_sees_the_covariate_matrix_once():
    data = make_data(n=40, p=2, seed=11)
    shapes = []

    def first_coordinate(z):
        shapes.append(z.shape)
        return z[:, 0]

    function_adjusted(data, first_coordinate, first_coordinate)
    assert shapes == [(40, 2), (40, 2)]
    # (n, p) values do not broadcast to n values, and g is not retried row by row
    with pytest.raises(ValueError):
        function_adjusted(data, lambda z: z, first_coordinate)


def test_function_with_true_conditional_means_beats_dim():
    # oracle adjustments remove the covariate signal: lower spread over reps
    scenario = get_scenario("sec41-main", p=1)
    from netate.trial import assign_treatments, sample_covariates, simulate_outcomes

    def mean_treated(z):
        z = np.atleast_2d(z)[:, 0]
        return 0.7 - 0.5 + z + np.exp(z) / 2.0

    def mean_control(z):
        return np.exp(np.atleast_2d(z)[:, 0]) / 2.0

    taus_dim, taus_g = [], []
    for rep in range(500):
        rng = rng_for(32, rep)
        n = 300
        w = assign_treatments(n, 0.7, rng)
        draw = sample_covariates(scenario.outcome, n, rng)
        y = simulate_outcomes(scenario.outcome, w, 0.7, draw, rng)
        data = TrialData(Y=y, W=w, Z=draw.Z, pi=0.7)
        taus_dim.append(difference_in_means(data).tau_hat)
        taus_g.append(function_adjusted(data, mean_treated, mean_control).tau_hat)
    assert np.var(taus_g) < np.var(taus_dim)


# ---------------------------------------------------------------------------
# rule of thumb
# ---------------------------------------------------------------------------

def tune(data, alpha, h_band=None, b_trim=None):
    """_np_tuning on the config _np_config builds for data's n and p, as a run does."""
    return _np_tuning(data, *_np_config(data.n, data.p, alpha, h_band, b_trim))


def rule_of_thumb(alpha, Z, **overrides):
    """The plug-in (q, h, b_trim) of _np_tuning at covariates Z, which alone set it."""
    n = Z.shape[0]
    config, _ = tune(TrialData(Y=np.zeros(n), W=np.zeros(n), Z=Z, pi=0.5), alpha, **overrides)
    return config.q, config.h_band, config.b_trim


def test_rule_of_thumb_bandwidths_match_published_column():
    rng = rng_for(33)
    published = {1: 0.518, 2: 0.745, 3: 0.995, 4: 1.831, 5: 2.173, 6: 2.523,
                 7: 2.881, 8: 3.652, 9: 4.046, 10: 4.443}
    for p, h_ref in published.items():
        Z = rng.standard_normal((1000, p))
        q, h, b = rule_of_thumb(0.01, Z)
        assert q == {1: 2, 2: 2, 3: 2, 4: 4, 5: 4, 6: 4, 7: 4, 8: 6, 9: 6, 10: 6}[p]
        assert h == pytest.approx(h_ref, abs=2e-3)
        assert b > 0


def test_rule_of_thumb_formula_exact():
    Z = rng_for(34).standard_normal((500, 5))
    q, h, b = rule_of_thumb(0.05, Z)
    a1 = 0.5 * 5 + 3 * 4
    assert h == (1 + 0.5 * 5) * 500 ** (-1 / a1)
    # the trim level is the alpha-quantile of the density estimates times n^(-1/a2)
    cfg = KernelConfig(q=4, p=5, h_band=h, b_trim=b)
    p_hat = whole_matrix_weights(Z, cfg).sum(axis=1) / (500 * h**5)
    a2 = (3 * 5 + 18 * 4) / (4 - 0.5 * 5)
    assert b == pytest.approx(np.quantile(p_hat, 0.05) * 500 ** (-1 / a2), rel=1e-12)


def test_rule_of_thumb_exponent_positive_under_map():
    for p in range(1, 11):
        q = {1: 2, 2: 2, 3: 2}.get(p) or (4 if p <= 7 else 6)
        assert q - 0.5 * p > 0


def test_rule_of_thumb_dimension_gate():
    with pytest.raises(UnsupportedDimensionError):
        rule_of_thumb(0.01, rng_for(35).standard_normal((100, 11)))


def test_rule_of_thumb_overrides():
    Z = rng_for(36).standard_normal((200, 1))
    q, h, b = rule_of_thumb(0.01, Z, h_band=0.4, b_trim=0.02)
    assert (q, h, b) == (2, 0.4, 0.02)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_rule_of_thumb_rejects_alpha_outside_unit_interval(alpha):
    Z = rng_for(37).standard_normal((200, 1))
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
        rule_of_thumb(alpha, Z)


# ---------------------------------------------------------------------------
# nonparametric estimator
# ---------------------------------------------------------------------------

def np_data(n=300, seed=11, pi=0.5):
    rng = rng_for(37, seed)
    Z = rng.standard_normal((n, 1))
    w = (rng.random(n) < pi).astype(int)
    y = w * (1.0 + Z[:, 0]) + Z[:, 0] ** 2 + 0.1 * rng.standard_normal(n)
    return TrialData(Y=y, W=w, Z=Z, pi=pi)


def test_nonparametric_infinite_bandwidth_equals_dim():
    data = np_data()
    config = KernelConfig(q=2, p=1, h_band=math.inf, b_trim=1e-3)
    assert nonparametric(data, config).tau_hat == difference_in_means(data).tau_hat


def test_nonparametric_all_trimmed():
    data = np_data(n=50)
    with pytest.warns(UserWarning, match="below trim threshold"):
        config = KernelConfig(q=2, p=1, h_band=0.5, b_trim=1e9)
    with pytest.raises(AllTrimmedError):
        nonparametric(data, config)


def test_nonparametric_trim_monotonicity():
    data = np_data(n=200)
    kept = []
    for b in (1e-4, 1e-2, 0.05, 0.2, 0.5):
        config = KernelConfig(q=2, p=1, h_band=0.5, b_trim=b)
        try:
            kept.append(nonparametric(data, config).diagnostics["kept"])
        except AllTrimmedError:
            kept.append(0)
    assert all(a >= b for a, b in zip(kept, kept[1:]))


def test_nonparametric_diagnostics_and_dim_gate():
    data = np_data(n=150)
    config = KernelConfig(q=2, p=1, h_band=0.6, b_trim=0.01)
    res = nonparametric(data, config)
    d = res.diagnostics
    assert d["kept"] + d["trimmed"] == 150
    assert d["pi_hat"] == data.W.mean()
    assert d["pi_design"] == 0.5
    bad = KernelConfig(q=2, p=2, h_band=0.6, b_trim=0.01)
    with pytest.raises(ValueError):
        nonparametric(data, bad)


def test_nonparametric_estimates_the_effect():
    # truth: tau = E[1 + z] = 1 at pi = 0.5
    data = np_data(n=2000, seed=12)
    q, h, b = rule_of_thumb(0.01, data.Z)
    res = nonparametric(data, KernelConfig(q=q, p=1, h_band=h, b_trim=b))
    assert res.tau_hat == pytest.approx(1.0, abs=0.15)


# ---------------------------------------------------------------------------
# Monte Carlo orderings
# ---------------------------------------------------------------------------

def test_variance_ordering_linear_vs_dim():
    # adjusted estimator no noisier than difference in means (2 MC SEs slack)
    scenario = get_scenario("sec31-validation", pi=0.5)
    summary = run_scenario(
        scenario, 500, ("linear:none", "dim:none"), reps=1000, seed=9100, workers=WORKERS
    )
    v_lin = summary.methods["linear:none"].variance
    est_dim = summary.methods["dim:none"].estimates
    v_dim = est_dim.var(ddof=1)
    m4 = np.mean((est_dim - est_dim.mean()) ** 4)
    se_vdim = math.sqrt(max(m4 - v_dim**2, 0.0) / est_dim.size)
    assert v_lin <= v_dim + 2 * se_vdim


def test_nonparametric_dominates_linear_mse(smooth_p5_alpha05_study):
    ms = smooth_p5_alpha05_study.methods
    assert ms["np:none"].n_mse < ms["linear:none"].n_mse


# ---------------------------------------------------------------------------
# kernel sums against the full weights matrix
# ---------------------------------------------------------------------------

def _dense_reference(data, config, sums=None):
    """The estimator from the (n, n) weights matrix, or from the given sums K @ V.

    Returns tau, the kept mask, and p1, p2 and p_hat.  Every kept point has
    positive group masses den1 and den0, since p1 and p2 exceed b_trim > 0.
    """
    w = data.W.astype(float)
    if sums is None:
        kmat = whole_matrix_weights(data.Z, config)
        sums = np.c_[kmat.sum(axis=1), kmat @ w, kmat @ (1.0 - w), kmat @ (data.Y * w),
                     kmat @ (data.Y * (1.0 - w))]
    total, den1, den0, num1, num0 = sums.T
    scale = data.n * config.h_band**config.p
    p1 = den1 / (scale * w.mean())
    p2 = den0 / (scale * (1.0 - w.mean()))
    kept = (p1 > config.b_trim) & (p2 > config.b_trim)
    kept &= total / scale > TRIM_FACTOR * config.b_trim
    assert (den1[kept] > 0.0).all() and (den0[kept] > 0.0).all()
    tau = (num1[kept] / den1[kept] - num0[kept] / den0[kept]).sum() / data.n
    return tau, kept, p1, p2, total / scale


@pytest.mark.parametrize("p", [1, 3, 5])
def test_nonparametric_sums_match_dense_reference(p):
    rng = rng_for(46, p)
    n = 400
    Z = rng.standard_normal((n, p))
    w = (rng.random(n) < 0.5).astype(int)
    y = w * (1.0 + Z[:, 0]) + Z[:, 0] ** 2 + 0.1 * rng.standard_normal(n)
    data = TrialData(Y=y, W=w, Z=Z, pi=0.5)
    q, h, b = rule_of_thumb(0.05, Z)
    config = KernelConfig(q=q, p=p, h_band=h, b_trim=b)
    tau, kept, *_ = _dense_reference(data, config)
    d = nonparametric(data, config)
    assert d.tau_hat == pytest.approx(tau, rel=1e-12)
    assert d.diagnostics["kept"] == kept.sum()


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_nonparametric_trim_boundary_matches_dense_reference(side):
    # b_trim 1e-12 (relative) below or above one point's p1: the blocked sums
    # round differently from the full matrix products, but far less than that
    rng = rng_for(47)
    n = 300
    Z = rng.standard_normal((n, 5))
    w = (rng.random(n) < 0.5).astype(int)
    y = Z[:, 0] + w + 0.1 * rng.standard_normal(n)
    data = TrialData(Y=y, W=w, Z=Z, pi=0.5)
    probe = KernelConfig(q=4, p=5, h_band=2.0, b_trim=1.0)
    *_, p1, p2, p_hat = _dense_reference(data, probe)
    # a point whose p1 alone sets its fate at b_trim = p1
    room = (p1 > 0) & (p2 > 1.1 * p1) & (p_hat > 1.1 * p1)
    i = int(np.flatnonzero(room)[np.argmin(p1[room])])
    config = KernelConfig(q=4, p=5, h_band=2.0, b_trim=p1[i] * (1.0 + side * 1e-12))
    tau, kept, *_ = _dense_reference(data, config)
    assert kept[i] == (side < 0)
    d = nonparametric(data, config)
    assert d.tau_hat == pytest.approx(tau, rel=1e-12)
    assert d.diagnostics["kept"] == kept.sum()


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_p1_trim_boundary_matches_symmetric_reference(side):
    # the window sums against the symmetric pass at the smallest-density
    # point whose p1 alone sets its fate (8.7 h from 0), b_trim 1e-13
    # (relative) either side: moments about one global centre put this p1
    # 5e-13 off, and the window sums agree to rounding
    rng = rng_for(53)
    n = 4000
    Z = rng.standard_normal((n, 1))
    w = (rng.random(n) < 0.5).astype(int)
    y = Z[:, 0] + w + 0.1 * rng.standard_normal(n)
    data = TrialData(Y=y, W=w, Z=Z, pi=0.5)
    q, h, _ = rule_of_thumb(0.05, Z)
    probe = KernelConfig(q=q, p=1, h_band=h, b_trim=h)
    sums = kernels._symmetric_sums(Z, probe, _np_columns(data))
    *_, p1, p2, p_hat = _dense_reference(data, probe, sums)
    room = (p1 > 0) & (p2 > 1.1 * p1) & (p_hat > 1.1 * p1)
    i = int(np.flatnonzero(room)[np.argmin(p1[room])])
    config = KernelConfig(q=q, p=1, h_band=h, b_trim=p1[i] * (1.0 + side * 1e-13))
    tau, kept, *_ = _dense_reference(data, config, sums)
    assert kept[i] == (side < 0)
    d = nonparametric(data, config)
    assert d.tau_hat == pytest.approx(tau, rel=1e-12)
    assert d.diagnostics["kept"] == kept.sum()


def test_np_path_allocates_no_n_by_n_array():
    n = 2000
    rng = rng_for(48)
    Z = rng.standard_normal((n, 5))
    w = (rng.random(n) < 0.5).astype(int)
    data = TrialData(Y=Z[:, 0] + w, W=w, Z=Z, pi=0.5)
    tracemalloc.start()
    try:
        config, sums = tune(data, 0.05)
        nonparametric(data, config, sums=sums)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sums.shape == (n, 5)
    assert peak < n * n * 8 / 16


def test_np_tuning_reuses_its_sums_and_checks_their_shape(monkeypatch):
    data = np_data(n=120)
    computed = []
    original = estimators.weights_matrix

    def recording(*args, **kwargs):
        computed.append(original(*args, **kwargs))
        return computed[-1]

    monkeypatch.setattr(estimators, "weights_matrix", recording)
    for overrides in ({}, {"b_trim": 0.02}, {"h_band": 0.8, "b_trim": 0.02}):
        computed.clear()
        config, sums = tune(data, 0.05, **overrides)
        assert len(computed) == 1 and computed[0] is sums
        assert {k: getattr(config, k) for k in overrides} == overrides
        # the sums are, bit for bit, those nonparametric computes itself from the config
        reference = nonparametric(data, config)
        assert np.array_equal(computed[1], sums)
        assert nonparametric(data, config, sums=sums).tau_hat == reference.tau_hat
        with pytest.raises(ValueError, match="kernel sums shape"):
            nonparametric(data, config, sums=sums[:, :4])
    # h = inf: every density estimate is 0, so no trim level follows from them
    with pytest.raises(ValueError, match="pass b_trim explicitly"):
        tune(data, 0.05, h_band=math.inf)
