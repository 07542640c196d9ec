import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from netate import (
    OutcomeModel,
    ReplicateFailureError,
    TrialData,
    UnknownScenarioError,
    UnsupportedDimensionError,
    ate_oracle,
    emit_report,
    get_scenario,
    make_graphon,
    reproduce_table,
    run_scenario,
    theoretical_variance_oracle,
    true_tau,
)
from netate import _blas
from netate.estimators import _np_config
from netate.harness import TABLE_IDS, _estimate_once, _resolve_method, _worker_pool, scenario_ids
from netate.variance import conservative_network_term, variance_np_polyseq

from conftest import rng_for


# ---------------------------------------------------------------------------
# scenario registry
# ---------------------------------------------------------------------------

def test_scenario_ids_and_unknown():
    assert set(scenario_ids()) == {"sec31-validation", "sec41-main", "contact-vaccine"}
    with pytest.raises(UnknownScenarioError):
        get_scenario("sec99")


def test_scenario_defaults():
    s31 = get_scenario("sec31-validation")
    assert (s31.pi, s31.p, s31.rank) == (0.5, 1, 3)
    s41 = get_scenario("sec41-main", p=7, pi=0.6)
    assert (s41.pi, s41.p) == (0.6, 7)
    sc = get_scenario("contact-vaccine")
    assert sc.network is not None and sc.rank == 10 and sc.pi == 0.2


def test_scenario_p_and_rank_follow_the_model_and_graphon():
    assert get_scenario("sec41-main", p=4).p == 4
    swapped = replace(get_scenario("sec31-validation"), graphon=make_graphon("constant:0.5"))
    assert swapped.rank == 1
    with pytest.raises(ValueError, match="rank_hint"):
        replace(swapped, graphon=replace(swapped.graphon, rank_hint=None))


@pytest.mark.parametrize("p", [0, -1, 2.7, 1.9])
def test_get_scenario_rejects_p_below_one(p):
    # a non-integral p is rejected, not truncated: 1.9 would pass as the scalar covariate's p = 1
    message = rf"p must be {'>= 1' if p == int(p) else 'an integer'}, got {re.escape(str(p))}$"
    for scenario_id in ("sec41-main", "sec31-validation"):
        with pytest.raises(ValueError, match=message):
            get_scenario(scenario_id, p=p)
    with pytest.raises(ValueError, match=message):  # a model built directly is checked too
        OutcomeModel("sec41-main", p=p)


@pytest.mark.parametrize("scenario_id", ["sec31-validation", "contact-vaccine"])
def test_scalar_covariate_models_reject_p(scenario_id):
    # their covariate law draws one column whatever p says
    message = f"outcome model '{scenario_id}' owns a scalar covariate; p must be 1, got 3"
    with pytest.raises(ValueError, match=re.escape(message)):
        OutcomeModel(scenario_id, p=3)
    with pytest.raises(ValueError, match=re.escape(message)):
        get_scenario(scenario_id, p=3)
    assert OutcomeModel(scenario_id, p=1).p == 1


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
def test_scenario_rejects_a_trim_quantile_outside_the_unit_interval(alpha):
    # checked whatever the methods: a run without an np method never builds the np tuning
    message = rf"np_alpha must lie in \(0, 1\), got {alpha}$"
    with pytest.raises(ValueError, match=message):
        get_scenario("sec41-main", np_alpha=alpha)
    with pytest.raises(ValueError, match=message):
        replace(get_scenario("sec31-validation"), np_alpha=alpha)


def test_contact_scenario_rejects_missing_file_and_bad_period(tmp_path):
    missing = tmp_path / "no-such-contacts.csv"
    with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
        get_scenario("contact-vaccine", contacts_path=missing)
    with pytest.raises(ValueError, match="period must be"):
        get_scenario("contact-vaccine", period="evening")


def test_contact_period_checked_with_a_contact_file(tmp_path):
    path = tmp_path / "contacts.csv"
    path.write_text("0,1,3\n1,2,3\n0,2,3\n")
    with pytest.raises(ValueError, match="period must be"):
        get_scenario("contact-vaccine", period="evening", contacts_path=path)


@pytest.mark.parametrize("option", [{"period": "midday"}, {"contacts_path": "/nonexistent.csv"}],
                         ids=["period", "contacts_path"])
def test_contact_options_rejected_off_the_contact_scenario(option):
    # they choose the contact network, which a graphon scenario does not have
    with pytest.raises(ValueError, match=f"{next(iter(option))} applies to the contact-vaccine scenario only"):
        get_scenario("sec41-main", **option)


def test_self_loop_warning_names_the_caller(tmp_path):
    # the warning skips get_scenario, contact_network and load_edge_list to name this file
    path = tmp_path / "contacts.csv"
    path.write_text("0,1,3\n1,2,3\n0,2,3\n1,1,4\n")
    with pytest.warns(UserWarning, match="dropped 1 self-loop row") as record:
        get_scenario("contact-vaccine", contacts_path=path)
    assert record[0].filename == __file__


def test_true_tau_pinned_against_oracle():
    for scenario, reps in ((get_scenario("sec31-validation", pi=0.6), 200_000),
                           (get_scenario("sec41-main", p=2), 200_000),
                           (get_scenario("contact-vaccine"), 200_000)):
        oracle = ate_oracle(scenario.outcome, scenario.pi, reps, rng_for(50))
        assert abs(true_tau(scenario) - oracle.value) < 4 * oracle.se + 1e-6


def test_method_resolution():
    assert _resolve_method("linear") == ("linear", "spectral")
    assert _resolve_method("np") == ("np", "polyseq")
    assert _resolve_method("dim:conservative") == ("dim", "conservative")
    with pytest.raises(ValueError):
        _resolve_method("ols")
    with pytest.raises(ValueError):
        _resolve_method("np:conservative")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def test_run_scenario_deterministic():
    s = get_scenario("sec31-validation", pi=0.5)
    a = run_scenario(s, 80, ("linear",), reps=3, seed=5)
    b = run_scenario(s, 80, ("linear",), reps=3, seed=5)
    assert a.to_dict() == b.to_dict()
    c = run_scenario(s, 80, ("linear",), reps=3, seed=6)
    assert c.methods["linear:spectral"].mean != a.methods["linear:spectral"].mean


@pytest.mark.parametrize("n, p", [(100, 1), (300, 5)])
def test_run_scenario_worker_invariance_small(n, p):
    # n = 300 runs the dense eigh, whose bits would vary with the BLAS threads a pool child runs
    s = get_scenario("sec41-main", p=p)
    one = run_scenario(s, n, ("np", "dim"), reps=6, seed=9, workers=1)
    two = run_scenario(s, n, ("np", "dim"), reps=6, seed=9, workers=2)
    assert one.to_dict() == two.to_dict()
    assert (one.methods["np:polyseq"].estimates == two.methods["np:polyseq"].estimates).all()


def _child_openblas_threads():
    return _blas.openblas_threads("numpy"), _blas.openblas_threads("scipy"), _blas.thread_budget()


def test_pool_children_split_the_cores():
    # each child runs cores // workers threads in both OpenBLAS copies, so workers=2 on two
    # cores runs two BLAS threads in all, not four
    if _blas._openblas("numpy") is None or _blas._openblas("scipy") is None:
        pytest.skip("no bundled OpenBLAS found")
    share = max(1, _blas.usable_cores() // 2)
    with _worker_pool(2) as pool:
        assert pool.submit(_child_openblas_threads).result(timeout=60) == (share, share, share)


def test_one_numpy_thread_restores_the_count():
    lib = _blas._openblas("numpy")
    if lib is None:
        pytest.skip("no bundled OpenBLAS found")
    before = lib[0]()
    lib[1](2)
    try:
        with _blas.one_numpy_thread():
            assert lib[0]() == 1
        assert lib[0]() == 2
    finally:
        lib[1](before)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_scenario_failure_reporting(workers):
    s = get_scenario("sec41-main", p=1)
    # serial replicates or pool children: the trim warning is given once, and it names this file,
    # not the library line that builds the config or a line of concurrent.futures
    with pytest.warns(UserWarning, match="below trim threshold") as record:
        with pytest.raises(RuntimeError, match="AllTrimmed"):
            run_scenario(s, 60, ("np:none",), reps=4, seed=3, b_trim=1e9, workers=workers)
    assert [r.filename for r in record] == [__file__]


@pytest.mark.parametrize("b_trim", [None, 0.01])
def test_run_scenario_rejects_unsupported_p_before_any_replicate(monkeypatch, b_trim):
    # one error for a p the kernel orders do not cover, whether or not the trim level is given
    import netate.harness as hz

    def no_replicates(task):
        raise AssertionError("_run_replicate was called")

    monkeypatch.setattr(hz, "_run_replicate", no_replicates)
    with pytest.raises(UnsupportedDimensionError):
        run_scenario(get_scenario("sec41-main", p=11), 60, ("np:none",), reps=2, seed=1, b_trim=b_trim)


@pytest.mark.parametrize("b_trim", [None, 0.01])
def test_run_scenario_builds_the_np_config_once(monkeypatch, b_trim):
    # the order, bandwidth and any given trim level are the run's: no replicate rebuilds them
    import netate.estimators as est
    import netate.harness as hz

    calls = []
    original = est._np_config

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(est, "_np_config", counting)
    monkeypatch.setattr(hz, "_np_config", counting)
    run_scenario(get_scenario("sec41-main", p=1), 60, ("np:none",), reps=4, seed=1, workers=1, b_trim=b_trim)
    assert calls == [(60, 1, 0.01, None, b_trim)]


def test_run_scenario_rejects_unknown_np_override():
    # the trim quantile comes from the scenario (get_scenario(np_alpha=...)), not an override
    s = get_scenario("sec41-main", p=1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'alpha'"):
        run_scenario(s, 60, ("np:none",), reps=2, seed=3, alpha=0.05)


def test_run_scenario_counts_rare_failures(monkeypatch):
    # a method failing in <= 5% of replicates is reported, not fatal
    import netate.harness as hz

    original = hz._estimate_once
    calls = {"k": 0}

    def flaky(task, data, est, var, network_term):
        calls["k"] += 1
        if calls["k"] == 1:
            from netate._errors import EmptyGroupError

            raise EmptyGroupError("synthetic failure")
        return original(task, data, est, var, network_term)

    monkeypatch.setattr(hz, "_estimate_once", flaky)
    s = get_scenario("sec31-validation")
    summary = run_scenario(s, 60, ("dim:none",), reps=40, seed=4)
    ms = summary.methods["dim:none"]
    assert ms.reps_failed == 1 and ms.reps_ok == 39


def test_run_scenario_raises_above_failure_threshold(monkeypatch):
    # 3 of 40 replicates (7.5%) is over the 5% limit: the error names the
    # count and the first failure's exception type
    import netate.harness as hz

    original = hz._estimate_once
    calls = {"k": 0}

    def flaky(task, data, est, var, network_term):
        calls["k"] += 1
        if calls["k"] <= 3:
            from netate._errors import EmptyGroupError

            raise EmptyGroupError("synthetic failure")
        return original(task, data, est, var, network_term)

    monkeypatch.setattr(hz, "_estimate_once", flaky)
    s = get_scenario("sec31-validation")
    with pytest.raises(RuntimeError, match="3/40") as info:
        run_scenario(s, 60, ("dim:none",), reps=40, seed=4)
    assert "EmptyGroupError" in str(info.value)
    # a NetateError, so the CLI reports it on one line, and still the RuntimeError callers catch
    assert isinstance(info.value, ReplicateFailureError)


def test_interference_toggle_drops_network_term():
    s = get_scenario("sec41-main", p=1, interference=False)
    summary = run_scenario(s, 150, ("linear",), reps=4, seed=11)
    assert summary.interference is False
    ms = summary.methods["linear:spectral"]
    assert ms.coverage is not None
    # no network: the two interval variants coincide
    assert ms.coverage == ms.coverage_nonet


def test_network_term_against_its_oracle(monkeypatch):
    # the replicates' network term c4 = b_hat pi (1 - pi) (d1_hat - d0_hat)^2 against the oracle's
    # (V at the scenario minus V without interference, on the same draws), on one cell each of
    # Table 1 and Table 3: c4 is over-dispersed on Table 1 (its SD exceeds the term itself) and
    # biased upward on Table 3 (at p = 5 the noise in Y inflates the squared contrast)
    import netate.harness as hz

    terms = []
    network_term = hz._network_term

    def recording(*args):
        terms.append(network_term(*args))
        return terms[-1]

    monkeypatch.setattr(hz, "_network_term", recording)

    def c4_and_oracle(scenario, method, formula, reps):
        terms.clear()
        run_scenario(scenario, 300, (method,), reps=reps, seed=20240)
        with_net, without = (
            theoretical_variance_oracle(s, formula, 200_000, rng_for(57)).value
            for s in (scenario, replace(scenario, interference=False))
        )
        return np.array(terms), with_net - without

    # here: mean 3.39 (SE 0.35), SD 5.01, against an oracle term of 2.76
    c4, oracle = c4_and_oracle(get_scenario("sec31-validation"), "linear:spectral", "Vreg", 200)
    assert c4.size == 200 and c4.std(ddof=1) > oracle
    # here: mean 10.8 (SE 1.5, so 7.0 SE above), SD 15.2, against an oracle term of 0.259
    c4, oracle = c4_and_oracle(get_scenario("sec41-main", p=5), "np:polyseq", "Vnp", 100)
    assert c4.size == 100 and c4.mean() - oracle > 4 * c4.std(ddof=1) / math.sqrt(c4.size)


@pytest.mark.parametrize("method", ["np:polyseq", "linear:spectral", "linear:conservative", "dim:spectral"])
def test_estimate_once_records_components_for_every_variance(method):
    # one variance assembly: every method's record splits v into four components, the last the
    # network term as given (the conservative one in its place), added once
    rng = rng_for(52)
    n, pi = 300, 0.5
    network_term = 0.7 * pi * (1.0 - pi) * (1.3 - 0.4) ** 2
    z = rng.standard_normal((n, 1))
    w = (rng.random(n) < pi).astype(int)
    data = TrialData(Y=w + z[:, 0] ** 2 + rng.standard_normal(n), W=w, Z=z, pi=pi)
    tuning = _np_config(n, 1, 0.01, None, None)
    est, var = _resolve_method(method)
    result, rec = _estimate_once(tuning, data, est, var, network_term)
    c1, c2, c3, c4 = rec["components"]
    assert rec["v"] == c1 + c2 + c3 + c4
    assert rec["v_nonet"] == c1 + c2 + c3
    if var == "conservative":
        assert c4 == pi * (1.0 - pi) * conservative_network_term(result.tau_hat)
    else:
        assert c4 == network_term
    if var == "polyseq":
        report = variance_np_polyseq(data, network_term)
        assert rec["components"] == report.components and rec["v"] == report.v_hat


def test_contact_scenario_uses_network_size():
    s = get_scenario("contact-vaccine")
    summary = run_scenario(s, 9999, ("dim:none",), reps=2, seed=2)
    assert summary.n == s.network.n


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_oracle_formula_validation():
    s = get_scenario("sec31-validation")
    with pytest.raises(ValueError):
        theoretical_variance_oracle(s, "Vxx", 10_000, rng_for(51))


@pytest.mark.parametrize(
    "formula, params, message",
    [
        ("Vreg", {"alpha_1": [0.5], "g9": None}, r"Vreg reads no parameter 'alpha_1', 'g9'; its parameters are \[\]"),
        ("Valpha", {"alpha_1": [0.5], "alpha0": [0.0]}, "Valpha reads no parameter 'alpha_1'"),
        ("Valpha", {"alpha0": [0.0]}, "Valpha needs the parameter 'alpha1'"),
        ("Vg", {"g1": np.sin}, "Vg needs the parameter 'g0'"),
    ],
)
def test_oracle_rejects_parameters_its_formula_does_not_read(formula, params, message):
    # checked before any draw: the generator is left untouched
    s = get_scenario("sec31-validation")
    rng = rng_for(58)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        theoretical_variance_oracle(s, formula, 1_000, rng, params)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "scenario_id, p, formula, params",
    [
        ("sec31-validation", None, "Vreg", None),
        ("sec31-validation", None, "Vdim", None),
        ("sec31-validation", None, "Valpha", {"alpha1": [0.5], "alpha0": [0.0]}),
        ("sec41-main", 5, "Vnp", None),
        ("sec41-main", 60, "Vreg", None),  # p + 2 = 62 sets the minimum, not 50
    ],
)
def test_oracle_rejects_too_few_draws_and_returns_floats(scenario_id, p, formula, params):
    s = get_scenario(scenario_id, p=p)
    minimum = 20 * max(50, s.p + 2)
    with pytest.raises(ValueError, match=f"mc_reps must be at least {minimum}"):
        theoretical_variance_oracle(s, formula, minimum - 1, rng_for(57), params)
    out = theoretical_variance_oracle(s, formula, minimum, rng_for(57), params)
    assert type(out.value) is float and type(out.se) is float
    assert math.isfinite(out.value) and out.se > 0


def test_oracle_vdim_dominates_vreg():
    for s in (get_scenario("sec31-validation", pi=0.5),
              get_scenario("sec41-main", p=2),
              get_scenario("contact-vaccine")):
        vreg = theoretical_variance_oracle(s, "Vreg", 150_000, rng_for(52))
        vdim = theoretical_variance_oracle(s, "Vdim", 150_000, rng_for(52))
        assert vdim.value >= vreg.value - 3 * (vdim.se + vreg.se)


def test_oracle_valpha_equals_vreg_at_population_slopes():
    s = get_scenario("sec31-validation", pi=0.5)
    # population slopes from an independent large draw
    rng = rng_for(53)
    from netate.trial import outcome_values, sample_covariates, sample_outcome_noise

    draw = sample_covariates(s.outcome, 400_000, rng)
    noise = sample_outcome_noise(s.outcome, 400_000, rng)
    x = np.column_stack([np.ones(400_000), draw.Z])
    f1 = outcome_values(s.outcome, np.ones(400_000), s.pi, draw, noise)
    f0 = outcome_values(s.outcome, np.zeros(400_000), s.pi, draw, noise)
    beta1 = np.linalg.lstsq(x, f1, rcond=None)[0]
    beta0 = np.linalg.lstsq(x, f0, rcond=None)[0]
    va = theoretical_variance_oracle(
        s, "Valpha", 200_000, rng_for(54), params={"alpha1": beta1[1:], "alpha0": beta0[1:]}
    )
    vr = theoretical_variance_oracle(s, "Vreg", 200_000, rng_for(54))
    assert abs(va.value - vr.value) < 3 * (va.se + vr.se) + 1e-3


def test_oracle_vnp_lower_bounds_vg():
    s = get_scenario("sec41-main", p=1)
    vnp = theoretical_variance_oracle(s, "Vnp", 150_000, rng_for(55))
    for g1, g0 in (
        (lambda z: np.sin(z[:, 0]), lambda z: np.cos(z[:, 0])),
        (lambda z: 0.0, lambda z: 0.0),
        (lambda z: np.abs(z[:, 0]), lambda z: z[:, 0] ** 2 / (1 + z[:, 0] ** 2)),
    ):
        vg = theoretical_variance_oracle(
            s, "Vg", 150_000, rng_for(55), params={"g1": g1, "g0": g0}
        )
        assert vg.value >= vnp.value - 3 * (vg.se + vnp.se)


def test_oracle_vg_missing_cond_mean_errors():
    s = get_scenario("contact-vaccine")
    with pytest.raises(UnknownScenarioError):
        theoretical_variance_oracle(s, "Vnp", 10_000, rng_for(56))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_emit_report_consistency(tmp_path):
    s = get_scenario("sec31-validation")
    summary = run_scenario(s, 60, ("dim", "linear"), reps=5, seed=7)
    paths = emit_report(summary, tmp_path)
    names = {p.name for p in paths}
    assert names == {"summary.json", "cells.csv", "hist_dim-spectral.csv", "hist_linear-spectral.csv"}
    blob = json.loads((tmp_path / "summary.json").read_text())
    assert blob["schema_version"] == 1
    import csv as _csv

    with open(tmp_path / "cells.csv") as fh:
        rows = list(_csv.DictReader(fh))
    for row in rows:
        ms = blob["methods"][row["method"]]
        assert float(row["mean"]) == ms["mean"]
        assert float(row["n_mse"]) == ms["n_mse"]
    hist = (tmp_path / "hist_dim-spectral.csv").read_text().splitlines()
    assert hist[0].startswith("# overlay_mean=")
    assert hist[1] == "bin_left,bin_right,count"
    counts = sum(int(r.split(",")[2]) for r in hist[2:])
    assert counts == blob["methods"]["dim:spectral"]["reps_ok"]


# ---------------------------------------------------------------------------
# table registry
# ---------------------------------------------------------------------------

def test_reproduce_table_registry():
    assert set(TABLE_IDS) == {"table1", "table2", "table3", "table4", "table5", "table6", "fig3"}
    with pytest.raises(ValueError):
        reproduce_table("table9")


def test_reproduce_table1_budget_smoke(tmp_path):
    report = reproduce_table("table1", budget=0.02, seed=77, out_dir=tmp_path)
    assert report["scaled"] is True
    assert report["mc_tolerance_factor"] == pytest.approx(math.sqrt(1000 / report["reps"]))
    assert len(report["cells"]) == 9
    for cell in report["cells"]:
        assert 0.5 <= cell["coverage"] <= 1.0
        assert "coverage_reference" in cell and "coverage_conservative_reference" in cell
    again = reproduce_table("table1", budget=0.02, seed=77)
    assert again["cells"] == report["cells"]
    assert json.loads((tmp_path / "report.json").read_text())["table"] == "table1"


def test_reproduce_table5_smoke():
    report = reproduce_table("table5", budget=0.02, seed=78)
    assert len(report["cells"]) == 6
    for cell in report["cells"]:
        assert cell["ci_low"] < cell["estimate_reference"] + 1.0  # structural sanity only
        assert cell["se"] > 0


@pytest.mark.parametrize("budget", [0, -1, math.nan, math.inf])
def test_reproduce_rejects_nonpositive_or_nonfinite_budget(budget):
    with pytest.raises(ValueError, match="budget must be a finite number > 0"):
        reproduce_table("table5", budget=budget)


@pytest.mark.parametrize("table_id, contacts, message", [
    ("fig3", {"morning": "/nonexistent.csv"}, "contacts apply to table5 and table6 only, not 'fig3'"),
    ("table6", {"evening": "/nonexistent.csv"}, r"contacts keys must be 'morning' or 'midday', got \['evening'\]"),
], ids=["table", "key"])
def test_reproduce_rejects_contacts_that_choose_no_network(monkeypatch, table_id, contacts, message):
    def no_replicates(*args, **kwargs):
        raise AssertionError("run_scenario was called")

    monkeypatch.setattr("netate.harness.run_scenario", no_replicates)
    with pytest.raises(ValueError, match=message):
        reproduce_table(table_id, budget=0.02, contacts=contacts)


def test_reproduce_missing_contacts_file():
    with pytest.raises(FileNotFoundError, match="i,j,count"):
        reproduce_table("table5", budget=0.02, contacts={"morning": "/does/not/exist.csv"})
