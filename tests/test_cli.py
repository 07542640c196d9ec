import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import netate
import netate.cli as cli_module
import netate.estimators as estimators_module
import netate.harness as harness_module
from netate import (
    QuadratureError,
    TrialData,
    assign_treatments,
    confidence_interval,
    conservative_network_term,
    contact_network,
    difference_in_means,
    estimate_b,
    estimate_derivative_means,
    exposure_fractions,
    get_scenario,
    leading_eigenpairs,
    linear_adjusted,
    load_edge_list,
    load_trial_csv,
    nonparametric,
    pc_balancing_weights,
    sample_covariates,
    save_trial_csv,
    simulate_outcomes,
    variance_np_polyseq,
    variance_reg,
)
from netate.cli import main

from conftest import rng_for

PI = 0.2
RANK = 3
ALLOWED = [
    ("dim", "spectral"), ("dim", "conservative"), ("dim", "none"),
    ("linear", "spectral"), ("linear", "conservative"), ("linear", "none"),
    ("np", "polyseq"), ("np", "none"),
]


@pytest.fixture(scope="module")
def trial_files(tmp_path_factory):
    """One seeded experiment on the bundled morning contact network, as CSVs."""
    root = tmp_path_factory.mktemp("cli")
    scenario = get_scenario("contact-vaccine", period="morning", pi=PI)
    net = contact_network("morning")
    rng = rng_for(70)
    w = assign_treatments(net.n, PI, rng)
    draw = sample_covariates(scenario.outcome, net.n, rng)
    y = simulate_outcomes(scenario.outcome, w, exposure_fractions(net, w), draw, rng)
    data_path = root / "trial.csv"
    save_trial_csv(TrialData(Y=y, W=w, Z=draw.Z, pi=PI), data_path)
    edges_path = root / "edges.csv"
    rows, cols = net.adjacency.nonzero()
    edges_path.write_text("".join(f"{i},{j}\n" for i, j in zip(rows, cols) if i < j))
    return data_path, edges_path


def _run(capsys, argv):
    code = main(["estimate", *argv])
    out, err = capsys.readouterr()
    return code, out, err


def _expected(data, network, method, variance):
    """The CLI's estimate, variance and interval from the library primitives."""
    if method == "dim":
        result = difference_in_means(data)
    elif method == "linear":
        result = linear_adjusted(data)
    else:
        tuning = estimators_module._np_config(data.n, data.p, 0.01, None, None)
        config, _ = estimators_module._np_tuning(data, *tuning)
        result = nonparametric(data, config)
    if variance == "none":
        return result, None, None
    # the network term, by its formula: b_hat pi (1 - pi) (d1 - d0)^2, or the conservative one
    if variance in ("spectral", "polyseq"):
        b_hat = estimate_b(network)
        weights = pc_balancing_weights(network, leading_eigenpairs(network, RANK), data.W, PI)
        d1, d0 = estimate_derivative_means(data, weights)
        network_term = b_hat * PI * (1.0 - PI) * (d1 - d0) ** 2
    else:
        network_term = PI * (1.0 - PI) * conservative_network_term(result.tau_hat)
    if variance == "polyseq":
        report = variance_np_polyseq(data, network_term)
    else:
        fit_data = data if method == "linear" else replace(data, Z=np.empty((data.n, 0)))
        report = variance_reg(fit_data, linear_adjusted(fit_data), network_term)
    return result, report.v_hat, list(report.components)


@pytest.mark.parametrize("method,variance", ALLOWED)
def test_estimate_matches_library_primitives(capsys, trial_files, method, variance):
    data_path, edges_path = trial_files
    code, out, err = _run(capsys, [
        "--data", str(data_path), "--pi", str(PI), "--edges", str(edges_path),
        "--rank", str(RANK), "--method", method, "--variance", variance,
    ])
    assert code == 0 and err == ""
    payload = json.loads(out)

    network, _ = load_edge_list(edges_path)
    data = load_trial_csv(data_path, pi=PI)
    result, v, components = _expected(data, network, method, variance)
    assert payload["method"] == result.method
    assert payload["tau_hat"] == pytest.approx(result.tau_hat, rel=1e-12)
    if v is None:
        assert payload["variance_hat"] is None and payload["ci_low"] is None
        assert "variance_method" not in payload["diagnostics"]
        return
    lo, hi = confidence_interval(result.tau_hat, v, data.n)
    assert payload["variance_hat"] == pytest.approx(v, rel=1e-12)
    assert payload["ci_low"] == pytest.approx(lo, rel=1e-12)
    assert payload["ci_high"] == pytest.approx(hi, rel=1e-12)
    assert payload["diagnostics"]["variance_method"] == variance
    assert payload["diagnostics"]["variance_components"] == pytest.approx(components, rel=1e-12)


def test_network_term_omitted_without_edges(capsys, trial_files):
    data_path, _ = trial_files
    code, out, _ = _run(capsys, ["--data", str(data_path), "--pi", str(PI), "--method", "linear"])
    assert code == 0
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["variance_method"] == "spectral"
    assert diagnostics["network_term"] == "omitted (no network supplied)"
    assert diagnostics["variance_components"][3] == 0.0


@pytest.mark.parametrize("method,variance", [("np", "spectral"), ("np", "conservative"), ("dim", "polyseq")])
def test_disallowed_variance_exits_2(capsys, trial_files, method, variance):
    data_path, _ = trial_files
    code, out, err = _run(capsys, [
        "--data", str(data_path), "--pi", str(PI), "--method", method, "--variance", variance,
    ])
    assert code == 2 and out == ""
    assert err == f"error: --variance {variance} not available for --method {method}\n"


@pytest.mark.parametrize("method", ["linear", "np"])
def test_edges_without_rank_exits_2(capsys, trial_files, method):
    data_path, edges_path = trial_files
    code, out, err = _run(capsys, [
        "--data", str(data_path), "--pi", str(PI), "--edges", str(edges_path), "--method", method,
    ])
    assert code == 2 and out == ""
    assert "--rank is required" in err


def test_out_file_matches_stdout(capsys, trial_files, tmp_path):
    data_path, edges_path = trial_files
    argv = ["--data", str(data_path), "--pi", str(PI), "--edges", str(edges_path),
            "--rank", str(RANK), "--method", "np"]
    _, printed, _ = _run(capsys, argv)
    out_path = tmp_path / "result.json"
    code, out, _ = _run(capsys, [*argv, "--out", str(out_path)])
    assert code == 0 and out == ""
    assert out_path.read_text() == printed


@pytest.mark.parametrize("method,variance", [("linear", "spectral"), ("np", "polyseq")])
def test_edge_ids_map_to_data_rows_by_rank(capsys, trial_files, tmp_path, method, variance):
    # ids are relabelled in increasing order, so shifting every id keeps each row's vertex
    data_path, edges_path = trial_files
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("".join(
        f"{int(i) + 1000},{int(j) + 1000}\n" for i, j in (line.split(",") for line in edges_path.read_text().split())
    ))
    argv = ["--data", str(data_path), "--pi", str(PI), "--rank", str(RANK), "--method", method,
            "--variance", variance]
    outputs = [_run(capsys, [*argv, "--edges", str(path)]) for path in (edges_path, shifted)]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


def test_self_loop_warning_names_the_caller(capsys, trial_files, tmp_path):
    data_path, edges_path = trial_files
    looped = tmp_path / "looped.csv"
    looped.write_text(edges_path.read_text() + "0,0\n")
    with pytest.warns(UserWarning, match="dropped 1 self-loop row") as record:
        code, _, _ = _run(capsys, ["--data", str(data_path), "--pi", str(PI), "--edges", str(looped),
                                   "--method", "dim", "--variance", "none"])
    assert code == 0 and record[0].filename == __file__


def test_np_builds_the_kernel_matrix_once(capsys, trial_files, monkeypatch):
    data_path, _ = trial_files
    calls = []
    original = estimators_module.weights_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators_module, "weights_matrix", counting)
    code, _, _ = _run(capsys, [
        "--data", str(data_path), "--pi", str(PI), "--method", "np", "--variance", "none",
    ])
    assert code == 0 and len(calls) == 1


def test_np_infinite_bandwidth_without_trim_exits_2(capsys, trial_files):
    data_path, _ = trial_files
    code, out, err = _run(capsys, [
        "--data", str(data_path), "--pi", str(PI), "--method", "np", "--h-band", "inf",
    ])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pass b_trim explicitly" in err


def _assert_one_error_line(code, out, err, fragment):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.filterwarnings("ignore:bandwidth .* below trim threshold")
def test_np_everything_trimmed_exits_2(capsys, trial_files):
    data_path, _ = trial_files
    code, out, err = _run(capsys, [
        "--data", str(data_path), "--pi", str(PI), "--method", "np",
        "--h-band", "0.05", "--b-trim", "50", "--variance", "none",
    ])
    _assert_one_error_line(code, out, err, "every point failed the trimming conditions")


@pytest.mark.parametrize("method", ["dim", "linear", "np"])
def test_alpha_outside_the_unit_interval_exits_2_for_any_method(capsys, trial_files, method):
    data_path, _ = trial_files
    code, out, err = _run(capsys, ["--data", str(data_path), "--pi", str(PI), "--method", method, "--alpha", "1.5"])
    _assert_one_error_line(code, out, err, "alpha must lie in (0, 1), got 1.5")


def test_edge_list_of_another_size_exits_2_before_the_network_term(capsys, trial_files, tmp_path, monkeypatch):
    def no_network_term(*args, **kwargs):
        raise AssertionError("_network_term was called")

    monkeypatch.setattr(cli_module, "_network_term", no_network_term)
    data_path, edges_path = trial_files
    rows = len(data_path.read_text().splitlines()) - 1
    other = tmp_path / "edges.csv"
    other.write_text(edges_path.read_text() + f"0,{rows}\n")  # one vertex more than data rows
    code, out, err = _run(capsys, [
        "--data", str(data_path), "--pi", str(PI), "--edges", str(other), "--rank", str(RANK),
    ])
    _assert_one_error_line(code, out, err, f"the edge list has {rows + 1} vertices but the data has {rows} rows")


def test_malformed_edge_list_exits_2(capsys, trial_files, tmp_path):
    data_path, _ = trial_files
    edges_path = tmp_path / "edges.csv"
    edges_path.write_text("0,1\n1,x\n")
    code, out, err = _run(capsys, [
        "--data", str(data_path), "--pi", str(PI), "--edges", str(edges_path), "--rank", str(RANK),
    ])
    _assert_one_error_line(code, out, err, f"{edges_path}:2: non-integer field")


@pytest.mark.parametrize("column,text,method", [
    (0, "nan", "linear"), (2, "inf", "linear"), (2, "inf", "np"), (0, "abc", "linear"),
])
def test_bad_number_in_data_exits_2_naming_the_line(capsys, trial_files, tmp_path, column, text, method):
    data_path, _ = trial_files
    lines = data_path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[column] = text
    lines[3] = ",".join(fields)
    bad_path = tmp_path / "trial.csv"
    bad_path.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, ["--data", str(bad_path), "--pi", str(PI), "--method", method])
    name = ("y", "w", "z1")[column]
    _assert_one_error_line(code, out, err, f"{bad_path}:4: {name} must be a finite number, got '{text}'")


@pytest.mark.parametrize("missing", ["--data", "--edges"])
def test_missing_input_file_exits_2(capsys, trial_files, tmp_path, missing):
    data_path, edges_path = trial_files
    paths = {"--data": str(data_path), "--edges": str(edges_path), missing: str(tmp_path / "absent.csv")}
    code, out, err = _run(capsys, [
        "--data", paths["--data"], "--pi", str(PI), "--edges", paths["--edges"], "--rank", str(RANK),
    ])
    _assert_one_error_line(code, out, err, f"No such file or directory: '{tmp_path / 'absent.csv'}'")


def test_program_fault_keeps_its_traceback(capsys, trial_files, monkeypatch):
    def failing(*args, **kwargs):
        raise QuadratureError("no convergence", 1e-3)

    monkeypatch.setattr(cli_module, "_estimate_once", failing)
    data_path, _ = trial_files
    with pytest.raises(QuadratureError):
        main(["estimate", "--data", str(data_path), "--pi", str(PI)])


@pytest.mark.parametrize("budget", ["0", "-1", "nan"])
def test_reproduce_bad_budget_exits_2_before_any_replicate(capsys, monkeypatch, budget):
    def no_replicates(*args, **kwargs):
        raise AssertionError("run_scenario was called")

    monkeypatch.setattr(harness_module, "run_scenario", no_replicates)
    code = main(["reproduce", "--table", "table1", f"--budget={budget}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: budget must be a finite number > 0, got {float(budget)!r}\n"


def test_reproduce_contacts_for_a_table_without_contact_networks_exits_2(capsys, monkeypatch):
    def no_replicates(*args, **kwargs):
        raise AssertionError("run_scenario was called")

    monkeypatch.setattr(harness_module, "run_scenario", no_replicates)
    code = main(["reproduce", "--table", "fig3", "--budget", "0.02", "--contacts-morning", "/nonexistent.csv"])
    out, err = capsys.readouterr()
    _assert_one_error_line(code, out, err, "contacts apply to table5 and table6 only, not 'fig3'")


def test_simulate_graphon_override_uses_its_rank(capsys, monkeypatch, tmp_path):
    ranks = []
    original = harness_module.leading_eigenpairs

    def recording(network, r):
        ranks.append(r)
        return original(network, r)

    monkeypatch.setattr(harness_module, "leading_eigenpairs", recording)
    code = main([
        "simulate", "--scenario", "sec31-validation", "--n", "60", "--graphon", "constant:0.5",
        "--methods", "linear", "--reps", "2", "--workers", "1", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0 and ranks == [1, 1]


def test_simulate_graphon_override_runs_in_a_pool(capsys, tmp_path):
    # the pool children unpickle the override's h; their summary is the serial run's
    summaries = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        code = main(["simulate", "--scenario", "sec31-validation", "--n", "60", "--graphon", "constant:0.5",
                     "--methods", "linear", "--reps", "4", "--workers", str(workers), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        summaries.append((out / "summary.json").read_text())
    assert summaries[0] == summaries[1]


def test_reproduce_prints_each_cell_and_the_scaled_run_note(capsys):
    code = main(["reproduce", "--table", "table5", "--budget", "0.02"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    report = harness_module.reproduce_table("table5", budget=0.02, seed=20240)
    lines = out.splitlines()
    assert len(lines) == 7
    for line, cell in zip(lines, report["cells"]):
        assert line == "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in cell.items())
    assert [line.split("  ")[:2] for line in lines[:6]] == [
        [f"network={period}", f"method={short}"]
        for period in ("morning", "midday") for short in ("dim", "linear", "np")
    ]
    assert lines[6] == "[scaled run: 20 reps; widen Monte Carlo tolerances by 7.07]"


@pytest.mark.parametrize("override,message", [
    (["--scenario", "sec41-main", "--p", "0"], "p must be >= 1, got 0"),
    (["--scenario", "sec41-main", "--p", "-1"], "p must be >= 1, got -1"),
    # a fixed network has no graphon to override
    (["--scenario", "contact-vaccine", "--graphon", "constant:0.5"], "exactly one of a graphon or a fixed network"),
    (["--scenario", "sec31-validation", "--graphon", "rank1:1/(x-0.5)"], "has no finite L2 norm"),
    # checked although no np method runs
    (["--scenario", "sec41-main", "--alpha", "1.5"], "np_alpha must lie in (0, 1), got 1.5"),
], ids=["p=0", "p=-1", "contact-graphon", "rank1-pole", "alpha=1.5"])
def test_simulate_bad_scenario_override_exits_2_before_any_replicate(capsys, monkeypatch, tmp_path, override, message):
    def no_replicates(*args, **kwargs):
        raise AssertionError("run_scenario was called")

    monkeypatch.setattr(cli_module, "run_scenario", no_replicates)
    code = main(["simulate", *override, "--n", "60", "--methods", "dim", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_simulate_too_many_failed_replicates_exits_2(capsys, tmp_path):
    # n = 1: every replicate has an empty treatment group
    code = main(["simulate", "--scenario", "sec31-validation", "--n", "1", "--no-interference",
                 "--methods", "dim", "--reps", "4", "--workers", "1", "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    _assert_one_error_line(code, out, err, "method dim:spectral failed in 4/4 replicates; first: EmptyGroupError")
    assert not (tmp_path / "out").exists()


def test_simulate_pool_warns_once_at_the_callers_line(tmp_path):
    # with --workers 2 the trim warning is the parent's alone: no pool child prints it at a
    # line of concurrent.futures
    env = dict(os.environ, PYTHONPATH=str(Path(netate.__file__).parents[1]))
    argv = ["simulate", "--scenario", "sec41-main", "--n", "60", "--methods", "np:none", "--reps", "4",
            "--seed", "3", "--b-trim", "1e9", "--workers", "2", "--out", str(tmp_path / "out")]
    probe = f"from netate.cli import main; raise SystemExit(main({argv!r}))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    warned = [line for line in run.stderr.splitlines() if "below trim threshold" in line]
    assert run.returncode == 2 and len(warned) == 1 and warned[0].startswith("<string>:1: UserWarning")


@pytest.fixture(scope="module")
def modules_after_import():
    # one fresh interpreter: what `import netate` and a scenario build load
    env = dict(os.environ, PYTHONPATH=str(Path(netate.__file__).parents[1]))
    probe = "import json, sys, netate; netate.get_scenario('sec41-main', p=5); print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.linalg",
                                    "scipy.sparse.linalg", "scipy.special"])
def test_import_leaves_deferred_scipy_modules_unloaded(modules_after_import, module):
    # each loads where it runs (the oracles, Lanczos), and nothing loads scipy.stats; with
    # these deferred a fresh `import netate` plus get_scenario took 0.56 s and 55 MB resident,
    # against 0.81 s and 80 MB with scipy.integrate and scipy.sparse.linalg at the top
    # (medians of 11 starts).  scipy.special is no longer eager: the interval quantile is the
    # constant variance.Z_LEVEL, so only the quadrature oracles load it, through scipy.integrate
    assert module not in modules_after_import


@pytest.mark.parametrize("module", ["graphon", "trial", "kernels", "estimators", "variance", "harness"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"netate.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
