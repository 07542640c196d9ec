import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netate import (
    CovariateDraw,
    EdgeListParseError,
    IsolatedVertexError,
    Network,
    OutcomeModel,
    TrialData,
    UnknownScenarioError,
    assign_treatments,
    ate_oracle,
    exposure_fractions,
    load_edge_list,
    load_trial_csv,
    sample_covariates,
    save_trial_csv,
    simulate_outcomes,
)
from netate.trial import conditional_mean, sample_outcome_noise

from conftest import rng_for


# ---------------------------------------------------------------------------
# treatments
# ---------------------------------------------------------------------------

def test_assign_treatments_boundary_pi():
    with pytest.raises(ValueError):
        assign_treatments(5, 0.0, rng_for(1))
    with pytest.raises(ValueError):
        assign_treatments(5, 1.0, rng_for(1))


def test_assign_treatments_deterministic():
    a = assign_treatments(8, 0.5, rng_for(2))
    b = assign_treatments(8, 0.5, rng_for(2))
    assert (a == b).all()
    assert set(np.unique(a)) <= {0, 1}


def test_assign_treatments_concentration():
    w = assign_treatments(100_000, 0.7, rng_for(3))
    assert abs(w.mean() - 0.7) < 0.01


# ---------------------------------------------------------------------------
# exposures
# ---------------------------------------------------------------------------

def test_exposure_fractions_path_graph():
    net = Network.from_edges(3, [(0, 1), (1, 2)])
    e = exposure_fractions(net, np.array([1, 0, 1]))
    assert e.tolist() == [0.0, 1.0, 0.0]


def test_exposure_fractions_complete_graph():
    net = Network.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    e = exposure_fractions(net, np.array([1, 1, 0, 0]))
    assert np.allclose(e, [1 / 3, 1 / 3, 2 / 3, 2 / 3])


def test_exposure_fractions_all_treated():
    net = Network.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert (exposure_fractions(net, np.ones(3)) == 1.0).all()


def test_exposure_fractions_isolated_vertex():
    net = Network.from_edges(3, [(0, 1)])
    with pytest.raises(IsolatedVertexError) as err:
        exposure_fractions(net, np.zeros(3))
    assert err.value.vertex == 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_exposures_bounded_and_zero_for_untreated(seed, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    net = Network.from_edges(n, edges)
    w = assign_treatments(n, 0.4, rng_for(4, seed))
    e = exposure_fractions(net, w)
    assert ((e >= 0) & (e <= 1)).all()
    assert (exposure_fractions(net, np.zeros(n)) == 0).all()


# ---------------------------------------------------------------------------
# outcome models
# ---------------------------------------------------------------------------

def test_unknown_scenario_rejected():
    with pytest.raises(UnknownScenarioError):
        OutcomeModel("mystery")


def test_outcome_model_takes_p_and_c_as_typed_parameters():
    model = OutcomeModel("sec41-main", p=3.0)
    assert model.p == 3 and type(model.p) is int
    assert OutcomeModel("constant", c=5).c == 5.0
    # a misspelt parameter is an error, not ignored
    with pytest.raises(TypeError, match="unexpected keyword argument 'P'"):
        OutcomeModel("sec41-main", P=3)


@pytest.mark.parametrize("scenario_id, kwargs, message", [
    ("sec31-validation", {"c": 5.0}, "outcome model 'sec31-validation' has no c; c must be 0, got 5.0"),
    ("sec41-main", {"p": 2.5}, "p must be an integer, got 2.5"),
])
def test_outcome_model_rejects_a_misplaced_c_and_a_fractional_p(scenario_id, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OutcomeModel(scenario_id, **kwargs)


def test_quadratic_outcome_control_arm_is_squared_covariate():
    model = OutcomeModel("sec31-validation")
    draw = CovariateDraw(Z=np.array([[1.0], [-2.0]]))
    y = simulate_outcomes(model, np.zeros(2), np.array([0.3, 0.9]), draw, rng_for(5))
    assert y.tolist() == [1.0, 4.0]  # z^2 exactly, no exposure or noise effect


def test_vaccine_outcome_vanishes_at_full_exposure():
    model = OutcomeModel("contact-vaccine")
    draw = sample_covariates(model, 4, rng_for(6))
    y = simulate_outcomes(model, np.ones(4), np.ones(4), draw, rng_for(7))
    assert np.allclose(y, 0.0)


def test_vaccine_outcome_requires_hidden_vulnerability():
    model = OutcomeModel("contact-vaccine")
    with pytest.raises(UnknownScenarioError):
        simulate_outcomes(model, np.ones(3), 0.2, CovariateDraw(Z=np.zeros((3, 1))), rng_for(8))


def test_simulate_outcomes_pure_given_seed():
    model = OutcomeModel("sec41-main", p=3)
    draw = sample_covariates(model, 50, rng_for(9))
    w = assign_treatments(50, 0.7, rng_for(10))
    y1 = simulate_outcomes(model, w, 0.7, draw, rng_for(11))
    y2 = simulate_outcomes(model, w, 0.7, draw, rng_for(11))
    assert (y1 == y2).all()


def test_smooth_scenario_scaling_constant():
    # the covariate-sum scale makes Var(sum z_j) = 3p - 4 + 2^(2-p) under AR(0.5)
    for p in (1, 4, 9):
        idx = np.arange(p)
        sigma = 0.5 ** np.abs(idx[:, None] - idx[None, :])
        assert sigma.sum() == pytest.approx(3 * p - 4 + 2.0 ** (2 - p), rel=1e-12)


def _hand_conditional_mean(scenario_id, params, w, pi, z):
    if scenario_id == "constant":
        return np.full(z.shape[0], params["c"])
    if scenario_id == "sec31-validation":
        return w * (-2.0 * (1.0 - pi) ** 2 - 2.0 * z[:, 0] * pi**2) + z[:, 0] ** 2
    p = z.shape[1]
    s = z.sum(axis=1) / math.sqrt(3.0 * p - 4.0 + 2.0 ** (2 - p))
    return w * (pi - 0.5 + s) + np.exp(z).sum(axis=1) / (2.0 * math.sqrt(p))


@pytest.mark.parametrize("pi", [0.2, 0.5, 0.7])
@pytest.mark.parametrize("w", [0, 1])
@pytest.mark.parametrize(
    "scenario_id, params",
    [("constant", {"c": 1.5}), ("sec31-validation", {}), ("sec41-main", {"p": 1}), ("sec41-main", {"p": 3})],
)
def test_conditional_mean_matches_closed_form(scenario_id, params, w, pi):
    model = OutcomeModel(scenario_id, **params)
    draw = sample_covariates(model, 200, rng_for(12))
    expected = _hand_conditional_mean(scenario_id, params, float(w), pi, draw.Z)
    assert (conditional_mean(model, w, pi, draw) == expected).all()


def test_conditional_mean_unavailable_for_vaccine():
    model = OutcomeModel("contact-vaccine")
    with pytest.raises(UnknownScenarioError, match="closed-form"):
        conditional_mean(model, 1, 0.2, sample_covariates(model, 5, rng_for(13)))


@pytest.mark.parametrize(
    "scenario_id, noisy",
    [("constant", False), ("contact-vaccine", False), ("sec31-validation", True), ("sec41-main", True)],
)
def test_sample_outcome_noise_draws_only_for_noisy_models(scenario_id, noisy):
    # a noiseless model must leave the generator where the covariate draw left it,
    # so that the next replicate's draws do not move
    rng, twin = rng_for(17), rng_for(17)
    noise = sample_outcome_noise(OutcomeModel(scenario_id), 40, rng)
    expected = twin.standard_normal(40) if noisy else np.zeros(40)
    assert np.array_equal(noise, expected)
    assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# ATE oracle
# ---------------------------------------------------------------------------

def test_ate_oracle_requires_enough_draws():
    with pytest.raises(ValueError):
        ate_oracle(OutcomeModel("constant"), 0.5, 100, rng_for(12))


def test_ate_oracle_constant_outcome_is_zero():
    out = ate_oracle(OutcomeModel("constant", c=3.0), 0.5, 20_000, rng_for(13))
    assert out.value == 0.0 and out.se == 0.0


@pytest.mark.parametrize("pi", [0.5, 0.7])
def test_ate_oracle_quadratic_closed_form(pi):
    # E[f(1,pi) - f(0,pi)] = -2(1-pi)^2 - 2 E(z) pi^2 with E(z) = -1/2
    target = -2 * (1 - pi) ** 2 + pi**2
    out = ate_oracle(OutcomeModel("sec31-validation"), pi, 400_000, rng_for(14))
    assert abs(out.value - target) < 3 * out.se


def test_ate_oracle_smooth_scenario():
    out = ate_oracle(OutcomeModel("sec41-main", p=5), 0.7, 400_000, rng_for(15))
    assert abs(out.value - 0.2) < 3 * out.se


def test_ate_oracle_vaccine_scenario():
    out = ate_oracle(OutcomeModel("contact-vaccine"), 0.2, 400_000, rng_for(16))
    assert abs(out.value - (-0.221)) < 3 * out.se + 5e-4


# ---------------------------------------------------------------------------
# edge-list ingestion
# ---------------------------------------------------------------------------

def test_load_edge_list_threshold(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("0,1,3\n1,2,2\n")
    net, ids = load_edge_list(path, min_count=3)
    assert net.n == 3 and ids.tolist() == [0, 1, 2]
    assert net.adjacency.nnz == 2  # the single undirected edge {0,1}
    assert net.adjacency[0, 1] == 1.0


def test_load_edge_list_aggregates_orientations(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("0,1,2\n1,0,1\n")
    net, _ = load_edge_list(path, min_count=3)
    assert net.adjacency[0, 1] == 1.0


def test_load_edge_list_empty_file(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    net, ids = load_edge_list(path)
    assert net.n == 0 and ids.size == 0


def test_load_edge_list_malformed_row(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("0,1\nx,2\n")
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(path)
    assert err.value.line == 2


def test_load_edge_list_self_loops_warn(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("0,0,5\n0,1,4\n1,1\n")
    with pytest.warns(UserWarning, match="2 self-loop"):
        net, _ = load_edge_list(path)
    assert net.n == 2


def test_load_edge_list_relabels_densely(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("10,40\n40,7\n")
    net, ids = load_edge_list(path)
    assert ids.tolist() == [7, 10, 40]
    assert net.n == 3


def test_load_edge_list_drop_isolated(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("0,1,5\n2,3,1\n")
    net, ids = load_edge_list(path, min_count=3, drop_isolated=True)
    assert net.n == 2 and ids.tolist() == [0, 1]
    assert (net.degrees > 0).all()


def test_load_edge_list_counts_past_int64(tmp_path):
    # a count beyond int64, and two that overflow it when summed
    path = tmp_path / "e.csv"
    path.write_text(f"0,1,{10**30}\n1,2,{2**62}\n2,1,{2**62}\n")
    net, _ = load_edge_list(path, min_count=3)
    assert net.degrees.tolist() == [1, 2, 1]


def load_edge_list_reference(path, min_count, drop_isolated):
    """The loader written plainly: a dict of counts, a sorted relabel, CSR rows by hand."""
    counts, self_loops = {}, 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        fields = [int(f) for f in line.split(",")]
        i, j, c = fields[0], fields[1], fields[2] if len(fields) == 3 else 1
        if i == j:
            self_loops += 1
            continue
        key = (min(i, j), max(i, j))
        counts[key] = counts.get(key, 0) + c
    edges = [key for key, c in counts.items() if c >= min_count]
    ids = sorted({v for key in (edges if drop_isolated else counts) for v in key})
    index = {v: k for k, v in enumerate(ids)}
    rows = [[] for _ in ids]
    for i, j in edges:
        rows[index[i]].append(index[j])
        rows[index[j]].append(index[i])
    indptr, indices = [0], []
    for row in rows:
        indices += sorted(row)
        indptr.append(len(indices))
    return ids, indptr, indices, self_loops


@pytest.mark.parametrize("drop_isolated", [False, True])
@pytest.mark.parametrize("min_count", [1, 2])
def test_load_edge_list_matches_dict_reference(tmp_path, min_count, drop_isolated):
    rng = rng_for(95)
    ids = rng.choice(10**6, size=60, replace=False)
    pool = [tuple(rng.choice(ids[:40], size=2, replace=False)) for _ in range(150)]
    lines = []
    for k in rng.integers(0, len(pool), size=400):
        i, j = pool[k][:: rng.choice([1, -1])]
        lines.append(f"{i},{j}" if rng.random() < 0.5 else f"{i},{j},{rng.integers(0, 4)}")
    lines += [f"{v},{v},2" for v in ids[:5]] + ["", " "]
    lines += [f"{i},{j}" for i, j in ids[40:].reshape(-1, 2)]  # leaves, each seen once
    path = tmp_path / "e.csv"
    path.write_text("\n".join(rng.permutation(lines)) + "\n")
    ref_ids, indptr, indices, self_loops = load_edge_list_reference(path, min_count, drop_isolated)
    assert self_loops == 5
    with pytest.warns(UserWarning, match=f"dropped {self_loops} self-loop row"):
        net, got_ids = load_edge_list(path, min_count=min_count, drop_isolated=drop_isolated)
    a = net.adjacency
    assert got_ids.tolist() == ref_ids
    assert a.indptr.tolist() == indptr and a.indices.tolist() == indices
    assert a.data.tolist() == [1.0] * len(indices)
    assert a.indices.dtype == np.int32 and a.indptr.dtype == np.int32
    if min_count == 2:  # the file has edges below the threshold and vertices they isolate
        assert len(indices) < 2 * len({tuple(sorted(pair)) for pair in pool})
        assert (net.degrees > 0).all() == drop_isolated


# ---------------------------------------------------------------------------
# dataset CSV
# ---------------------------------------------------------------------------

def test_trial_csv_roundtrip(tmp_path):
    rng = rng_for(17)
    data = TrialData(
        Y=rng.standard_normal(20),
        W=assign_treatments(20, 0.5, rng),
        Z=rng.standard_normal((20, 3)),
        pi=0.5,
    )
    path = tmp_path / "d.csv"
    save_trial_csv(data, path)
    back = load_trial_csv(path, pi=0.5)
    assert (back.Y == data.Y).all()
    assert (back.W == data.W).all()
    assert (back.Z == data.Z).all()
    assert path.read_text().splitlines()[0] == "y,w,z1,z2,z3"
    # empty and whitespace-only lines are skipped, as load_edge_list skips them
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["", "   ", "\t"] + lines[3:] + [" "]) + "\n")
    spaced = load_trial_csv(path, pi=0.5)
    assert (spaced.Y == data.Y).all() and (spaced.W == data.W).all() and (spaced.Z == data.Z).all()


def test_load_trial_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_trial_csv(path, pi=0.5)


@pytest.mark.parametrize("w", ["0.5", "1.7"])
def test_load_trial_csv_rejects_fractional_treatment(tmp_path, w):
    # the column used to be cast to int, reading 0.5 as 0 and 1.7 as 1
    path = tmp_path / "d.csv"
    path.write_text(f"y,w,z1\n1.0,1,0.2\n2.0,{w},0.3\n")
    with pytest.raises(ValueError, match=rf"d\.csv:3: treatment w must be 0 or 1, got {w}"):
        load_trial_csv(path, pi=0.5)


def test_trial_data_validation():
    with pytest.raises(ValueError):
        TrialData(Y=np.zeros(3), W=np.array([0, 1, 2]), Z=np.zeros((3, 1)), pi=0.5)
    with pytest.raises(ValueError):
        TrialData(Y=np.zeros(3), W=np.zeros(3), Z=np.zeros((2, 1)), pi=0.5)
    with pytest.raises(ValueError):
        TrialData(Y=np.zeros(3), W=np.zeros(3), Z=np.zeros((3, 1)), pi=1.5)


@pytest.mark.parametrize("array,value", [("Y", math.nan), ("Y", math.inf), ("Z", -math.inf)])
def test_trial_data_rejects_non_finite(array, value):
    arrays = {"Y": np.zeros(4), "Z": np.zeros((4, 1))}
    arrays[array].flat[2] = value
    with pytest.raises(ValueError, match="must be finite"):
        TrialData(Y=arrays["Y"], W=np.array([0, 1, 0, 1]), Z=arrays["Z"], pi=0.5)


@pytest.mark.parametrize("column,text", [(0, "nan"), (2, "inf"), (2, "abc"), (1, "")])
def test_load_trial_csv_names_line_of_a_bad_number(tmp_path, column, text):
    fields = ["2.0", "1", "0.3"]
    fields[column] = text
    path = tmp_path / "d.csv"
    path.write_text("y,w,z1\n1.0,0,0.2\n" + ",".join(fields) + "\n")
    name = ("y", "w", "z1")[column]
    with pytest.raises(ValueError, match=rf"d\.csv:3: {name} must be a finite number, got '{text}'"):
        load_trial_csv(path, pi=0.5)
