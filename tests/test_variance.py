import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from netate import (
    InvalidVarianceError,
    IsolatedVertexError,
    Network,
    SpectralDecomposition,
    TrialData,
    confidence_interval,
    conservative_network_term,
    estimate_b,
    estimate_derivative_means,
    get_scenario,
    leading_eigenpairs,
    linear_adjusted,
    make_graphon,
    pc_balancing_weights,
    run_scenario,
    variance_np_polyseq,
    variance_reg,
)
import netate.variance
from netate.graphon import sample_graph, sample_latents
from netate.trial import (
    assign_treatments,
    exposure_fractions,
    sample_covariates,
    simulate_outcomes,
)

from conftest import WORKERS, rng_for


def complete_graph(n):
    return Network.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ---------------------------------------------------------------------------
# degree-ratio statistic
# ---------------------------------------------------------------------------

def test_estimate_b_complete_graph_is_one():
    assert estimate_b(complete_graph(6)) == pytest.approx(1.0, rel=1e-14)


def test_estimate_b_star_graph():
    star = Network.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert estimate_b(star) == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_estimate_b_isolated_vertex():
    net = Network.from_edges(3, [(0, 1)])
    with pytest.raises(IsolatedVertexError):
        estimate_b(net)


def test_estimate_b_consistency_drift():
    # plug-in statistic approaches the graphon functional as n grows, in
    # mean square: its sd shrinks like n^-1/2 and its O(1/(n rho)) bias like
    # n^-3/4, so a tenfold n should cut the RMSE to about 0.32 of its value
    spec = make_graphon("paper-sec3")
    from netate import graphon_b

    b = graphon_b(spec)
    errors = {200: [], 2000: []}
    for seed in range(50):
        for n in (200, 2000):
            rng = rng_for(40, seed, n)
            net = sample_graph(spec, sample_latents(n, rng), rng)
            errors[n].append(estimate_b(net) - b)
    rmse = {n: np.sqrt(np.mean(np.square(e))) for n, e in errors.items()}
    # a non-converging estimator gives a ratio near 1; n^-0.3 gives 0.5
    assert rmse[2000] <= 0.5 * rmse[200]


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------

def test_eigenpairs_triangle():
    spec = leading_eigenpairs(complete_graph(3), 1)
    assert spec.eigenvalues[0] == pytest.approx(2.0, abs=1e-8)
    v = spec.eigenvectors[:, 0]
    assert abs(v @ (np.ones(3) / math.sqrt(3))) == pytest.approx(1.0, abs=1e-10)


def test_eigenpairs_empty_graph():
    net = Network.from_edges(4, [])
    spec = leading_eigenpairs(net, 2)
    assert np.allclose(spec.eigenvalues, 0.0)
    assert np.allclose(spec.eigenvectors.T @ spec.eigenvectors, np.eye(2), atol=1e-10)


def test_eigenpairs_two_blocks():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i + 4, j + 4) for i, j in edges]
    net = Network.from_edges(8, edges)
    spec = leading_eigenpairs(net, 2)
    assert np.allclose(np.abs(spec.eigenvalues), [3.0, 3.0], atol=1e-8)
    # residual invariant, not eigenvector layout: any basis of the eigenspace passes
    assert (spec.residual_norms(net) <= 1e-6 * spec.operator_norm()).all()


def test_eigenpairs_invariants_on_random_graph():
    spec_g = make_graphon("paper-sec3")
    rng = rng_for(41)
    net = sample_graph(spec_g, sample_latents(400, rng), rng)
    dec = leading_eigenpairs(net, 3)
    assert np.all(np.diff(np.abs(dec.eigenvalues)) <= 1e-9)
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.allclose(gram, np.eye(3), atol=1e-8)
    assert np.allclose(np.linalg.norm(dec.eigenvectors, axis=0), 1.0, atol=1e-10)
    assert (dec.residual_norms(net) <= 1e-6 * dec.operator_norm()).all()


def test_eigenpairs_lanczos_path_matches_dense():
    # above the dense threshold the Lanczos branch must satisfy the same contract
    spec_g = replace(make_graphon("constant:0.6"), sparsity_exponent=0.45)
    rng = rng_for(42)
    n = 2050
    net = sample_graph(spec_g, sample_latents(n, rng), rng)
    dec = leading_eigenpairs(net, 3)
    dense = np.linalg.eigvalsh(net.adjacency.toarray())
    top = dense[np.argsort(-np.abs(dense))[:3]]
    assert np.allclose(np.sort(dec.eigenvalues), np.sort(top), atol=1e-6)
    assert (dec.residual_norms(net) <= 1e-6 * dec.operator_norm()).all()


def paper_trial(n, seed):
    """A paper-sec3 graph and one sec31-validation trial drawn on it."""
    spec_g = make_graphon("paper-sec3")
    scenario = get_scenario("sec31-validation", pi=0.5)
    rng = rng_for(46, seed, n)
    net = sample_graph(spec_g, sample_latents(n, rng), rng)
    w = assign_treatments(n, 0.5, rng)
    draw = sample_covariates(scenario.outcome, n, rng)
    y = simulate_outcomes(scenario.outcome, w, exposure_fractions(net, w), draw, rng)
    return net, TrialData(Y=y, W=w, Z=draw.Z, pi=0.5)


@pytest.mark.parametrize("n,seed", [(500, s) for s in range(3)] + [(1000, s) for s in range(13)])
def test_eigenpairs_dense_and_lanczos_agree_downstream(monkeypatch, n, seed):
    # the two paths must give the same network term, not just valid pairs:
    # Lanczos stops at LANCZOS_TOL, and its residuals must show that it did
    net, data = paper_trial(n, seed)
    out = {}
    for path, threshold in (("dense", n), ("lanczos", n - 1)):
        monkeypatch.setattr(netate.variance, "DENSE_EIG_THRESHOLD", threshold)
        dec = leading_eigenpairs(net, 3)
        wt = pc_balancing_weights(net, dec, data.W, 0.5)
        out[path] = (dec, wt, estimate_derivative_means(data, wt))
    (decd, wd, dd), (decl, wl, dl) = out["dense"], out["lanczos"]
    vd, vl = decd.eigenvalues, decl.eigenvalues
    assert np.max(np.abs(vl - vd)) <= 1e-10 * abs(vd[0])
    assert np.max(np.abs(wl - wd)) <= 1e-9 * np.max(np.abs(wd))
    assert dl == pytest.approx(dd, rel=1e-9)
    assert (decl.residual_norms(net) <= 2 * netate.variance.LANCZOS_TOL * abs(vl[0])).all()


def test_eigenpairs_lanczos_sees_antisymmetric_directions():
    # a path is mirror-symmetric: half its eigenvectors are orthogonal to the
    # constant vector, so a constant Lanczos start misses -lambda_1
    n = 301
    assert n > netate.variance.DENSE_EIG_THRESHOLD
    net = Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    dec = leading_eigenpairs(net, 3)
    closed_form = np.sort(np.abs(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))))[::-1]
    assert np.allclose(np.abs(dec.eigenvalues), closed_form[:3], rtol=0, atol=1e-10)
    assert (dec.residual_norms(net) <= 1e-6 * dec.operator_norm()).all()


def test_eigenpairs_lanczos_cycle_invariants():
    # the cycle's top eigenvalues repeat, so only the pair contract is checked
    n = 601
    net = Network.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    dec = leading_eigenpairs(net, 3)
    assert np.allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(3), atol=1e-10)
    assert (dec.residual_norms(net) <= 1e-6 * dec.operator_norm()).all()


def test_eigenpairs_empty_graph_on_lanczos_path():
    net = Network.from_edges(600, [])
    dec = leading_eigenpairs(net, 3)
    assert (dec.eigenvalues == 0.0).all()
    assert (dec.eigenvectors == np.eye(600, 3)).all()


def test_run_scenario_worker_invariance_lanczos():
    s = get_scenario("sec31-validation", pi=0.5)
    assert 400 > netate.variance.DENSE_EIG_THRESHOLD
    one = run_scenario(s, 400, ("linear",), reps=4, seed=11, workers=1)
    two = run_scenario(s, 400, ("linear",), reps=4, seed=11, workers=2)
    assert one.to_dict() == two.to_dict()


def half_isolated_graph(n, seed):
    """A paper-sec3 graph on the odd vertices; every even vertex is isolated (an empty row)."""
    rng = rng_for(47, seed)
    core = sample_graph(make_graphon("paper-sec3"), sample_latents(n // 2, rng), rng)
    i, j = core.adjacency.nonzero()
    return Network.from_edges(n, [(2 * a + 1, 2 * b + 1) for a, b in zip(i, j) if a < b])


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_split_matvec_equals_the_product_bit_for_bit(threads):
    net = half_isolated_graph(600, threads)
    a = net.adjacency
    blocks = netate.variance._row_blocks(a, netate.variance._BLOCKS_PER_THREAD * threads)
    assert any(a.indptr[first] == a.indptr[first + 1] for first, *_ in blocks[1:])  # cut at an empty row
    assert [first for first, *_ in blocks[1:]] == [end for _, end, *_ in blocks[:-1]]
    x = rng_for(48, threads).standard_normal(net.n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the GIL often, so a block taken twice would show
    try:
        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            matvec = netate.variance._split_matvec(a, threads, pool)
            for _ in range(20):  # helpers that start early, late or never
                assert np.array_equal(matvec(x), a @ x)
    finally:
        sys.setswitchinterval(interval)


def test_row_blocks_view_the_adjacency():
    a = half_isolated_graph(300, 0).adjacency
    blocks = netate.variance._row_blocks(a, 5)
    for _, _, indptr, indices, data in blocks:
        assert np.shares_memory(indices, a.indices) and np.shares_memory(data, a.data)
        assert indptr[0] == 0 and indptr[-1] == indices.size == data.size
    assert sum(data.size for *_, data in blocks) == a.nnz


def test_lanczos_split_returns_the_unsplit_pairs():
    a = paper_trial(400, 0)[0].adjacency
    vals, vecs = netate.variance._lanczos(a, 3, threads=1)
    for threads in (2, 3):
        split_vals, split_vecs = netate.variance._lanczos(a, 3, threads)
        assert np.array_equal(split_vals, vals) and np.array_equal(split_vecs, vecs)


def test_pool_after_threaded_lanczos_matches_serial():
    # the helper threads end with the call, so a pool forked afterwards neither inherits
    # nor waits on them
    before = threading.active_count()
    netate.variance._lanczos(paper_trial(400, 1)[0].adjacency, 3, threads=2)
    assert threading.active_count() == before
    s = get_scenario("sec31-validation", pi=0.5)
    out = {}
    forked = threading.Thread(target=lambda: out.update(
        two=run_scenario(s, 400, ("linear",), reps=4, seed=12, workers=2)), daemon=True)
    forked.start()
    forked.join(timeout=300)
    assert not forked.is_alive() and "two" in out
    one = run_scenario(s, 400, ("linear",), reps=4, seed=12, workers=1)
    assert out["two"].to_dict() == one.to_dict()


def test_eigenpairs_rank_bounds():
    with pytest.raises(ValueError):
        leading_eigenpairs(complete_graph(3), 0)
    with pytest.raises(ValueError):
        leading_eigenpairs(complete_graph(3), 4)


# ---------------------------------------------------------------------------
# balancing weights and derivative means
# ---------------------------------------------------------------------------

def test_pc_weights_no_balancing_is_raw_contrast():
    net = complete_graph(5)
    w = np.array([1, 0, 0, 1, 0])
    v = pc_balancing_weights(net, None, w, 0.4)
    m = net.treated_neighbor_counts(w)
    expected = m / 0.4 - (net.degrees - m) / 0.6
    assert (v == expected).all()


def test_pc_weights_unit_vector_basis():
    net = complete_graph(4)
    w = np.array([1, 1, 0, 0])
    e1 = np.zeros((4, 1))
    e1[0, 0] = 1.0
    dec = SpectralDecomposition(eigenvalues=np.array([1.0]), eigenvectors=e1)
    out = pc_balancing_weights(net, dec, w, 0.5)
    v = pc_balancing_weights(net, None, w, 0.5)
    assert out[0] == 0.0
    assert (out[1:] == v[1:]).all()


def test_pc_weights_constraint_and_sign_invariance():
    spec_g = make_graphon("paper-sec3")
    rng = rng_for(43)
    net = sample_graph(spec_g, sample_latents(300, rng), rng)
    w = assign_treatments(300, 0.5, rng)
    dec = leading_eigenpairs(net, 3)
    out = pc_balancing_weights(net, dec, w, 0.5)
    assert np.max(np.abs(dec.eigenvectors.T @ out)) < 1e-8
    flipped = SpectralDecomposition(
        eigenvalues=dec.eigenvalues.copy(),
        eigenvectors=dec.eigenvectors * np.array([1.0, -1.0, 1.0]),
    )
    out2 = pc_balancing_weights(net, flipped, w, 0.5)
    assert np.max(np.abs(out - out2)) < 1e-10


def test_derivative_means_trivial_cases():
    net = complete_graph(4)
    w = np.array([1, 1, 0, 1])
    wt = pc_balancing_weights(net, None, w, 0.5)
    data = TrialData(Y=np.zeros(4), W=w, Z=np.zeros((4, 0)), pi=0.5)
    assert estimate_derivative_means(data, wt) == (0.0, 0.0)
    all_treated = TrialData(Y=np.ones(4), W=np.ones(4, dtype=int), Z=np.zeros((4, 0)), pi=0.5)
    wt2 = pc_balancing_weights(net, None, np.ones(4), 0.5)
    d1, d0 = estimate_derivative_means(all_treated, wt2)
    assert d0 == 0.0


def test_derivative_means_consistency_sparse_regime(monkeypatch):
    # analytic exposure-derivative contrast is 4 - 2 pi = 3 at pi = 0.5; the
    # balanced estimator approaches it as the graph sparsifies (rho -> 0)
    monkeypatch.setattr(netate.variance, "DENSE_EIG_THRESHOLD", 256)  # Lanczos keeps this fast
    spec_g = replace(make_graphon("paper-sec3"), sparsity_exponent=0.45)
    scenario = get_scenario("sec31-validation", pi=0.5)
    vals = []
    for seed in range(30):
        rng = rng_for(44, seed)
        n = 2000
        u = sample_latents(n, rng)
        net = sample_graph(spec_g, u, rng)
        w = assign_treatments(n, 0.5, rng)
        draw = sample_covariates(scenario.outcome, n, rng)
        y = simulate_outcomes(scenario.outcome, w, exposure_fractions(net, w), draw, rng)
        data = TrialData(Y=y, W=w, Z=draw.Z, pi=0.5)
        dec = leading_eigenpairs(net, 3)
        wt = pc_balancing_weights(net, dec, w, 0.5)
        d1, d0 = estimate_derivative_means(data, wt)
        vals.append(d1 - d0)
    assert abs(np.mean(vals) - 3.0) < 0.9


# ---------------------------------------------------------------------------
# variance assembly
# ---------------------------------------------------------------------------

def linear_data(n=150, seed=0, noise=0.0, equal_slopes=False):
    rng = rng_for(45, seed)
    Z = rng.standard_normal((n, 2))
    w = (rng.random(n) < 0.5).astype(int)
    b1 = np.array([1.0, -2.0])
    b0 = b1 if equal_slopes else np.array([0.5, 0.5])
    y = np.where(w == 1, 1.0 + Z @ b1, -1.0 + Z @ b0) + noise * rng.standard_normal(n)
    return TrialData(Y=y, W=w, Z=Z, pi=0.5)


def test_variance_reg_no_interference_reduction():
    data = linear_data(noise=0.5)
    fit = linear_adjusted(data)
    rep = variance_reg(data, fit, b_hat=0.0, deriv1=1.3, deriv0=0.7)
    assert rep.components[3] == 0.0
    rep2 = variance_reg(data, fit, b_hat=2.0, deriv1=0.9, deriv0=0.9)
    assert rep2.components[3] == 0.0


def test_variance_reg_noiseless_equal_slopes_leaves_network_term():
    data = linear_data(noise=0.0, equal_slopes=True)
    fit = linear_adjusted(data)
    rep = variance_reg(data, fit, b_hat=1.5, deriv1=2.0, deriv0=-1.0)
    c1, c2, c3, c4 = rep.components
    assert c1 == pytest.approx(0.0, abs=1e-18)
    assert c2 == pytest.approx(0.0, abs=1e-18)
    assert c3 == pytest.approx(0.0, abs=1e-20)
    assert c4 == pytest.approx(1.5 * 0.25 * 9.0, rel=1e-12)
    assert rep.v_hat == pytest.approx(c4, rel=1e-9)


def test_variance_reg_components_nonnegative():
    for seed in range(10):
        data = linear_data(seed=seed, noise=1.0)
        fit = linear_adjusted(data)
        rep = variance_reg(data, fit, b_hat=1.0, deriv1=0.3, deriv0=-0.2)
        assert rep.components[0] >= 0 and rep.components[1] >= 0
        assert rep.components[2] >= -1e-15 and rep.components[3] >= 0


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def test_confidence_interval_matches_erf_oracle():
    import mpmath

    z = float(mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf("0.95")))
    lo, hi = confidence_interval(0.0, 1.0, 100, 0.95)
    assert hi == pytest.approx(z / 10.0, abs=1e-4)
    assert hi == pytest.approx(0.19600, abs=1e-4)
    assert lo == -hi


def test_confidence_interval_monotone_in_level():
    widths = [
        confidence_interval(0.0, 2.0, 50, lvl)[1] for lvl in (0.5, 0.8, 0.9, 0.95, 0.99)
    ]
    assert all(a < b for a, b in zip(widths, widths[1:]))


def test_confidence_interval_degenerate_and_invalid():
    assert confidence_interval(1.5, 0.0, 10, 0.95) == (1.5, 1.5)
    with pytest.raises(InvalidVarianceError):
        confidence_interval(0.0, -1e-9, 10, 0.95)


def test_confidence_interval_width_scales_with_n():
    w1 = confidence_interval(0.0, 3.0, 100, 0.95)[1]
    w2 = confidence_interval(0.0, 3.0, 400, 0.95)[1]
    assert w1 == pytest.approx(2 * w2, rel=1e-12)


def test_conservative_network_term():
    assert conservative_network_term(0.0) == 0.0
    assert conservative_network_term(0.5) == 2.0
    assert conservative_network_term(-0.5) == 2.0


# ---------------------------------------------------------------------------
# polynomial variance sequence
# ---------------------------------------------------------------------------

def test_polyseq_linear_truth_stabilizes_at_degree_one():
    data = linear_data(n=800, seed=3, noise=0.5)
    fit = linear_adjusted(data)
    v1 = variance_reg(data, fit, 0.0, 0.0, 0.0).v_hat
    got = variance_np_polyseq(data, 0.0, (0.0, 0.0), max_degree=4, rel_tol=0.05).v_hat
    assert got == pytest.approx(v1, rel=0.06)


def test_polyseq_infinite_tolerance_returns_degree_zero():
    data = linear_data(n=200, seed=4, noise=0.5)

    fit0 = linear_adjusted(replace(data, Z=np.empty((200, 0))))
    v0 = variance_reg(replace(data, Z=np.empty((200, 0))), fit0, 0.0, 0.0, 0.0).v_hat
    got = variance_np_polyseq(data, 0.0, (0.0, 0.0), rel_tol=math.inf).v_hat
    assert got == v0


def test_polyseq_singular_expansion_stops_gracefully():
    rng = rng_for(46)
    n = 100
    Z = np.column_stack([np.full(n, 2.0)])  # constant column: degree-1 design singular
    w = (rng.random(n) < 0.5).astype(int)
    data = TrialData(Y=rng.standard_normal(n), W=w, Z=Z, pi=0.5)
    got = variance_np_polyseq(data, 0.0, (0.0, 0.0), rel_tol=1e-9).v_hat

    fit0 = linear_adjusted(replace(data, Z=np.empty((n, 0))))
    v0 = variance_reg(replace(data, Z=np.empty((n, 0))), fit0, 0.0, 0.0, 0.0).v_hat
    assert got == v0


def test_polyseq_network_term_added():
    data = linear_data(n=300, seed=6, noise=0.5)
    base = variance_np_polyseq(data, 0.0, (0.0, 0.0), rel_tol=0.05).v_hat
    with_net = variance_np_polyseq(data, 2.0, (1.5, 0.5), rel_tol=0.05).v_hat
    assert with_net == pytest.approx(base + 2.0 * 0.25 * 1.0, rel=1e-9)


def test_polyseq_coverage_smooth_scenario():
    # nominal 95% intervals from the polynomial variance cover generously
    scenario = get_scenario("sec41-main", p=1)
    summary = run_scenario(scenario, 500, ("np:polyseq",), reps=1000, seed=9200, workers=WORKERS)
    assert summary.methods["np:polyseq"].coverage >= 0.93
