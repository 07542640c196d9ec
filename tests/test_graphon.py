import csv
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from netate import (
    Network,
    QuadratureError,
    UnknownGraphonError,
    graphon_b,
    graphon_degree_profile,
    load_edge_list,
    make_graphon,
    sample_graph,
    sample_latents,
)
from netate import graphon

from conftest import rng_for


def quadratic_profile(x):
    # hand integral of the registered quadratic graphon's rows
    return x**2 + 0.5 * x + 13.0 / 30.0


# ---------------------------------------------------------------------------
# latents
# ---------------------------------------------------------------------------

def test_sample_latents_rejects_empty():
    with pytest.raises(ValueError):
        sample_latents(0, rng_for(1))


def test_sample_latents_deterministic():
    a = sample_latents(5, rng_for(42))
    b = sample_latents(5, rng_for(42))
    assert (a == b).all()
    assert ((a > 0) & (a < 1)).all()


def test_sample_latents_law_of_large_numbers():
    u = sample_latents(100_000, rng_for(7))
    assert abs(u.mean() - 0.5) < 0.01


# ---------------------------------------------------------------------------
# graph sampling
# ---------------------------------------------------------------------------

def test_zero_graphon_gives_edgeless_graph():
    spec = make_graphon("constant:0")
    net = sample_graph(spec, sample_latents(50, rng_for(3)), rng_for(4))
    assert net.adjacency.nnz == 0
    assert (net.degrees == 0).all()


def test_clamped_constant_gives_complete_graph():
    spec = replace(make_graphon("constant:5"), sparsity_exponent=0.0)  # rho*h = 5, clamped at 1
    n = 30
    net = sample_graph(spec, sample_latents(n, rng_for(5)), rng_for(6))
    assert (net.degrees == n - 1).all()


def test_mean_degree_matches_graphon_integral():
    # int int h = 2/3 + 1/4 + 0.1 = 61/60 for the quadratic form
    spec = make_graphon("paper-sec3")
    n = 1000
    u = sample_latents(n, rng_for(8))
    net = sample_graph(spec, u, rng_for(9))
    rho = n ** (-0.25)
    # given the latents, the mean degree is 2/n times a sum of independent
    # Bernoulli(p_ij) edges: check the sampler against that mean at 3 sigma
    iu, ju = np.triu_indices(n, k=1)
    p = np.minimum(rho * spec.h(u[iu], u[ju]), 1.0)
    conditional_mean = 2.0 / n * p.sum()
    bernoulli_sigma = 2.0 / n * np.sqrt((p * (1.0 - p)).sum())
    assert abs(net.degrees.mean() - conditional_mean) < 3 * bernoulli_sigma
    # across latent draws that mean is a U-statistic around (n - 1) rho 61/60
    # with sd 2 rho sqrt(n zeta1), zeta1 = Var h1(U) = 139/720 for the row
    # profile h1 = quadratic_profile
    latent_sigma = 2.0 * rho * np.sqrt(n * 139.0 / 720.0)
    assert abs(conditional_mean - (n - 1) * rho * (61.0 / 60.0)) < 3 * latent_sigma


def test_sampled_adjacency_is_exactly_symmetric():
    spec = make_graphon("paper-sec3")
    net = sample_graph(spec, sample_latents(300, rng_for(10)), rng_for(11))
    assert (net.adjacency != net.adjacency.T).nnz == 0
    assert net.adjacency.diagonal().sum() == 0
    recomputed = np.asarray(net.adjacency.sum(axis=1)).ravel()
    assert (recomputed == net.degrees).all()


def test_edge_probability_calibration():
    # fixed latent pair, repeated resampling of the single edge
    spec = make_graphon("paper-sec3")
    u = np.array([0.3, 0.8])
    rho = 2 ** (-0.25)
    p = min(rho * float(spec.h(0.3, 0.8)), 1.0)
    rng = rng_for(12)
    draws = 10_000
    hits = sum(sample_graph(spec, u, rng).adjacency.nnz // 2 for _ in range(draws))
    assert abs(hits / draws - p) < 3 * np.sqrt(p * (1 - p) / draws)


def test_sample_graph_rejects_bad_latents():
    spec = make_graphon("constant:0.5")
    with pytest.raises(ValueError):
        sample_graph(spec, np.array([0.2, 1.0]), rng_for(15))


def pairwise_sample_graph(spec, latents, rng):
    """Reference sampler: all n(n-1)/2 pairs at once, then COO -> CSR."""
    u = np.asarray(latents, dtype=float)
    n = u.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    probs = np.minimum(spec.edge_density(n) * np.asarray(spec.h(u[iu], u[ju]), dtype=float), 1.0)
    hit = rng.random(iu.shape[0]) < probs
    ei, ej = iu[hit], ju[hit]
    data = np.ones(2 * ei.shape[0], dtype=np.float64)
    a = sp.csr_array(
        sp.coo_array((data, (np.concatenate([ei, ej]), np.concatenate([ej, ei]))), shape=(n, n))
    )
    return a, np.asarray(a.sum(axis=1)).ravel().astype(np.int64)


BLOCK_ROWS = 4


@pytest.mark.parametrize(
    "key,gamma",
    [("paper-sec3", 0.25), ("constant:0", 0.25), ("constant:5", 0.0), ("rank1:2+sin(6*x)", 0.25)],
)
@pytest.mark.parametrize("n", [1, 2, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 2, 41])
def test_blocked_sampler_matches_pairwise_reference(monkeypatch, key, gamma, n):
    # blocks of BLOCK_ROWS rows: n - 1 rows hold pairs, so n = BLOCK_ROWS,
    # BLOCK_ROWS + 1 and BLOCK_ROWS + 2 put the last row one below, at and
    # one past a block boundary; n = 1 draws nothing
    monkeypatch.setattr(graphon, "_BLOCK_PAIRS", BLOCK_ROWS * n)
    spec = replace(make_graphon(key), sparsity_exponent=gamma)
    u = sample_latents(n, rng_for(20, n))
    rng_ref, rng_blocked = rng_for(21, n), rng_for(21, n)
    ref, ref_degrees = pairwise_sample_graph(spec, u, rng_ref)
    net = sample_graph(spec, u, rng_blocked)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(net.adjacency, name), getattr(ref, name)
        assert got.dtype == (want.dtype if name == "data" else np.int32), name
        assert np.array_equal(got, want), name
    assert net.degrees.dtype == ref_degrees.dtype
    assert np.array_equal(net.degrees, ref_degrees)
    assert rng_blocked.random() == rng_ref.random()


def test_blocked_sampler_matches_reference_at_default_block():
    # n = 700 spans several default-size blocks
    spec = make_graphon("paper-sec3")
    u = sample_latents(700, rng_for(22))
    rng_ref, rng_blocked = rng_for(23), rng_for(23)
    ref, _ = pairwise_sample_graph(spec, u, rng_ref)
    net = sample_graph(spec, u, rng_blocked)
    assert (net.adjacency != ref).nnz == 0
    assert rng_blocked.random() == rng_ref.random()


def test_every_constructor_gives_int32_indices():
    rng = rng_for(26)
    sampled = sample_graph(make_graphon("paper-sec3"), sample_latents(500, rng), rng)
    a = sampled.adjacency
    wide = sp.csr_array((a.data, a.indices.astype(np.int64), a.indptr.astype(np.int64)), shape=a.shape)
    assert wide.indices.dtype == np.int64 and wide.indptr.dtype == np.int64
    nets = {
        "sample_graph": sampled,
        "from_adjacency": Network.from_adjacency(wide),
        "from_edges": Network.from_edges(500, np.column_stack(sp.triu(a, k=1).nonzero())),
    }
    for name, net in nets.items():
        assert net.adjacency.indices.dtype == np.int32, name
        assert net.adjacency.indptr.dtype == np.int32, name
        assert (net.adjacency != a).nnz == 0, name
    # scipy's CSR products sum in the same order for either index dtype
    x = rng.standard_normal((500, 3))
    assert np.array_equal(a @ x[:, 0], wide @ x[:, 0])
    assert np.array_equal(a @ x, wide @ x)


def test_csr_index_dtype_widens_past_int32():
    top = int(np.iinfo(np.int32).max)
    assert graphon._csr_index_dtype(top, 10) is np.int32
    assert graphon._csr_index_dtype(top + 1, 10) is np.int64
    assert graphon._csr_index_dtype(0, top + 1) is np.int64


def test_sample_graph_memory_is_adjacency_plus_block():
    spec = make_graphon("paper-sec3")
    n = 4000
    u = sample_latents(n, rng_for(24))
    rng = rng_for(25)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        net = sample_graph(spec, u, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    a = net.adjacency
    adjacency_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    assert peak <= 3 * adjacency_bytes + 4 * 2**20


# ---------------------------------------------------------------------------
# registry and rank forms
# ---------------------------------------------------------------------------

def test_registry_keys():
    assert make_graphon("paper-sec3").rank_hint == 3
    assert float(make_graphon("constant:0.3").h(0.1, 0.9)) == pytest.approx(0.3)
    with pytest.raises(UnknownGraphonError):
        make_graphon("nope")
    with pytest.raises(UnknownGraphonError):
        make_graphon("rank1:x+y")


def test_rank1_expression_is_normalized():
    spec = make_graphon("rank1:1+x")
    # the eigenvalue is the squared norm int (1 + x)^2 = 7/3, so the
    # eigenfunction (1 + x) / sqrt(7/3) has norm 1
    assert spec.eigenvalues == pytest.approx((7.0 / 3.0,), rel=1e-12)
    # h itself is unchanged: (1+x)(1+y)
    assert float(spec.h(0.2, 0.7)) == pytest.approx(1.2 * 1.7, abs=1e-10)


def test_rank1_constant_expression_is_broadcast():
    spec = make_graphon("rank1:2")
    assert np.array_equal(spec.h(0.3, np.array([0.1, 0.5, 0.9])), np.full(3, 4.0))
    assert graphon_b(spec) == pytest.approx(1.0, abs=1e-8)


def test_rank1_expression_grammar():
    psi = graphon._parse_expr("-x**2 + exp(-x) / 2 - sqrt(x) * log(1 + x) + cos(3 * x)")
    x = np.linspace(0.0, 1.0, 7)
    want = -(x**2) + np.exp(-x) / 2 - np.sqrt(x) * np.log(1 + x) + np.cos(3 * x)
    assert np.allclose(psi(x), want, rtol=1e-15, atol=0)
    for bad in ("__import__('os')", "x.real", "np.sin(x)", "sin(x, 2)", "lambda: 1", "True", "1 +"):
        with pytest.raises(UnknownGraphonError):
            make_graphon(f"rank1:{bad}")


@pytest.mark.parametrize("expr", ["1/(x-0.5)", "1/sqrt(x)", "sqrt(x-2)", "1/x"])
def test_rank1_expression_without_finite_norm_is_rejected(expr):
    # a pole makes quad return inf with no warning, 1/sqrt(x) exhausts its subdivisions,
    # sqrt(x-2) is nan everywhere and 1/x diverges; each is named, not normalised
    with pytest.raises(UnknownGraphonError, match=re.escape(f"rank1 expression {expr!r} has no finite L2 norm")):
        make_graphon(f"rank1:{expr}")


def test_probe_symmetry_and_bounds():
    # the declared c_u of the paper graphon holds on a probe grid
    spec = make_graphon("paper-sec3")
    x, y = rng_for(16).random((2, 10_000))
    assert np.max(np.abs(spec.h(x, y) - spec.h(y, x))) < 1e-12
    grid = np.linspace(1e-9, 1 - 1e-9, 65)
    sup_h = float(np.max(spec.h(*np.meshgrid(grid, grid))))
    assert sup_h <= spec.upper_bound + 1e-9


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------

def test_graphon_b_constant_is_one():
    assert graphon_b(make_graphon("constant:0.7")) == pytest.approx(1.0, abs=1e-8)


def test_graphon_b_rank1_closed_form():
    # h = (1+x)(1+y): b = int psi^2 / (int psi)^2 = (7/3) / (3/2)^2 = 28/27
    assert graphon_b(make_graphon("rank1:1+x")) == pytest.approx(28.0 / 27.0, abs=1e-8)


def test_graphon_b_quadratic_value():
    # pinned from an independent nested-quadrature run; also consistent with
    # the two variance constants of the smooth design: (1.616 - 1.357)/0.21
    b = graphon_b(make_graphon("paper-sec3"))
    assert b == pytest.approx(1.2332334013, abs=1e-7)
    assert b == pytest.approx((1.616 - 1.357) / 0.21, abs=2e-3)


def test_graphon_b_zero_graphon_fails_loudly():
    with pytest.raises(QuadratureError):
        graphon_b(make_graphon("constant:0"))


def test_degree_profile_hand_values():
    spec = make_graphon("paper-sec3")
    assert graphon_degree_profile(spec, 1e-9) == pytest.approx(13.0 / 30.0, abs=1e-6)
    assert graphon_degree_profile(spec, 1 - 1e-9) == pytest.approx(29.0 / 15.0, abs=1e-6)
    assert graphon_degree_profile(make_graphon("constant:0.4"), 0.5) == pytest.approx(0.4, abs=1e-10)
    for x in (0.1, 0.5, 0.9):
        assert graphon_degree_profile(spec, x) == pytest.approx(quadratic_profile(x), abs=1e-9)


def test_degree_law_uniform_approximation():
    # scaled degrees track the graphon row integrals, tighter as n grows
    spec = make_graphon("paper-sec3")
    seeds = 50

    def max_deviation(n, seed):
        rng = rng_for(100, seed)
        u = sample_latents(n, rng)
        net = sample_graph(spec, u, rng)
        return np.max(np.abs(net.degrees / (n * n**-0.25) - quadratic_profile(u)))

    dev_small = np.array([max_deviation(500, s) for s in range(seeds)])
    dev_large = np.array([max_deviation(2000, s) for s in range(seeds)])
    assert dev_large.mean() < dev_small.mean()
    assert (dev_large < 0.25).sum() >= 48  # >= 95% of seeds


# ---------------------------------------------------------------------------
# Network container
# ---------------------------------------------------------------------------

def test_network_validation():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        Network.from_adjacency(bad)
    loop = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        Network.from_adjacency(loop)


def test_from_adjacency_takes_zero_one_entries_and_ignores_stored_zeros():
    with pytest.raises(ValueError, match="0 or 1"):
        Network.from_adjacency([[0, 2.5, 0], [2.5, 0, -1], [0, -1, 0]])
    # two stored ones at (0, 1) and at (1, 0) are an entry of 2
    doubled = sp.csr_array((np.ones(4), np.array([1, 1, 0, 0]), np.array([0, 2, 4])), shape=(2, 2))
    with pytest.raises(ValueError, match="0 or 1"):
        Network.from_adjacency(doubled)
    # stored zeros at (0, 2) and (2, 0)
    a = sp.csr_array((np.array([1.0, 0.0, 1.0, 0.0]), np.array([1, 2, 0, 0]), np.array([0, 2, 3, 4])),
                     shape=(3, 3))
    net = Network.from_adjacency(a)
    assert net.adjacency.nnz == 2
    assert net.adjacency.indices.tolist() == [1, 0]
    assert net.adjacency.indptr.tolist() == [0, 1, 2, 2]
    assert net.degrees.tolist() == [1, 1, 0]


@pytest.mark.parametrize("bad", [-1, 3])
def test_from_edges_rejects_ids_outside_the_vertex_range(bad):
    with pytest.raises(ValueError, match="vertex ids"):
        Network.from_edges(3, [(0, 1), (1, bad)])


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_from_adjacency_does_not_share_the_callers_arrays(index_dtype):
    a = sp.csr_array(np.array([[0, 1.0], [1, 0]]))
    a.indices, a.indptr = a.indices.astype(index_dtype), a.indptr.astype(index_dtype)
    net = Network.from_adjacency(a)
    a.data[:] = 5
    a.indices[:] = 0
    a.indptr[:] = 0
    assert net.adjacency.data.tolist() == [1.0, 1.0]
    assert net.adjacency.indices.tolist() == [1, 0]
    assert net.adjacency.indptr.tolist() == [0, 1, 2]
    assert net.degrees.tolist() == [1, 1]


def test_network_neighbors_and_counts():
    net = Network.from_edges(3, [(0, 1), (1, 2)])
    assert net.treated_neighbor_counts(np.array([1, 0, 1])).tolist() == [0.0, 2.0, 0.0]


def test_edge_list_csv_roundtrip(tmp_path):
    spec = make_graphon("paper-sec3")
    net = sample_graph(spec, sample_latents(40, rng_for(17)), rng_for(18))
    path = tmp_path / "edges.csv"
    edges = zip(*net.adjacency.nonzero())
    path.write_text("".join(f"{i},{j}\n" for i, j in edges if i < j))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert all(int(i) < int(j) for i, j in rows)
    reloaded, ids = load_edge_list(path)
    # isolated vertices are absent from an edge list; compare on the mapped set
    assert reloaded.n == len(ids)
    sub = net.adjacency[ids][:, ids]
    assert (reloaded.adjacency != sub).nnz == 0


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.1, 0.9), n=st.integers(2, 25), seed=st.integers(0, 10_000))
def test_sampled_graph_symmetry_property(c, n, seed):
    spec = make_graphon(f"constant:{c}")
    rng = rng_for(19, seed)
    net = sample_graph(spec, sample_latents(n, rng), rng)
    assert (net.adjacency != net.adjacency.T).nnz == 0
    assert net.adjacency.diagonal().sum() == 0
