import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netate import (
    KernelConfig,
    TrialData,
    UnsupportedDimensionError,
    kernel_moment,
    kernel_order_for_dimension,
)
from netate import kernels
from netate.estimators import _np_columns
from netate.kernels import weights_matrix

from conftest import rng_for, whole_matrix_weights


def cfg(q=2, p=1, h=1.0, b=1e-8, **kw):
    return KernelConfig(q=q, p=p, h_band=h, b_trim=b, **kw)


def kernel_of(Z, config):
    """The weights K((z_j - z_i)/h) of the sample about itself, as the kernel sums K @ I."""
    return weights_matrix(np.asarray(Z, dtype=float), config, rhs=np.eye(len(Z)))


def at_samples(Z, w, y, config):
    """What nonparametric reads at every sample point, from its five kernel sums.

    The density, the group densities p1 and p2 (pi_hat = mean(w)), and the
    local-constant fits of the treated and control outcomes.
    """
    data = TrialData(Y=np.asarray(y, dtype=float), W=np.asarray(w), Z=np.asarray(Z, dtype=float), pi=0.5)
    total, den1, den0, num1, num0 = weights_matrix(data.Z, config, rhs=_np_columns(data)).T
    scale = data.n * config.h_band**config.p
    pi_hat = data.W.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        return SimpleNamespace(
            density=total / scale,
            p1=den1 / (scale * pi_hat),
            p2=den0 / (scale * (1.0 - pi_hat)),
            treated=num1 / den1,
            control=num0 / den0,
        )


def density(Z, config):
    return at_samples(Z, np.ones(len(Z)), np.zeros(len(Z)), config).density


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def test_kernel_values_at_origin():
    for q, k0 in ((2, 0.75), (4, 45.0 / 32.0), (6, 525.0 / 256.0)):
        assert kernel_of([0.0], cfg(q=q))[0, 0] == pytest.approx(k0)


def test_kernel_compact_support():
    # weights on the support's edge (|t| = 1) and beyond it are 0
    for q in (2, 4, 6):
        assert (kernel_of([0.0, 1.0], cfg(q=q))[0, 1:] == 0.0).all()
        assert (kernel_of([0.0, -1.2], cfg(q=q))[0, 1:] == 0.0).all()
        assert kernel_of([[0.0, 0.0], [0.0, 1.5]], cfg(q=q, p=2))[0, 1] == 0.0


def test_kernel_product_structure():
    c = cfg(q=4, p=3)
    u = np.array([0.2, -0.5, 0.8])
    single = [kernel_of([0.0, v], cfg(q=4))[0, 1] for v in u]
    assert kernel_of(np.stack([np.zeros(3), u]), c)[0, 1] == pytest.approx(np.prod(single), rel=1e-12)


def test_kernel_order_map():
    assert [kernel_order_for_dimension(p) for p in (1, 3, 4, 7, 8, 10)] == [2, 2, 4, 4, 6, 6]
    with pytest.raises(UnsupportedDimensionError):
        kernel_order_for_dimension(11)
    with pytest.raises(UnsupportedDimensionError):
        kernel_order_for_dimension(0)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        cfg(q=3)
    with pytest.raises(ValueError):
        cfg(h=-1.0)
    with pytest.raises(ValueError):
        cfg(b=0.0)
    with pytest.warns(UserWarning, match="below trim threshold"):
        cfg(h=0.4, b=0.8)


def test_trim_warning_names_the_caller():
    # the warning points past the dataclass-generated __init__ to this file
    with pytest.warns(UserWarning, match="below trim threshold") as record:
        KernelConfig(q=2, p=1, h_band=0.05, b_trim=50)
    assert record[0].filename == __file__


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_kernel_normalization_all_orders_and_dimensions():
    for q in (2, 4, 6):
        for p in range(1, 11):
            c = KernelConfig(q=q, p=p, h_band=1.0, b_trim=1e-8)
            assert kernel_moment(c, [0] * p) == pytest.approx(1.0, abs=1e-10)


def test_kernel_vanishing_moments_below_order():
    # product structure: per-coordinate moments characterize the kernel order
    for q in (2, 4, 6):
        c = cfg(q=q)
        for l in range(1, q):
            assert kernel_moment(c, [l]) == pytest.approx(0.0, abs=1e-10)
        assert abs(kernel_moment(c, [q])) > 1e-6


def test_kernel_known_moments():
    assert kernel_moment(cfg(q=2), [2]) == pytest.approx(0.2, abs=1e-12)
    assert kernel_moment(cfg(q=4), [2]) == pytest.approx(0.0, abs=1e-12)
    assert kernel_moment(cfg(q=4), [4]) == pytest.approx(-1.0 / 21.0, abs=1e-10)


def test_kernel_moment_multi_index():
    c = cfg(q=2, p=2)
    assert kernel_moment(c, [1, 1]) == pytest.approx(0.0, abs=1e-12)
    assert kernel_moment(c, [2, 2]) == pytest.approx(0.04, abs=1e-10)
    with pytest.raises(ValueError):
        kernel_moment(c, [1, 1, 1])
    with pytest.raises(ValueError):
        kernel_moment(c, [-1])


# ---------------------------------------------------------------------------
# density estimates at the sample points
# ---------------------------------------------------------------------------

def test_density_single_point():
    c = cfg(q=2, h=0.5)
    assert density([0.3], c)[0] == pytest.approx(0.75 / 0.5)


def test_density_outside_all_windows():
    # each point lies outside every other point's window, so only its own
    # weight K(0) counts
    c = cfg(q=2, h=0.5)
    assert density([0.0, 1.0, 5.0], c) == pytest.approx(np.full(3, 0.75 / (3 * 0.5)))


def test_density_hand_case():
    # points {0, 0.5, 2}, h=1, at 0: (K(0) + K(0.5) + 0)/3
    c = cfg(q=2, h=1.0)
    assert density([0.0, 0.5, 2.0], c)[0] == pytest.approx((0.75 + 0.75 * 0.75) / 3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(1, 40))
def test_density_second_order_nonnegative(seed, n):
    # order-2 weights are nonnegative, so each point's sum is at least its own K(0)
    Z = rng_for(20, seed).standard_normal(n)
    c = cfg(q=2, h=0.7)
    assert (density(Z, c) * n * 0.7 >= 0.75 * (1 - 1e-13)).all()


def test_group_density_symmetry():
    c = cfg(q=2, h=1.0)
    fits = at_samples(np.zeros(4), [1, 0, 1, 0], np.zeros(4), c)
    assert fits.p1 == pytest.approx(fits.p2)


def test_group_density_hand_case():
    # points {0, 0.5, 2} with w = (1, 0, 1), at 0: pi_hat = 2/3
    c = cfg(q=2, h=1.0)
    fits = at_samples([0.0, 0.5, 2.0], [1, 0, 1], np.zeros(3), c)
    assert fits.p1[0] == pytest.approx(0.75 / (3 * (2 / 3)))
    assert fits.p2[0] == pytest.approx(0.75 * 0.75 / (3 * (1 / 3)))


# ---------------------------------------------------------------------------
# local-constant fits at the sample points
# ---------------------------------------------------------------------------

def test_local_constant_constant_outcome():
    c = cfg(q=2, h=1.0)
    fits = at_samples([0.0, 0.2, -0.1], np.ones(3), np.full(3, 4.2), c)
    assert fits.treated == pytest.approx(np.full(3, 4.2))


def test_local_constant_single_point():
    c = cfg(q=2, h=0.5)
    fits = at_samples([0.0, 3.0], np.ones(2), [1.7, 9.9], c)
    assert fits.treated == pytest.approx([1.7, 9.9])


def test_local_constant_equal_weights():
    # the control point at 0 sees both treated points with weight K(0.5)
    c = cfg(q=2, h=1.0)
    fits = at_samples([0.5, -0.5, 0.0], [1, 1, 0], [1.0, 3.0, 100.0], c)
    assert fits.treated[2] == pytest.approx(2.0)


def test_local_constant_ignores_out_of_window_shifts():
    c = cfg(q=2, h=0.6)
    rng = rng_for(21)
    Z = np.concatenate([rng.uniform(-0.3, 0.3, 8), rng.uniform(4, 5, 8)])
    y = rng.standard_normal(16)
    w = np.ones(16)
    base = at_samples(Z, w, y, c).treated
    y_shifted = y.copy()
    y_shifted[8:] += 100.0
    assert np.array_equal(at_samples(Z, w, y_shifted, c).treated[:8], base[:8])


# ---------------------------------------------------------------------------
# the kernel fill against the dense reference
# ---------------------------------------------------------------------------

def test_infinite_bandwidth_weights_are_constant():
    Z = rng_for(24).standard_normal((10, 2))
    c = cfg(q=2, p=2, h=math.inf)
    assert (kernel_of(Z, c) == 0.75**2).all()


@pytest.mark.parametrize("q", [2, 4, 6])
def test_scaled_kernel_equals_the_closed_form_bit_for_bit(q):
    # kernel_moment's integrand: _kernel_1d with scale C_q on t^2 is the
    # closed form of whole_matrix_weights at every interior t, 0 and points
    # within 1e-9 of the support's edge included
    edge = 1.0 - np.array([1e-9, 1e-12, 2.0**-52, 2.0**-53])
    t = np.concatenate([[0.0, -0.0], edge, -edge, rng_for(26, q).uniform(-1.0, 1.0, 200)])
    c_q = {2: 0.75, 4: 105.0 / 32.0, 6: 3465.0 / 256.0}[q]
    got = kernels._kernel_1d(q, t * t, np.empty_like(t), c_q)
    want = whole_matrix_weights(t[:, None], cfg(q=q), at=np.zeros((1, 1)))[0]
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def unscaled_weights(Zs, q, at):
    """The fill's closed form: prod_k (1 - t^2) poly_q(t^2) clamped at 0, t = Zs[j, k] - at[i, k].

    Zs and at are covariates already divided by h, and the kernel constant
    is left out (K / C_q^p), so poly_q has leading coefficient 1, one
    coordinate's factor at a time in the library's operation order.
    """
    out = np.ones((at.shape[0], Zs.shape[0]))
    for k in range(Zs.shape[1]):
        t = Zs[None, :, k] - at[:, k, None]
        t2 = t * t
        clamp = np.maximum(1.0 - t2, 0.0)
        if q == 2:
            factor = clamp
        elif q == 4:
            factor = (3.0 / 7.0 - t2) * clamp
        else:
            factor = ((t2 - 10.0 / 11.0) * t2 + 5.0 / 33.0) * clamp
        out *= factor
    return out


BLOCK = 4


@pytest.mark.parametrize("h", [1.0, 0.7, math.inf])
@pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("q", [2, 4, 6])
def test_blocked_weights_equal_whole_matrix_bit_for_bit(q, m, h):
    # integer coordinates at h = 1 put pairs exactly on the support boundary,
    # where orders 4 and 6 give signed zeros
    rng = rng_for(27, q, m)
    p = 3
    Z = np.c_[rng.integers(-2, 3, (9, 2)), rng.standard_normal(9)].astype(float)
    queries = np.c_[rng.integers(-2, 3, (m, 2)), rng.standard_normal(m)].astype(float)
    c = cfg(q=q, p=p, h=h)
    # the symmetric pass's panels (rows s..s+b over columns s..n-1), and rows
    # about other points over every column, through scratch that every
    # block reuses; the fill reads covariates already divided by h
    for sample, at, panel in ((Z[:m] / h, Z[:m] / h, True), (Z / h, queries / h, False)):
        want = unscaled_weights(sample, q, at=at)
        Zt = np.ascontiguousarray(sample.T)
        bufs = np.empty((3, BLOCK * sample.shape[0]))
        for s in range(0, m, BLOCK):
            first = s if panel else 0
            b, w = min(BLOCK, m - s), sample.shape[0] - first
            block, t, k_buf = (buf[: b * w].reshape(b, w) for buf in bufs)
            kernels._fill_block(block, Zt[:, first:], at[s : s + b], c, t, k_buf)
            assert np.array_equal(block, want[s : s + b, first:])
            assert np.array_equal(np.signbit(block), np.signbit(want[s : s + b, first:]))


# ---------------------------------------------------------------------------
# kernel sums: one pass over the upper triangle
# ---------------------------------------------------------------------------

PANEL = 64  # scratch entries per buffer in the tests below


def _sums_case(rng, n, p):
    # integer coordinates put pairs exactly on the support boundary at h = 1
    Z = np.c_[rng.integers(-2, 3, (n, 1)), rng.standard_normal((n, p - 1))].astype(float)
    V = np.c_[np.ones(n), rng.standard_normal((n, 4))]
    return Z, V


@pytest.mark.parametrize("h", [1.0, 1.9])
@pytest.mark.parametrize("n", [5, 8, 23])
@pytest.mark.parametrize("p", [1, 3, 5])
@pytest.mark.parametrize("q", [2, 4, 6])
def test_symmetric_sums_match_full_matrix_products(monkeypatch, q, p, n, h):
    # n = 5 fits in one panel, n = 8 fills exactly one (8 rows of 8), and
    # n = 23 takes panels of 2, 3, 3, 4, 5 and 6 rows
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * PANEL)
    Z, V = _sums_case(rng_for(40, q, p, n), n, p)
    c = cfg(q=q, p=p, h=h)
    K = whole_matrix_weights(Z, c)
    # the symmetric pass itself, and the path weights_matrix picks (the
    # window sums for p = 1 and order 2)
    for got in (kernels._symmetric_sums(Z, c, V), weights_matrix(Z, c, rhs=V)):
        assert got.shape == (n, 5)
        # rounding of a reordered sum is bounded by the sum of the magnitudes
        assert (np.abs(got - K @ V) <= 1e-13 * (np.abs(K) @ np.abs(V))).all()


@pytest.mark.parametrize("q", [2, 4, 6])
def test_weights_of_the_sample_are_symmetric_bit_for_bit(q):
    Z, _ = _sums_case(rng_for(41, q), 40, 3)
    K = whole_matrix_weights(Z, cfg(q=q, p=3, h=1.0))
    assert np.array_equal(K, K.T)
    assert np.array_equal(np.signbit(K), np.signbit(K.T))


@pytest.mark.parametrize("q, p", [(4, 3), (4, 4), (4, 7), (6, 8), (6, 10)])
def test_symmetric_sums_infinite_bandwidth(q, p):
    # every weight is K(0)^p, so each row is K(0)^p times the column sums,
    # and every sum over n h^p is 0
    n = 30
    Z, V = _sums_case(rng_for(43, q, p), n, p)
    c = cfg(q=q, p=p, h=math.inf)
    poly0, c_q = {4: (3.0 / 7.0, 105.0 / 32.0), 6: (5.0 / 33.0, 3465.0 / 256.0)}[q]
    # the fill's product of poly_q(0) over the coordinates in order, then C_q^p on the sums
    k0 = math.prod([poly0] * p) * math.prod([c_q] * p)
    assert (kernel_of(Z, c) == k0).all()
    got = weights_matrix(Z, c, rhs=V)
    want = k0 * V.sum(axis=0)
    assert got == pytest.approx(np.broadcast_to(want, got.shape), rel=1e-13, abs=1e-13)
    assert (got / (n * c.h_band**p) == 0.0).all()


def test_symmetric_sums_reject_queries_and_bad_shapes():
    # sums only: a call without rhs, asking for the weights themselves, is
    # rejected, as are covariates of another dimension
    Z, V = _sums_case(rng_for(44), 10, 2)
    c = cfg(q=2, p=2)
    with pytest.raises(TypeError):
        weights_matrix(Z, c)
    with pytest.raises(ValueError, match="covariate dimensions"):
        weights_matrix(Z[:, :1], c, rhs=V)
    with pytest.raises(ValueError, match=r"rhs must be an \(10, k\) matrix"):
        weights_matrix(Z, c, rhs=V[:9])
    with pytest.raises(ValueError, match=r"rhs must be an \(10, k\) matrix"):
        weights_matrix(Z, c, rhs=V[:, 0])


def test_symmetric_sums_allocate_no_n_by_n_array():
    n = 2000
    Z, V = _sums_case(rng_for(45), n, 5)
    c = cfg(q=4, p=5, h=1.5)
    tracemalloc.start()
    try:
        sums = weights_matrix(Z, c, rhs=V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result, the panel's contribution to later rows, three buffers
    assert peak <= 2 * sums.nbytes + 3 * kernels._BLOCK_BYTES + 2**18
    assert peak < n * n * 8 / 16


# ---------------------------------------------------------------------------
# kernel sums for p = 1 and order 2: windows of the sorted z
# ---------------------------------------------------------------------------


def _symmetric_reference(z, c, V):
    Z = np.asarray(z, dtype=float)[:, None]
    return kernels._symmetric_sums(Z, c, V)


_grid_z = st.lists(st.integers(-100, 100), min_size=1, max_size=40)  # duplicates, pairs h apart
_constant_z = st.tuples(st.integers(-100, 100), st.integers(1, 40)).map(lambda t: [t[0]] * t[1])
_float_z = st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(
    z=st.one_of(_grid_z, _constant_z, _float_z, st.lists(st.integers(-3, 3), min_size=1, max_size=2)),
    h=st.sampled_from([1.0, 0.5, 2.0, 0.7, 13.0, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_sums_match_the_symmetric_pass(z, h, seed):
    # integer z at h = 1, 0.5 and 2 puts pairs exactly h apart, where the
    # weight is 0; |z| / h reaches 100 at h = 1 and 200 at h = 0.5
    z = np.array(z, dtype=float)
    n = z.size
    rng = np.random.default_rng(seed)
    # entries of magnitude 1 to 2, so every point's own weight bounds the
    # magnitude sum from below
    V = np.c_[np.ones(n), rng.uniform(1.0, 2.0, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))]
    c = cfg(q=2, p=1, h=h)
    got = weights_matrix(z, c, rhs=V)
    want = _symmetric_reference(z, c, V)
    assert got.shape == (n, 4)
    assert (np.abs(got - want) <= 1e-13 * _symmetric_reference(z, c, np.abs(V))).all()


def test_window_sums_evaluate_no_kernel_block(monkeypatch):
    calls = []
    fill = kernels._fill_block
    monkeypatch.setattr(kernels, "_fill_block", lambda *a: calls.append(a[3]) or fill(*a))
    z, V = _sums_case(rng_for(49), 200, 1)
    weights_matrix(z, cfg(q=2, p=1, h=0.8), rhs=V)
    assert calls == []
    # every other config, h = inf included, still takes the symmetric pass
    for c in (cfg(q=4, p=1, h=0.8), cfg(q=2, p=1, h=math.inf), cfg(q=2, p=2, h=0.8)):
        weights_matrix(np.c_[z, z][:, : c.p], c, rhs=V)
        assert calls[-1] == c


def test_window_sums_memory_is_linear_in_n():
    n = 50_000
    rng = rng_for(50)
    z = rng.standard_normal(n)
    V = np.c_[np.ones(n), rng.standard_normal((n, 4))]
    c = cfg(q=2, p=1, h=1.5 * n ** (-1 / 6.5))  # the rule-of-thumb bandwidth
    tracemalloc.start()
    try:
        sums = weights_matrix(z, c, rhs=V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each point sits in about three window segments, each holding three
    # moments of the k columns, and the compensated prefix needs two more
    # arrays of that size: 30 n k doubles measured
    assert peak <= 36 * sums.nbytes
