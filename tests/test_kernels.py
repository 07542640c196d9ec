import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netate import (
    EmptyWindowError,
    KernelConfig,
    UnsupportedDimensionError,
    density_estimate,
    group_density_estimates,
    kernel_eval,
    kernel_moment,
    kernel_order_for_dimension,
    local_constant,
)
from netate import kernels
from netate.kernels import weights_matrix

from conftest import rng_for


def cfg(q=2, p=1, h=1.0, b=1e-8, **kw):
    return KernelConfig(q=q, p=p, h_band=h, b_trim=b, **kw)


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def test_kernel_values_at_origin():
    assert kernel_eval(cfg(q=2), [0.0]) == pytest.approx(0.75)
    assert kernel_eval(cfg(q=4), [0.0]) == pytest.approx(45.0 / 32.0)
    assert kernel_eval(cfg(q=6), [0.0]) == pytest.approx(525.0 / 256.0)


def test_kernel_compact_support():
    for q in (2, 4, 6):
        assert kernel_eval(cfg(q=q), [1.0]) == 0.0
        assert kernel_eval(cfg(q=q), [-1.2]) == 0.0
        assert kernel_eval(cfg(q=q, p=2), [0.0, 1.5]) == 0.0


def test_kernel_product_structure():
    c = cfg(q=4, p=3)
    u = np.array([0.2, -0.5, 0.8])
    single = [kernel_eval(cfg(q=4), [v]) for v in u]
    assert kernel_eval(c, u) == pytest.approx(np.prod(single), rel=1e-12)


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
# density estimates
# ---------------------------------------------------------------------------

def test_density_single_point():
    c = cfg(q=2, h=0.5)
    assert density_estimate(np.array([[0.3]]), [0.3], c) == pytest.approx(0.75 / 0.5)


def test_density_outside_all_windows():
    c = cfg(q=2, h=0.5)
    assert density_estimate(np.array([[0.0], [1.0]]), [5.0], c) == 0.0


def test_density_hand_case():
    # points {0, 0.5, 2}, query 0, h=1: (K(0) + K(0.5) + 0)/3
    c = cfg(q=2, h=1.0)
    val = density_estimate(np.array([[0.0], [0.5], [2.0]]), [0.0], c)
    assert val == pytest.approx((0.75 + 0.75 * 0.75) / 3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(1, 40))
def test_density_second_order_nonnegative(seed, n):
    rng = rng_for(20, seed)
    Z = rng.standard_normal((n, 1))
    c = cfg(q=2, h=0.7)
    assert density_estimate(Z, rng.standard_normal(1), c) >= 0.0


def test_group_density_preconditions():
    c = cfg()
    with pytest.raises(ValueError):
        group_density_estimates(np.zeros((3, 1)), np.ones(3), [0.0], c, pi_hat=1.0)


def test_group_density_symmetry():
    c = cfg(q=2, h=1.0)
    Z = np.zeros((4, 1))
    w = np.array([1, 0, 1, 0])
    p1, p2 = group_density_estimates(Z, w, [0.0], c, pi_hat=0.5)
    assert p1 == pytest.approx(p2)


def test_group_density_hand_case():
    c = cfg(q=2, h=1.0)
    Z = np.array([[0.0], [0.5], [2.0]])
    w = np.array([1, 0, 1])
    p1, p2 = group_density_estimates(Z, w, [0.0], c, pi_hat=2.0 / 3.0)
    assert p1 == pytest.approx(0.75 / (3 * (2 / 3)))
    assert p2 == pytest.approx(0.75 * 0.75 / (3 * (1 / 3)))


# ---------------------------------------------------------------------------
# local constant regression
# ---------------------------------------------------------------------------

def test_local_constant_constant_outcome():
    c = cfg(q=2, h=1.0)
    Z = np.array([[0.0], [0.2], [-0.1]])
    y = np.full(3, 4.2)
    assert local_constant(Z, y, np.ones(3), [0.0], c, "treated") == pytest.approx(4.2)


def test_local_constant_single_point():
    c = cfg(q=2, h=0.5)
    Z = np.array([[0.0], [3.0]])
    y = np.array([1.7, 9.9])
    assert local_constant(Z, y, np.ones(2), [0.0], c, "treated") == pytest.approx(1.7)


def test_local_constant_equal_weights():
    c = cfg(q=2, h=1.0)
    Z = np.array([[0.5], [-0.5]])
    y = np.array([1.0, 3.0])
    assert local_constant(Z, y, np.ones(2), [0.0], c, "treated") == pytest.approx(2.0)


def test_local_constant_empty_window():
    c = cfg(q=2, h=0.5)
    Z = np.array([[0.0], [0.1]])
    with pytest.raises(EmptyWindowError):
        local_constant(Z, np.ones(2), np.array([1, 1]), [0.0], c, "control")


def test_local_constant_ignores_out_of_window_shifts():
    c = cfg(q=2, h=0.6)
    rng = rng_for(21)
    Z = np.concatenate([rng.uniform(-0.3, 0.3, 8), rng.uniform(4, 5, 8)])[:, None]
    y = rng.standard_normal(16)
    w = np.ones(16)
    base = local_constant(Z, y, w, [0.0], c, "treated")
    y_shifted = y.copy()
    y_shifted[8:] += 100.0
    assert local_constant(Z, y_shifted, w, [0.0], c, "treated") == base


# ---------------------------------------------------------------------------
# batched weights
# ---------------------------------------------------------------------------

def test_weights_matrix_matches_scalar_queries():
    rng = rng_for(22)
    Z = rng.standard_normal((25, 4))
    c = cfg(q=4, p=4, h=1.3)
    mat = weights_matrix(Z, c)
    for i in (0, 7, 24):
        expected = density_estimate(Z, Z[i], c)
        assert mat[i].sum() / (25 * 1.3**4) == pytest.approx(expected, rel=1e-12)


def test_infinite_bandwidth_weights_are_constant():
    Z = rng_for(24).standard_normal((10, 2))
    c = cfg(q=2, p=2, h=math.inf)
    mat = weights_matrix(Z, c)
    assert (mat == 0.75**2).all()


@pytest.mark.parametrize("q, p", [(4, 4), (4, 7), (6, 8), (6, 10)])
def test_infinite_bandwidth_higher_orders(q, p):
    # at h = inf every scaled difference is 0 and every sum is divided by inf
    rng = rng_for(25, q, p)
    Z = rng.standard_normal((12, p))
    w = np.r_[1, 0, (rng.random(10) < 0.5)].astype(float)
    c = cfg(q=q, p=p, h=math.inf)
    k0 = kernel_eval(c, np.zeros(p))
    assert (weights_matrix(Z, c) == k0).all()
    z = rng.standard_normal(p)
    assert density_estimate(Z, z, c) == 0.0
    assert group_density_estimates(Z, w, z, c, pi_hat=0.5) == (0.0, 0.0)


@pytest.mark.parametrize("q, p, h", [(2, 1, 0.4), (2, 3, 1.1), (4, 5, 1.7), (6, 9, 2.5)])
def test_single_point_queries_equal_matrix_rows_exactly(q, p, h):
    rng = rng_for(26, q, p)
    n = 30
    Z = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    w = np.r_[1, 0, (rng.random(n - 2) < 0.5)].astype(float)
    c = cfg(q=q, p=p, h=h)
    mat = weights_matrix(Z, c)
    scale = n * h**p
    for i in (0, 11, n - 1):
        row = mat[i]
        assert density_estimate(Z, Z[i], c) == float(row.sum() / scale)
        p1, p2 = group_density_estimates(Z, w, Z[i], c, pi_hat=0.4)
        assert p1 == float((row * w).sum() / (scale * 0.4))
        assert p2 == float((row * (1.0 - w)).sum() / (scale * 0.6))
        assert local_constant(Z, y, w, Z[i], c, "treated") == float(
            (row * w * y).sum() / float((row * w).sum())
        )


def _whole_matrix_weights(Z, config, at=None):
    """Reference: each coordinate's 1-D factor over all (m, n) pairs at once."""
    at = Z if at is None else at
    out = np.ones((at.shape[0], Z.shape[0]))
    for k in range(config.p):
        t = (Z[None, :, k] - at[:, k, None]) / config.h_band
        t2 = t * t
        u = 1.0 - t2
        if config.q == 2:
            factor = 0.75 * np.maximum(u, 0.0)
        elif config.q == 4:
            factor = (45.0 / 32.0) * u
            factor *= 1.0 - (7.0 / 3.0) * t2
            factor *= u > 0.0
        else:
            factor = (525.0 / 256.0) * u
            factor *= 1.0 - 6.0 * t2 + (33.0 / 5.0) * t2 * t2
            factor *= u > 0.0
        out *= factor
    return out


BLOCK = 4


@pytest.mark.parametrize("h", [1.0, 0.7, math.inf])
@pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("q", [2, 4, 6])
def test_blocked_weights_equal_whole_matrix_bit_for_bit(monkeypatch, q, m, h):
    # integer coordinates at h = 1 put pairs exactly on the support boundary,
    # where orders 4 and 6 give signed zeros
    rng = rng_for(27, q, m)
    p = 3
    Z = np.c_[rng.integers(-2, 3, (9, 2)), rng.standard_normal(9)].astype(float)
    queries = np.c_[rng.integers(-2, 3, (m, 2)), rng.standard_normal(m)].astype(float)
    c = cfg(q=q, p=p, h=h)
    for sample, at in ((Z[:m], None), (Z, queries)):
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * sample.shape[0] * BLOCK)
        got = weights_matrix(sample, c, at=at)
        want = _whole_matrix_weights(sample, c, at=at)
        assert got.shape == want.shape == (m, sample.shape[0])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_weights_matrix_memory_is_the_result_plus_block_scratch():
    Z = rng_for(28).standard_normal((2000, 5))
    c = cfg(q=4, p=5, h=1.5)
    tracemalloc.start()
    try:
        mat = weights_matrix(Z, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * mat.nbytes + 2 * 2**20
