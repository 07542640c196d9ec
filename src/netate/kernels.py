"""Higher-order Epanechnikov product kernels and the kernel sums of the estimator.

Conventions:
  - one-dimensional kernels on |t| <= 1, zero outside:
      order 2:  (3/4)(1 - t^2)
      order 4:  (45/32)(1 - t^2)(1 - 7 t^2 / 3)
      order 6:  (525/256)(1 - t^2)(1 - 6 t^2 + 33 t^4 / 5)
  - the p-dimensional kernel is the coordinate product, supported on the
    unit max-norm cube.

Orders 4 and 6 take negative values, so the sums are signed, exactly as the
trimming indicator consumes them.

The estimator needs kernel sums, not kernel weights: K @ V for the five
columns V of nonparametric.  weights_matrix(Z, config, rhs=V) picks one of
two paths from the config alone:
  - p = 1, order 2, finite h: window sums over the sorted z (_window_sums).
    On its window |z_j - z_i| < h the kernel is a quadratic in z_j, so each
    sum is three moment differences, taken about block-local centres from
    compensated prefix sums.  O(n log n) time, O(n k) memory: about 4 ms at
    n = 4000 and 30 ms at n = 20 000 on a 2-core Xeon VM, where the
    symmetric pass takes 45 ms and 4 s.  On 20 sec41-main draws each at
    n = 4000 and 20 000 (|z|/h up to 16), the estimator's tau_hat agrees
    with the symmetric pass within 5e-14 relative, with the same kept
    count, and the density column within 7e-15 relative.  A sum made only
    of weights near the window's edge is ill-conditioned in z itself (one
    at 1.8e-13 in 1.2 million, against an extended-precision value that
    both paths miss by more than 5e-14).
  - otherwise: one pass over the upper triangle of the symmetric (n, n) K
    (_symmetric_sums), a panel of rows at a time through three scratch
    buffers of about _BLOCK_BYTES each: n^2/2 kernel evaluations per
    coordinate in O(n k + _BLOCK_BYTES) memory.  The covariates are divided
    by h once, the panels hold the unscaled products of (1 - t^2) poly_q(t^2),
    clamped at 0 outside the support, and the constant C_q^p multiplies the
    (n, k) sums at the end: 8 array passes per coordinate for order 4 (7
    for the first), where scaling each difference and each factor and
    masking the support took 11.  It is also the tests' reference for the
    window sums.
Neither makes an n x n array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import UnsupportedDimensionError, warn_caller
from .graphon import _quad

__all__ = [
    "KernelConfig",
    "kernel_order_for_dimension",
    "kernel_moment",
]

_ORDERS = (2, 4, 6)
# C_q: each order's kernel is C_q (1 - t^2) poly_q(t^2) on |t| <= 1
_CONSTANTS = {2: 0.75, 4: 45.0 / 32.0, 6: 525.0 / 256.0}
# bytes per scratch buffer of the symmetric pass: each panel is about
# this size, so the buffers stay in L2; on a 2-core Xeon, 64-512 KiB
# timed the same within noise and 128 KiB was fastest
_BLOCK_BYTES = 128 * 1024


def kernel_order_for_dimension(p: int) -> int:
    """Kernel order for covariate dimension p: 1-3 -> 2, 4-7 -> 4, 8-10 -> 6."""
    if 1 <= p <= 3:
        return 2
    if 4 <= p <= 7:
        return 4
    if 8 <= p <= 10:
        return 6
    raise UnsupportedDimensionError(f"covariate dimension {p} outside the supported range 1..10")


@dataclass(frozen=True)
class KernelConfig:
    """Tuning state of the kernel estimator: order, bandwidth, trimming."""

    q: int
    p: int
    h_band: float
    b_trim: float

    def __post_init__(self):
        if self.q not in _ORDERS:
            raise ValueError(f"kernel order must be one of {_ORDERS}")
        if self.p < 1:
            raise ValueError("covariate dimension must be >= 1")
        if not self.h_band > 0:
            raise ValueError("bandwidth must be positive")
        if not self.b_trim > 0:
            raise ValueError("trimming threshold must be positive")
        if math.isfinite(self.h_band) and self.h_band < self.b_trim:
            # a trim level above the bandwidth can discard most of the sample
            warn_caller(
                f"bandwidth {self.h_band:g} below trim threshold {self.b_trim:g}; "
                f"trimming may discard much of the sample"
            )


def _kernel_1d(q: int, s: np.ndarray, out: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale * K_q(t) / C_q at every entry, for s = t * t, written into `out`.

    C_q is the kernel's constant (_CONSTANTS), so scale = C_q gives the
    kernel itself and the default gives the unscaled (1 - t^2) * poly_q(t^2)
    of the closed form above.  s must be a float array of out's shape, and
    it is overwritten.  The polynomial is evaluated in the closed form's
    operation order, then max(1 - t^2, 0), times scale when scale != 1, is
    multiplied into it: the clamp is the support indicator, so a weight
    outside the support is a zero signed like its polynomial.  Inside the
    support, poly * (C_q * (1 - t^2)) is the product the closed form gives,
    bit for bit.
    """
    if q == 2:
        u = out  # the polynomial is 1
    else:
        u = s
        if q == 4:
            np.multiply(s, 7.0 / 3.0, out=out)
            np.subtract(1.0, out, out=out)  # 1 - 7 t^2 / 3
        else:
            r = (33.0 / 5.0) * s
            r *= s
            np.multiply(s, 6.0, out=out)
            np.subtract(1.0, out, out=out)
            out += r  # 1 - 6 t^2 + 33 t^4 / 5
    np.subtract(1.0, s, out=u)
    np.maximum(u, 0.0, out=u)
    if scale != 1.0:
        u *= scale
    if u is not out:
        out *= u
    return out


def kernel_moment(config: KernelConfig, multi_index) -> float:
    """int u^multi_index K(u) du, one quadrature per coordinate.

    Missing trailing exponents count as zero (their factors integrate to 1).
    """
    exps = [int(l) for l in np.atleast_1d(multi_index)]
    if any(l < 0 for l in exps):
        raise ValueError("exponents must be nonnegative")
    if len(exps) > config.p:
        raise ValueError("multi-index longer than the covariate dimension")
    value, k_t, c_q = 1.0, np.empty(1), _CONSTANTS[config.q]
    for l in exps:
        value *= _quad(lambda t, l=l: t**l * float(_kernel_1d(config.q, np.array([t * t]), k_t, c_q)[0]),
                       -1.0, 1.0, 1e-13, f"kernel moment of order {l}")
    return value


def _fill_block(block, Zt, at, config: KernelConfig, t, k_buf) -> None:
    """block[i, j] = prod_k (1 - t^2) poly_q(t^2), t = Zt[k, j] - at[i, k]: K / C_q^p, unscaled.

    Zt and at hold the covariates already divided by h, so t is the scaled
    difference.  t and k_buf are scratch of block's shape.  The p factors
    are multiplied in coordinate order, as a whole-matrix loop over the
    coordinates would multiply them: the difference, its square, five
    passes of the order-4 kernel (_kernel_1d) and the product make 8 array
    passes per coordinate, 7 for the first, which writes into block itself.
    """
    for k in range(config.p):
        np.subtract(Zt[k], at[:, k, None], out=t)
        t *= t
        if k == 0:
            _kernel_1d(config.q, t, out=block)
        else:
            block *= _kernel_1d(config.q, t, out=k_buf)


def weights_matrix(Z: np.ndarray, config: KernelConfig, rhs: np.ndarray) -> np.ndarray:
    """The kernel sums K @ rhs, K the (n, n) weights of the sample about itself.

    Entry (i, j) of K is K((z_j - z_i)/h) and rhs is an (n, k) matrix; the
    result is (n, k).  Only sums are returned: the estimator reads nothing
    else, and no (n, n) array is made.  It is named for the weights K
    because perfbench traces it by this name, as estimators.weights_matrix,
    for the kernel stage of a replicate.

    For p = 1, order 2 and a finite bandwidth the sums come from windows of
    the sorted z (_window_sums): O(n log n) time and O(n k) memory, as
    accurate as the symmetric pass (see the module docstring).  Every other
    config takes one pass over the upper triangle of K (_symmetric_sums),
    on the covariates divided by h, t = z_j/h - z_i/h.  Its entries are the
    unscaled products K / C_q^p, and the sums are multiplied by C_q^p once,
    at the end.  K is symmetric bit for bit (z_i/h - z_j/h is exactly
    -(z_j/h - z_i/h), and each order reads only t^2), so the panel of rows
    s..s+b, over columns s..n-1, adds block @ rhs[s:] to its own rows and
    block[:, b:].T @ rhs[s:s+b] to the later ones.  Each entry is the one
    the full unscaled matrix holds; only the order of the sums differs.
    The kernel is evaluated about n^2/2 times, and memory is the (n, k)
    result, one (n, k) buffer, the (p, n) scaled covariates and three
    buffers of about _BLOCK_BYTES.

    An infinite bandwidth needs no branch in the symmetric pass: every
    scaled covariate is then 0, so every weight is K(0)^p, and a finite sum
    over n h^p is 0.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    if Z.shape[1] != config.p:
        raise ValueError("covariate dimensions do not match the kernel config")
    n = Z.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 2 or rhs.shape[0] != n:
        raise ValueError(f"rhs must be an ({n}, k) matrix")
    if config.p == 1 and config.q == 2 and math.isfinite(config.h_band):
        return _window_sums(Z[:, 0], config.h_band, rhs)
    return _symmetric_sums(Z, config, rhs)


def _symmetric_sums(Z, config: KernelConfig, rhs: np.ndarray) -> np.ndarray:
    """K @ rhs from the upper triangle of K, one panel of rows at a time."""
    n, p = Z.shape
    Zt = np.divide(Z.T, config.h_band, out=np.empty((p, n)))  # rows of one coordinate, over h
    out = np.zeros((n, rhs.shape[1]))
    below = np.empty_like(out)  # the panel's contribution to later rows
    # block, t and k scratch; a panel of b rows and w = n - s columns has
    # b = _BLOCK_BYTES / (8 w) rows, so panels grow taller as w shrinks
    bufs = np.empty((3, max(_BLOCK_BYTES // 8, n)))
    s = 0
    while s < n:
        w = n - s
        b = min(w, max(1, _BLOCK_BYTES // (8 * w)))
        block, t, k_buf = (buf[: b * w].reshape(b, w) for buf in bufs)
        _fill_block(block, Zt[:, s:], Zt[:, s : s + b].T, config, t, k_buf)
        out[s : s + b] += block @ rhs[s:]
        rest = below[: w - b]
        np.matmul(block[:, b:].T, rhs[s : s + b], out=rest)
        out[s + b :] += rest
        s += b
    out *= math.prod([_CONSTANTS[config.q]] * p)  # C_q^p, multiplied in coordinate order
    return out


def _window_sums(z: np.ndarray, h: float, rhs: np.ndarray) -> np.ndarray:
    """K @ rhs for p = 1, order 2 and a finite h, from windows of the sorted z.

    On the window |z_j - z_i| < h, K = (3/4)(1 - (u_j - a_i)^2) with
    u_j = (z_j - c)/h and a_i = (z_i - c)/h about any centre c, so the sum
    at i is (3/4)[(1 - a_i^2) S0 + 2 a_i S1 - S2], Sm the sums of u^m rhs
    over the window, each a difference of two prefix sums.  Three things
    keep that as accurate as the symmetric pass:
      - Block-local centres.  About one global centre the three terms cancel
        where |z|/h is large.  So the sorted z is cut into blocks of width h,
        each with its own centre c (the midpoint of its z range, so that
        z_j - c is exact where |z| is large) and its own segment: the union
        of its points' windows, about 3h wide.  Then |a| <= 1/2 and
        |u| <= 3/2.
      - Short prefixes.  A prefix runs over one segment only, so it rounds
        with that segment's mass, not the whole sample's.  The segments are
        laid end to end, each led by a reset row holding minus the previous
        segment's total, so one cumsum serves them all; a reset leaves the
        running sum at a rounding residual, which a difference cancels.
      - Compensated prefixes.  The rounding errors of a cumsum are shared by
        neighbouring windows, so they do not average out of the estimator's
        mean over points.  Each is recovered exactly (TwoSum on the prefix
        cumsum computed, one addition at a time) and their own cumsum is
        added back.
    A point is in about 3 segments, so time and memory are O(n k) beyond the
    O(n log n) sort.

    A window's ends are read from z_i -/+ h as rounded; a point that rounding
    admits or drops lies within rounding of distance h, where its weight is
    within rounding of 0.
    """
    n, k = rhs.shape
    if n == 0:
        return np.zeros((0, k))
    order = np.argsort(z)
    zs = z[order]
    lo = zs.searchsorted(zs - h, side="left")  # window of sorted point i: lo[i]..hi[i]-1
    hi = zs.searchsorted(zs + h, side="right")
    block = np.floor((zs - zs[0]) / h)
    bounds = np.flatnonzero(np.concatenate(([True], block[1:] != block[:-1], [True])))
    first, last = bounds[:-1], bounds[1:] - 1
    size = last - first + 1
    centre = 0.5 * (zs[first] + zs[last])
    seg_lo = lo[first]
    seg_len = hi[last] - seg_lo + 1  # the reset row, then the segment
    end = np.cumsum(seg_len)
    reset = end - seg_len
    j = np.arange(end[-1]) - np.repeat(reset + 1 - seg_lo, seg_len)  # the sorted point of each row
    j[reset] = seg_lo
    # moments m = 0, 1, 2 of each column, rows along the last axis
    ext = np.empty((3, k, end[-1]))
    np.take(rhs.T[:, order], j, axis=1, out=ext[0], mode="clip")  # "raise" would buffer `out`
    u = zs[j]
    u -= np.repeat(centre, seg_len)
    u /= h
    np.multiply(u, ext[0], out=ext[1])
    np.multiply(u, ext[1], out=ext[2])
    ext[..., reset] = 0.0
    total = np.add.reduceat(ext, reset, axis=2)
    ext[..., reset[1:]] = -total[..., :-1]
    prefix = np.cumsum(ext, axis=2)  # prefix[j] = prefix[j - 1] + ext[j], rounded
    prev, cur, x = prefix[..., :-1], prefix[..., 1:], ext[..., 1:]
    # TwoSum: the error of cur = prev + x is (x - b) + (prev - (cur - b)), b = cur - prev
    b = cur - prev
    x -= b
    np.subtract(cur, b, out=b)
    np.subtract(prev, b, out=b)
    x += b
    del b
    ext[..., 0] = 0.0
    np.cumsum(ext, axis=2, out=ext)
    ext += prefix
    del prefix
    row0 = np.repeat(reset - seg_lo, size)  # row of sorted point 0 in each point's segment
    S = ext[..., row0 + hi]
    S -= ext[..., row0 + lo]
    a = zs - np.repeat(centre, size)
    a /= h
    sums = (1.0 - a * a) * S[0]
    sums += 2.0 * a * S[1]
    sums -= S[2]
    sums *= 0.75
    out = np.empty((n, k))
    out[order] = sums.T
    return out
