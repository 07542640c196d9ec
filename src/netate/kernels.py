"""Higher-order Epanechnikov product kernels and local smoothing primitives.

Conventions:
  - one-dimensional kernels on |t| <= 1, zero outside:
      order 2:  (3/4)(1 - t^2)
      order 4:  (45/32)(1 - t^2)(1 - 7 t^2 / 3)
      order 6:  (525/256)(1 - t^2)(1 - 6 t^2 + 33 t^4 / 5)
  - the p-dimensional kernel is the coordinate product, supported on the
    unit max-norm cube;
  - density / regression estimates scale by 1/(n h^p) with bandwidth h.

Orders 4 and 6 take negative values, so density estimates built from them
are returned signed, exactly as the trimming indicator consumes them.

The (m, n) weights matrix is filled a block of rows at a time through two
scratch buffers of about _BLOCK_BYTES each, so no n x n temporary is made.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from ._errors import EmptyWindowError, UnsupportedDimensionError

__all__ = [
    "KernelConfig",
    "kernel_order_for_dimension",
    "kernel_eval",
    "kernel_moment",
    "density_estimate",
    "group_density_estimates",
    "local_constant",
]

_ORDERS = (2, 4, 6)
# bytes per scratch buffer of weights_matrix: each row block is about this
# size, so the buffers stay in L2; on a 2-core Xeon, 64-512 KiB timed the
# same within noise and 128 KiB was fastest
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
            warnings.warn(
                f"bandwidth {self.h_band:g} below trim threshold {self.b_trim:g}; "
                f"trimming may discard much of the sample",
                stacklevel=2,
            )


def _kernel_1d(q: int, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The order-q kernel at every entry of t, written into `out`.

    With `out` given, t must be a float array of the same shape, and it may
    be overwritten (orders 4 and 6 use it as scratch); without `out`, t is
    copied and a fresh array returned.  Each operation is the one of the
    closed form above, in the same order, so every entry, signed zeros
    included, is bit for bit what the whole-array expression gives.
    """
    if q not in _ORDERS:
        raise ValueError(f"unsupported kernel order {q}")
    if out is None:
        t = np.array(t, dtype=float)
        out = np.empty_like(t)
    np.multiply(t, t, out=out)  # t^2
    if q == 2:
        # mask-free: (1 - t^2) clipped at 0 doubles as the support indicator
        np.subtract(1.0, out, out=out)
        np.maximum(out, 0.0, out=out)
        out *= 0.75
        return out
    u = t  # t is spent; its buffer holds u = 1 - t^2
    if q == 4:
        np.subtract(1.0, out, out=u)
        out *= 7.0 / 3.0
        np.subtract(1.0, out, out=out)  # 1 - 7 t^2 / 3
    else:
        r = (33.0 / 5.0) * out
        r *= out
        np.subtract(1.0, out, out=u)
        out *= 6.0
        np.subtract(1.0, out, out=out)
        out += r  # 1 - 6 t^2 + 33 t^4 / 5
    u *= 45.0 / 32.0 if q == 4 else 525.0 / 256.0
    out *= u
    # the scaled u is positive exactly where u is (u > 0 means u >= 2^-53),
    # and multiplying by the 0/1 indicator keeps the sign of a masked zero
    np.greater(u, 0.0, out=u)
    out *= u
    return out


def kernel_eval(config: KernelConfig, u) -> float:
    """Product kernel at a p-vector u; zero outside the unit max-norm cube."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (config.p,):
        raise ValueError(f"u must be a {config.p}-vector")
    return float(np.prod(_kernel_1d(config.q, u)))


def kernel_moment(config: KernelConfig, multi_index) -> float:
    """int u^multi_index K(u) du, one quadrature per coordinate.

    Missing trailing exponents count as zero (their factors integrate to 1).
    """
    exps = [int(l) for l in np.atleast_1d(multi_index)]
    if any(l < 0 for l in exps):
        raise ValueError("exponents must be nonnegative")
    if len(exps) > config.p:
        raise ValueError("multi-index longer than the covariate dimension")
    value = 1.0
    for l in exps:
        m, _ = integrate.quad(
            lambda t, l=l: t**l * float(_kernel_1d(config.q, np.array([t]))[0]),
            -1.0,
            1.0,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=200,
        )
        value *= m
    return value


def _query_weights(Z: np.ndarray, z, config: KernelConfig) -> np.ndarray:
    """K((z_j - z)/h) for every sample row j."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (config.p,):
        raise ValueError("covariate dimensions do not match the kernel config")
    return weights_matrix(Z, config, at=z[None, :])[0]


def weights_matrix(Z: np.ndarray, config: KernelConfig, at=None) -> np.ndarray:
    """Kernel weights around query points; entry (i, j) is K((z_j - at_i)/h).

    `at` is an (m, p) matrix of query points, Z itself by default.  This is
    the one evaluation routine: the single-point functions below take their
    one row from it.  An infinite bandwidth needs no branch: every scaled
    difference is then 0, so every weight is K(0)^p, and a finite sum over
    n h^p is 0.

    Rows are filled a block at a time, each block's p factors passing
    through two scratch buffers that every block reuses, so memory is the
    (m, n) result plus O(_BLOCK_BYTES) scratch.  Every entry is the product
    K_1 * ... * K_p of its 1-D factors in coordinate order, as a
    whole-matrix loop over the coordinates would compute it.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    at = Z if at is None else np.asarray(at, dtype=float)
    if Z.shape[1] != config.p or at.ndim != 2 or at.shape[1] != config.p:
        raise ValueError("covariate dimensions do not match the kernel config")
    m, n = at.shape[0], Z.shape[0]
    out = np.empty((m, n))
    rows = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    Zt = np.ascontiguousarray(Z.T)
    t_buf = np.empty((min(rows, m), n))
    k_buf = np.empty_like(t_buf)
    for start in range(0, m, rows):
        block = out[start : start + rows]
        b = block.shape[0]
        for k in range(config.p):
            t = t_buf[:b]
            np.subtract(Zt[k], at[start : start + b, k, None], out=t)
            t /= config.h_band
            if k == 0:
                _kernel_1d(config.q, t, out=block)  # 1.0 * K_1 is K_1
            else:
                block *= _kernel_1d(config.q, t, out=k_buf[:b])
    return out


def density_estimate(Z: np.ndarray, z, config: KernelConfig) -> float:
    """(1/(n h^p)) sum_j K((z_j - z)/h); signed for orders above 2."""
    w = _query_weights(Z, z, config)
    return float(w.sum() / (w.shape[0] * config.h_band**config.p))


def group_density_estimates(
    Z: np.ndarray, W: np.ndarray, z, config: KernelConfig, pi_hat: float
) -> tuple[float, float]:
    """Treated- and control-weighted density estimates at z."""
    if not 0.0 < pi_hat < 1.0:
        raise ValueError("pi_hat must lie strictly inside (0, 1)")
    w = _query_weights(Z, z, config)
    W = np.asarray(W, dtype=float)
    scale = w.shape[0] * config.h_band**config.p
    p1 = float((w * W).sum() / (scale * pi_hat))
    p2 = float((w * (1.0 - W)).sum() / (scale * (1.0 - pi_hat)))
    return p1, p2


def local_constant(
    Z: np.ndarray, Y: np.ndarray, W: np.ndarray, z, config: KernelConfig, group: str
) -> float:
    """Kernel-weighted group mean of Y at z (constant-fit regression)."""
    if group not in ("treated", "control"):
        raise ValueError("group must be 'treated' or 'control'")
    w = _query_weights(Z, z, config)
    W = np.asarray(W, dtype=float)
    g = W if group == "treated" else 1.0 - W
    den = float((w * g).sum())
    if den == 0.0:
        raise EmptyWindowError(f"no {group} kernel mass at the query point")
    return float((w * g * np.asarray(Y, dtype=float)).sum() / den)
