"""Variance estimation and confidence intervals under network interference.

The asymptotic variance of the regression-adjusted estimator decomposes into
two group residual moments, a slope-contrast quadratic form in the covariate
covariance, and a network term b * pi * (1 - pi) * (derivative contrast)^2.
This module estimates each piece: the degree-ratio statistic b_hat from the
adjacency matrix, derivative contrasts through eigenvector-balanced exposure
weights, and the final assembly, plus the conservative 8 tau^2 alternative
and an incremental polynomial scheme for the nonparametric estimator's
variance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from ._blas import thread_budget
from ._errors import InvalidVarianceError, SingularDesignError
from .estimators import EstimateResult, linear_adjusted
from .graphon import Network, require_positive_degrees
from .trial import TrialData

__all__ = [
    "SpectralDecomposition",
    "VarianceReport",
    "estimate_b",
    "leading_eigenpairs",
    "pc_balancing_weights",
    "estimate_derivative_means",
    "variance_reg",
    "confidence_interval",
    "conservative_network_term",
    "variance_np_polyseq",
    "DENSE_EIG_THRESHOLD",
    "LANCZOS_TOL",
    "LEVEL",
]

# the coverage of every interval the commands and tables report
LEVEL = 0.95
DENSE_EIG_THRESHOLD = 300
# eigsh's relative accuracy goal on the Lanczos path (its default, 0, means
# machine precision); leading_eigenpairs states what it guarantees
LANCZOS_TOL = 1e-11
# stored entries from which the Lanczos products run by row blocks on several threads; the
# measured crossover is in leading_eigenpairs
_SPLIT_NNZ = 1 << 20
_BLOCKS_PER_THREAD = 8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Leading eigenpairs of a symmetric adjacency, ordered by |eigenvalue|."""

    eigenvalues: np.ndarray  # (r,)
    eigenvectors: np.ndarray  # (n, r), orthonormal columns

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]

    def residual_norms(self, network: Network) -> np.ndarray:
        """||A psi_k - lambda_k psi_k|| for each retained pair."""
        av = network.adjacency @ self.eigenvectors
        return np.linalg.norm(av - self.eigenvectors * self.eigenvalues, axis=0)

    def operator_norm(self) -> float:
        """Spectral norm of the adjacency (largest retained |eigenvalue|)."""
        return float(np.abs(self.eigenvalues[0])) if self.rank else 0.0


@dataclass(frozen=True)
class VarianceReport:
    """The variance estimate and its four components."""

    v_hat: float
    components: tuple[float, float, float, float]


def estimate_b(network: Network) -> float:
    """Plug-in degree-ratio statistic: mean over i of (sum_j E_ij / N_j)^2."""
    require_positive_degrees(network)
    s = network.adjacency @ (1.0 / network.degrees)
    return float(np.mean(s * s))


def leading_eigenpairs(network: Network, r: int) -> SpectralDecomposition:
    """The r eigenpairs of the adjacency with largest absolute eigenvalues.

    Dense symmetric eigendecomposition up to DENSE_EIG_THRESHOLD = 300
    vertices (and whenever r >= n - 1); ARPACK Lanczos (``eigsh``, k=r,
    which="LM", tol=LANCZOS_TOL) above, which computes only the r pairs
    kept.  The threshold is the measured crossover: on paper-sec3 graphs
    with r=3, best of 7 on a 2-core Xeon, dense ``eigh`` takes 10-11 / 31 /
    143-161 / 1061 ms at n = 300 / 500 / 1000 / 2000 against 11-12 / 16-18
    / 50-52 / 202 ms for Lanczos at tol=0.  Either path must satisfy the
    residual invariant ||A psi - lambda psi|| <= 1e-6 ||A||; a graph
    without edges returns eigenvalues 0 with the first r unit vectors on
    both paths.

    LANCZOS_TOL = 1e-11 stops ARPACK once each Ritz pair's residual
    estimate is at most 1e-11 |lambda_k|, so a Lanczos residual is about
    1e-11 |lambda_1| at most, five orders inside the invariant (measured:
    below 0.12e-11 |lambda_1|).  The PC-balancing weights need only the
    span of the r eigenvectors: on paper-sec3 graphs (40 at n=1000, 4 at
    n=4000) they moved from the tol=0 pairs by at most 1.8e-11 relative,
    and the derivative means by at most 5.1e-11.

    The Lanczos start vector is a fixed-seed Gaussian, drawn from its own
    generator (never the caller's, so no later draw moves).  The constant
    vector is not used: a graph symmetry makes some eigenvectors
    antisymmetric, hence orthogonal to it, and Lanczos never sees a
    direction its start vector lacks -- on a 2050-vertex path it missed
    -lambda_1 and returned |lambda| = 1.9999977, 1.9999906, 1.9999789 where
    the top three are +-1.9999977 and 1.9999906.

    Known limit: single-vector Lanczos sees one direction per distinct
    eigenvalue and finds further copies of a repeated eigenvalue only
    through rounding, so on graphs with repeated top eigenvalues (cycles,
    tori) a copy can be missed and a smaller eigenvalue returned in its
    place.  Sampled graphon graphs have simple spectra almost surely.

    From _SPLIT_NNZ = 2**20 stored entries, and with a thread budget T >= 2,
    each Lanczos product A @ x runs on T threads: the rows are cut into 8T
    blocks of equal stored-entry counts, and the caller and T - 1 helper
    threads each take the next untaken block until none is left
    (``_split_matvec``; sparsetools releases the GIL).  A row's sum is the
    same loop in the same order as in A @ x, so every product, and with it
    every eigenpair and seeded summary, is bit-identical to the one-thread
    path.  T is the thread count of scipy's bundled OpenBLAS, the BLAS that
    ARPACK calls, capped at the cores the process may use; it follows
    ``OPENBLAS_NUM_THREADS``, a ``run_scenario`` pool child gets its share
    of the cores, and T = 1 where that library is not found.  The threshold
    is the measured crossover: paper-sec3 graphs with r=3, 2-core Xeon, T=2,
    medians of 8 alternations, one thread against split, took 42 / 58 ms at
    n = 1000 (0.17M entries), 128 / 148 at n = 2000 (0.60M), 253 / 242 at
    n = 2500 (0.93M, split won 5 of 8), 600 / 359 at n = 3000 (1.26M) and
    753 / 494 at n = 4000 (2.02M).  Blocks are taken, not assigned, because
    a helper can wake late: with one block per thread and the caller
    waiting on its helper, n = 4000 took 1.8-2.4 s against 1.1-1.2 s on
    one thread in two runs while the VM lost about 10% of its time to
    other tenants; on a quiet VM the two ways ran alike (0.49 against
    0.46 s, one thread 0.73 s), and so did 2, 4 and 8 blocks per thread
    (0.47 / 0.46 / 0.46 s).

    ``scipy.sparse.linalg`` (with ``scipy.linalg``) is imported on the first
    Lanczos call, not by ``import netate``: it adds about 0.08 s and 8 MB
    to a start-up that needs neither.  A process pays that once, but each
    pool child of ``run_scenario(..., workers>1)`` whose parent never ran
    Lanczos pays it again on every call.
    """
    n = network.n
    if not 1 <= r <= n:
        raise ValueError(f"rank r must lie in 1..{n}")
    if n <= DENSE_EIG_THRESHOLD or r >= n - 1:
        vals, vecs = np.linalg.eigh(network.adjacency.toarray())
        order = np.argsort(-np.abs(vals), kind="stable")[:r]
    elif network.adjacency.nnz == 0:
        # ARPACK rejects the zero matrix; this is what the dense path returns
        return SpectralDecomposition(eigenvalues=np.zeros(r), eigenvectors=np.eye(n, r))
    else:
        threads = thread_budget() if network.adjacency.nnz >= _SPLIT_NNZ else 1
        vals, vecs = _lanczos(network.adjacency, r, threads)
        order = np.argsort(-np.abs(vals), kind="stable")
    return SpectralDecomposition(eigenvalues=vals[order], eigenvectors=vecs[:, order])


def _row_blocks(adjacency, parts: int) -> list[tuple]:
    """`parts` CSR row blocks of `adjacency` with about equal stored-entry counts.

    A block is (first row, end row, indptr, indices, data): `indices` and `data` are views of
    the adjacency's, and only `indptr`, shifted to start at 0, is new.  A block may hold no rows.
    """
    indptr = adjacency.indptr
    cuts = np.searchsorted(indptr, np.arange(parts + 1) * (adjacency.nnz / parts))
    cuts[0], cuts[-1] = 0, adjacency.shape[0]
    return [
        (a, b, indptr[a:b + 1] - indptr[a], adjacency.indices[indptr[a]:indptr[b]],
         adjacency.data[indptr[a]:indptr[b]])
        for a, b in zip(cuts[:-1], cuts[1:])
    ]


def _split_matvec(adjacency, threads: int, pool):
    """x -> adjacency @ x, its row blocks shared out between the caller and threads - 1 helpers.

    `pool` runs the helpers.  Each thread takes the next untaken block until none is left, so a
    helper that wakes late costs no wait: the caller takes its blocks and cancels it if it never
    started.  Each row's sum is the loop and order of ``adjacency @ x``, so the product equals
    it bit for bit.
    """
    from scipy.sparse._sparsetools import csr_matvec  # the loop of A @ x; it releases the GIL

    blocks = _row_blocks(adjacency, _BLOCKS_PER_THREAD * threads)
    n_row, n_col = adjacency.shape

    def matvec(x):
        y = np.zeros(n_row)
        todo = iter(blocks)

        def drain():
            for a, b, indptr, indices, data in todo:  # next() is one call under the GIL
                csr_matvec(b - a, n_col, indptr, indices, data, x, y[a:b])

        helpers = [pool.submit(drain) for _ in range(threads - 1)]
        drain()
        for helper in helpers:
            if not helper.cancel():
                while not helper.done():  # its last block is short: poll, keeping this core awake
                    time.sleep(0)
                helper.result()
        return y

    return matvec


def _lanczos(adjacency, r: int, threads: int) -> tuple[np.ndarray, np.ndarray]:
    """``eigsh``'s r largest-|lambda| pairs; with threads >= 2, through `_split_matvec`.

    The helper pool lives only for this call: a ``run_scenario`` pool child forked later must
    not inherit its threads.
    """
    import scipy.sparse.linalg as spla  # deferred: see leading_eigenpairs

    v0 = np.random.default_rng(0).standard_normal(adjacency.shape[0])
    if threads < 2:
        return spla.eigsh(adjacency, k=r, which="LM", v0=v0, tol=LANCZOS_TOL)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        op = spla.LinearOperator(adjacency.shape, matvec=_split_matvec(adjacency, threads, pool),
                                 dtype=adjacency.dtype)
        return spla.eigsh(op, k=r, which="LM", v0=v0, tol=LANCZOS_TOL)


def pc_balancing_weights(
    network: Network,
    spectral: SpectralDecomposition | None,
    W: np.ndarray,
    pi: float,
) -> np.ndarray:
    """Exposure-contrast weights with the leading eigen-directions removed.

    Starts from v_i = M_i/pi - (N_i - M_i)/(1 - pi) and adds the eigenvector
    combination that zeroes every psi_k' w constraint; with orthonormal
    eigenvectors the coefficients are a_k = -psi_k' v in closed form, which
    also makes the result invariant to eigenvector sign flips.
    """
    require_positive_degrees(network)
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie in (0, 1)")
    w = np.asarray(W, dtype=float)
    m = network.treated_neighbor_counts(w)
    v = m / pi - (network.degrees - m) / (1.0 - pi)
    if spectral is None or spectral.rank == 0:
        return v
    psi = spectral.eigenvectors
    return v - psi @ (psi.T @ v)


def estimate_derivative_means(data: TrialData, weights: np.ndarray) -> tuple[float, float]:
    """Balanced-weight estimates of the mean exposure derivatives per arm, at the design pi = data.pi."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] != data.n:
        raise ValueError("weights length does not match data")
    w = data.W.astype(float)
    d1 = float((w * data.Y * weights).sum() / (data.n * data.pi))
    d0 = float(((1.0 - w) * data.Y * weights).sum() / (data.n * (1.0 - data.pi)))
    return d1, d0


def variance_reg(
    data: TrialData,
    linear_fit: EstimateResult,
    b_hat: float,
    deriv1: float,
    deriv0: float,
) -> VarianceReport:
    """Assemble the four-component variance estimate for the adjusted estimator.

    Components: treated residual mean square over pi, control residual mean
    square over (1 - pi), slope-contrast quadratic form in the empirical
    covariate covariance, and b_hat pi (1 - pi) (deriv1 - deriv0)^2, where
    pi is the design probability data.pi.
    """
    beta1 = linear_fit.diagnostics.get("beta1")
    beta0 = linear_fit.diagnostics.get("beta0")
    if beta1 is None or beta0 is None:
        raise ValueError("linear_fit must carry beta1/beta0 diagnostics")
    treated = data.W == 1
    control = ~treated
    X = np.column_stack([np.ones(data.n), data.Z])
    r1 = data.Y[treated] - X[treated] @ beta1
    r0 = data.Y[control] - X[control] @ beta0
    c1 = float((r1 * r1).mean() / data.pi)
    c2 = float((r0 * r0).mean() / (1.0 - data.pi))
    d = beta1[1:] - beta0[1:]
    zbar = data.Z.mean(axis=0)
    cov = data.Z.T @ data.Z / data.n - np.outer(zbar, zbar)
    c3 = float(d @ cov @ d)
    c4 = float(b_hat * data.pi * (1.0 - data.pi) * (deriv1 - deriv0) ** 2)
    return VarianceReport(v_hat=c1 + c2 + c3 + c4, components=(c1, c2, c3, c4))


def confidence_interval(
    tau_hat: float, v_hat: float, n: int, level: float = LEVEL
) -> tuple[float, float]:
    """Symmetric normal interval tau_hat -+ z sqrt(v_hat / n)."""
    if v_hat < 0:
        raise InvalidVarianceError(f"variance estimate must be nonnegative, got {v_hat}")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    half = ndtri(0.5 + level / 2.0) * math.sqrt(v_hat / n)
    return float(tau_hat - half), float(tau_hat + half)


def conservative_network_term(tau_hat: float) -> float:
    """8 tau_hat^2, the conservative stand-in for b (derivative contrast)^2."""
    return 8.0 * tau_hat * tau_hat


def _poly_design(Z: np.ndarray, degree: int) -> np.ndarray:
    """Per-coordinate monomials z_k^1 .. z_k^degree, no cross terms."""
    if degree == 0:
        return np.empty((Z.shape[0], 0))
    blocks = []
    for k in range(Z.shape[1]):
        col = Z[:, k]
        blocks.append(np.column_stack([col**d for d in range(1, degree + 1)]))
    return np.hstack(blocks)


def variance_np_polyseq(
    data: TrialData,
    b_hat: float,
    derivs: tuple[float, float],
    max_degree: int = 5,
    rel_tol: float = 0.05,
) -> VarianceReport:
    """Variance for the nonparametric estimator via growing polynomial fits.

    Evaluates the four-component variance with per-coordinate monomials
    z_k, ..., z_k^d (no cross terms) for d = 0, 1, 2, ... and stops once the
    value stabilizes (relative change below rel_tol), the expansion becomes
    ill-conditioned, or max_degree is reached.  Returns the VarianceReport
    of the last degree fitted, or on stabilization of the degree before it
    (slightly conservative), so rel_tol = inf returns the degree-0 report.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    deriv1, deriv0 = derivs
    reports: list[VarianceReport] = []
    for degree in range(max_degree + 1):
        expanded = replace(data, Z=_poly_design(data.Z, degree))
        try:
            fit = linear_adjusted(expanded)
        except SingularDesignError:
            if degree == 0:
                raise
            break
        reports.append(variance_reg(expanded, fit, b_hat, deriv1, deriv0))
        if degree >= 1:
            prev, last = reports[-2].v_hat, reports[-1].v_hat
            if abs(last - prev) <= rel_tol * max(abs(prev), 1e-300):
                return reports[-2]
    return reports[-1]
