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

from ._blas import one_numpy_thread, thread_budget
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
    "Z_LEVEL",
    "POLYSEQ_MAX_DEGREE",
    "POLYSEQ_REL_TOL",
]

# the coverage of every interval the commands and tables report, and its quantile ndtri(0.5 + LEVEL / 2)
LEVEL = 0.95
Z_LEVEL = 1.959963984540054
# polyseq's stop rule: the highest polynomial degree, and the relative change that stops it
POLYSEQ_MAX_DEGREE = 5
POLYSEQ_REL_TOL = 0.05
DENSE_EIG_THRESHOLD = 300
# eigsh's relative accuracy goal on the Lanczos path (its default, 0, means machine
# precision): the bound of the residual contract, which leading_eigenpairs states
LANCZOS_TOL = 1e-6
# stored entries from which the Lanczos products run by row blocks on several threads; the
# measured crossover is in leading_eigenpairs
_SPLIT_NNZ = 1 << 20
_BLOCKS_PER_THREAD = 8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Leading eigenpairs of a symmetric adjacency, ordered by |eigenvalue|."""

    eigenvalues: np.ndarray  # (r,)
    eigenvectors: np.ndarray  # (n, r), orthonormal columns

    def residual_norms(self, network: Network) -> np.ndarray:
        """||A psi_k - lambda_k psi_k|| for each retained pair."""
        av = network.adjacency @ self.eigenvectors
        return np.linalg.norm(av - self.eigenvectors * self.eigenvalues, axis=0)

    def operator_norm(self) -> float:
        """Spectral norm of the adjacency (largest retained |eigenvalue|)."""
        return float(np.abs(self.eigenvalues[0])) if self.eigenvalues.size else 0.0


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
    kept.  The threshold is not the crossover: on paper-sec3 graphs with
    r=3, one BLAS thread, medians of 3 graphs x 5 on a 2-core Xeon, dense
    ``eigh`` takes 3.9 / 6.3 / 9.0 / 25 ms at n = 200 / 250 / 300 / 400
    against 3.1 / 5.1 / 4.4 / 10 ms for Lanczos at tol=1e-11 and 2.0 / 3.0 /
    3.0 / 6.2 ms at LANCZOS_TOL.  It stays at 300 because a lower one would
    move the seeded results of the sizes it hands over and expose them to
    the repeated-eigenvalue limit below.  Either path must satisfy the
    residual contract ||A psi - lambda psi|| <= 1e-6 ||A||; a graph without
    edges returns eigenvalues 0 with the first r unit vectors on both paths.

    The dense ``eigh`` runs on one thread of numpy's bundled OpenBLAS
    (``_blas.one_numpy_thread``), whatever the thread budget, so its
    eigenpairs, and every seeded summary, are bit-identical at any worker
    count and any ``OPENBLAS_NUM_THREADS``: on two threads LAPACK returned
    eigenvectors whose last bits differ from the one-thread result, which
    moved variance fields by up to 1.7e-13 relative.  The cost is small:
    one thread took 5.0 ms against 5.3 on two at n = 236, and 10.5 against
    9.5 ms at n = 300 (medians of 60 alternations, 2-core Xeon).

    LANCZOS_TOL = 1e-6 is the contract's own bound: ARPACK stops once each
    Ritz pair's residual estimate is at most 1e-6 |theta_k| <= 1e-6 ||A||
    (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998), so the
    contract holds by construction; the largest residual measured is
    1.1e-7 |lambda_1|.  The estimate needs no more: the PC-balancing
    weights use only the span of the r eigenvectors, and on paper-sec3
    graphs the third pair sits among near-equal eigenvalues of the noise
    bulk, where most of the products went.  On 33 paper-sec3 trials with
    r=3 (10 at n=500, 15 at n=1000, 8 at n=4000) Lanczos took 84-115 /
    83-144 / 97-217 products against 116-210 / 145-237 / 173-338 at
    tol=1e-11 (34-40% fewer in the median); against those pairs the top
    eigenvalues moved by at most 1.0e-12 |lambda_1|, the weights by 2.5e-6
    of their largest, d1 - d0 by 3.5e-6 relative and the network term by
    7.0e-6 relative, five orders below its Monte Carlo sd (about 1.4 times
    its mean on Table 1).

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
    place.  At LANCZOS_TOL that happens on all 56 of 56 runs (cycles with
    n = 401, 555, 601, 777, 1001 and tori 21^2, 25^2, Gaussian starts of
    seeds 0-7: the top three |lambda| off from ``eigvalsh`` by 3e-5 or
    more), against 42 of 56 at tol=1e-11; asking ``eigsh`` for r + 1 pairs
    misses on all 56 too.  Sampled graphon graphs have simple spectra
    almost surely.

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
        with one_numpy_thread():  # its bits would vary with the thread count; see above
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
    network: Network, spectral: SpectralDecomposition, W: np.ndarray, pi: float
) -> np.ndarray:
    """Exposure-contrast weights with the leading eigen-directions removed.

    Starts from v_i = M_i/pi - (N_i - M_i)/(1 - pi) and adds the eigenvector
    combination that zeroes every psi_k' w constraint; with orthonormal
    eigenvectors the coefficients are a_k = -psi_k' v in closed form, which
    also makes the result invariant to eigenvector sign flips.  A
    decomposition of rank 0 removes nothing: v - psi (psi' v) is v exactly.
    """
    require_positive_degrees(network)
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie in (0, 1)")
    w = np.asarray(W, dtype=float)
    m = network.treated_neighbor_counts(w)
    v = m / pi - (network.degrees - m) / (1.0 - pi)
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


def variance_reg(data: TrialData, linear_fit: EstimateResult, network_term: float) -> VarianceReport:
    """Assemble the four-component variance estimate for the adjusted estimator.

    Components: treated residual mean square over pi, control residual mean
    square over (1 - pi), slope-contrast quadratic form in the empirical
    covariate covariance (pi is the design probability data.pi), and the
    network term as given: b_hat pi (1 - pi) (d1_hat - d0_hat)^2 for the
    spectral and polyseq variances, pi (1 - pi) 8 tau_hat^2 for the
    conservative one, 0 without interference.
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
    c4 = float(network_term)
    return VarianceReport(v_hat=c1 + c2 + c3 + c4, components=(c1, c2, c3, c4))


def confidence_interval(tau_hat: float, v_hat: float, n: int) -> tuple[float, float]:
    """Symmetric normal interval tau_hat -+ Z_LEVEL sqrt(v_hat / n), at LEVEL."""
    if v_hat < 0:
        raise InvalidVarianceError(f"variance estimate must be nonnegative, got {v_hat}")
    if n < 1:
        raise ValueError("n must be >= 1")
    half = Z_LEVEL * math.sqrt(v_hat / n)
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


def variance_np_polyseq(data: TrialData, network_term: float) -> VarianceReport:
    """Variance for the nonparametric estimator via growing polynomial fits.

    Evaluates the four-component variance (variance_reg, with the same
    network term at every degree) with per-coordinate monomials
    z_k, ..., z_k^d (no cross terms) for d = 0, 1, 2, ... and stops once the
    value stabilizes (relative change at most POLYSEQ_REL_TOL), the expansion
    becomes ill-conditioned, or POLYSEQ_MAX_DEGREE is reached.  Returns the
    VarianceReport of the last degree fitted, or on stabilization of the
    degree before it (slightly conservative).
    """
    reports: list[VarianceReport] = []
    for degree in range(POLYSEQ_MAX_DEGREE + 1):
        expanded = replace(data, Z=_poly_design(data.Z, degree))
        try:
            fit = linear_adjusted(expanded)
        except SingularDesignError:
            if degree == 0:
                raise
            break
        reports.append(variance_reg(expanded, fit, network_term))
        if degree >= 1:
            prev, last = reports[-2].v_hat, reports[-1].v_hat
            if abs(last - prev) <= POLYSEQ_REL_TOL * max(abs(prev), 1e-300):
                return reports[-2]
    return reports[-1]
