"""Graphon specifications, sparse random-graph sampling, and graphon integrals.

A graphon here is a symmetric function h on the unit square together with a
sparsity rule rho_n = scale * n**(-gamma).  Graphs are sampled by drawing one
latent U_i per vertex and connecting i and j with probability
min(rho_n * h(U_i, U_j), 1).  The sampler draws the pairs i < j in
row-major upper-triangle order, one block of rows at a time: its uniforms
are exactly those of one n(n-1)/2 draw, and its memory is the adjacency
plus O(_BLOCK_PAIRS).  The module also computes the population quantities
that the variance estimators target, by nested adaptive quadrature, so
tests and the simulation harness can use them as oracles.
"""

from __future__ import annotations

import ast
import csv
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from ._errors import IsolatedVertexError, QuadratureError, UnknownGraphonError

# upper-triangle pairs per block of sample_graph; a block holds
# max(1, _BLOCK_PAIRS // n) whole rows.  Medians of 15 paper-sec3 calls on a
# 2-core Xeon, two sweeps, with 8 / 32 / 128 / 512 K pairs: 20-21 / 15 / 11 /
# 14-16 ms at n=1000 and 279-306 / 191-223 / 190-195 / 245-251 ms at n=4000
_BLOCK_PAIRS = 128 * 1024

__all__ = [
    "GraphonSpec",
    "Network",
    "make_graphon",
    "rank_graphon",
    "sample_latents",
    "sample_graph",
    "graphon_b",
    "graphon_degree_profile",
]


@dataclass(frozen=True)
class GraphonSpec:
    """A symmetric graphon with its sparsity rule.

    Parameters
    ----------
    h : callable
        Vectorized symmetric function of two arrays in [0, 1].
    sparsity_exponent : float
        gamma >= 0 in rho_n = n**(-gamma); 0 means dense.
    rank_hint : int, optional
        Declared finite rank; a Scenario requires it and uses it as the
        spectral rank.
    lower_bound, upper_bound : float, optional
        Declared c_l <= inf_x int h(x, y) dy and c_u >= sup h; not checked.
    eigenvalues : optional
        Present only for rank-expansion specs: h = sum_k lam_k psi_k(x) psi_k(y)
        with orthonormal psi_k.
    """

    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sparsity_exponent: float = 0.25
    rank_hint: int | None = None
    lower_bound: float | None = None
    upper_bound: float | None = None
    name: str = "custom"
    eigenvalues: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.sparsity_exponent < 0:
            raise ValueError("sparsity_exponent must be >= 0")

    def edge_density(self, n: int) -> float:
        """rho_n for a graph on n vertices."""
        return float(n) ** (-self.sparsity_exponent)


def _csr_index_dtype(nnz: int, n: int) -> type:
    """The CSR index dtype of an n-vertex adjacency with nnz stored entries.

    int32 when every column index and row offset fits, else int64.  A matvec
    then streams 12 bytes per nonzero instead of 16, and scipy's CSR kernels
    sum in the same order for either dtype, so products are bit for bit equal.
    """
    return np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class Network:
    """An undirected simple graph with cached degrees.

    `adjacency` is a symmetric scipy CSR array with zero diagonal, float64
    data and int32 `indices`/`indptr`, int64 only when its nonzero count
    exceeds 2**31 - 1; `from_adjacency`, `from_edges` and `sample_graph` all
    give that index dtype.  `degrees` is int64, recomputable from the
    adjacency, and must match it exactly.  `latents` is populated only by the
    graph sampler (simulation mode) and is never read by estimators.
    """

    n: int
    adjacency: sp.csr_array
    degrees: np.ndarray
    latents: np.ndarray | None = field(default=None, compare=False)

    @classmethod
    def from_adjacency(cls, adjacency) -> "Network":
        a = sp.csr_array(adjacency, dtype=np.float64)
        idx = _csr_index_dtype(a.nnz, max(a.shape))
        # copies: the frozen Network must not share arrays the caller can write
        a = sp.csr_array((a.data.copy(), a.indices.astype(idx), a.indptr.astype(idx)), shape=a.shape)
        n = a.shape[0]
        if a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        if a.diagonal().any():
            raise ValueError("adjacency must have a zero diagonal")
        if (a != a.T).nnz != 0:
            raise ValueError("adjacency must be symmetric")
        degrees = np.asarray(a.sum(axis=1)).ravel().astype(np.int64)
        return cls(n=n, adjacency=a, degrees=degrees)

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Network":
        rows, cols = [], []
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed")
            rows += [i, j]
            cols += [j, i]
        data = np.ones(len(rows), dtype=np.float64)
        a = sp.csr_array(sp.coo_array((data, (rows, cols)), shape=(n, n)))
        a.data[:] = 1.0  # collapse duplicate edge listings
        return cls.from_adjacency(a)

    def neighbors(self, i: int) -> np.ndarray:
        start, stop = self.adjacency.indptr[i], self.adjacency.indptr[i + 1]
        return self.adjacency.indices[start:stop]

    def treated_neighbor_counts(self, w: np.ndarray) -> np.ndarray:
        """M_i = sum_j E_ij w_j."""
        return self.adjacency @ np.asarray(w, dtype=np.float64)

    def edge_array(self) -> np.ndarray:
        """(m, 2) array of edges with i < j."""
        coo = sp.coo_array(sp.triu(self.adjacency, k=1))
        order = np.lexsort((coo.col, coo.row))
        return np.column_stack([coo.row[order], coo.col[order]]).astype(np.int64)

    def to_edge_list_csv(self, path) -> None:
        """Write edges as 0-based "i,j" rows with i < j."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for i, j in self.edge_array():
                writer.writerow([int(i), int(j)])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _constant_h(c: float):
    def h(x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        if shape == ():
            return float(c)
        return np.full(shape, float(c))

    return h


def _quadratic_h(x, y):
    return x * x + y * y + x * y + 0.1


_EXPR_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                ast.Div: operator.truediv, ast.Pow: operator.pow}
_EXPR_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}
_EXPR_FUNCS = {f: getattr(np, f) for f in ("sin", "cos", "tan", "arcsin", "arccos", "arctan", "sinh",
                                           "cosh", "tanh", "exp", "log", "sqrt", "abs")}


def _parse_expr(expr: str) -> Callable[[np.ndarray], np.ndarray]:
    """A function of x from `expr`: numbers, x, + - * / **, unary -, and numpy functions.

    Anything else, another name included, is an UnknownGraphonError.  The
    result has x's shape, so a constant expression is broadcast.
    """
    try:
        tree = ast.parse(expr.strip(), mode="eval").body
    except SyntaxError:
        raise UnknownGraphonError(f"cannot parse expression {expr!r}") from None

    def build(node) -> Callable:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = float(node.value)
            return lambda x: value
        if isinstance(node, ast.Name):
            if node.id != "x":
                raise UnknownGraphonError(f"expression may only use 'x', got {node.id!r}")
            return lambda x: x
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINARY:
            op, left, right = _EXPR_BINARY[type(node.op)], build(node.left), build(node.right)
            return lambda x: op(left(x), right(x))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARY:
            op, arg = _EXPR_UNARY[type(node.op)], build(node.operand)
            return lambda x: op(arg(x))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _EXPR_FUNCS and len(node.args) == 1 and not node.keywords):
            fn, arg = _EXPR_FUNCS[node.func.id], build(node.args[0])
            return lambda x: fn(arg(x))
        raise UnknownGraphonError(f"unsupported term {ast.unparse(node)!r} in expression {expr!r}")

    f = build(tree)

    def psi(x):
        x = np.asarray(x, dtype=float)
        out = f(x)
        return out if isinstance(out, np.ndarray) and out.shape == x.shape else np.full(x.shape, out)

    return psi


def make_graphon(key: str, sparsity_exponent: float = 0.25) -> GraphonSpec:
    """Build a registered graphon.

    Keys: ``paper-sec3`` (x^2 + y^2 + xy + 0.1, rank 3), ``constant:<c>``,
    and ``rank1:<expr>`` where ``<expr>`` is a function of x defining
    h(x, y) = expr(x) * expr(y) (normalized internally to an orthonormal
    rank-1 expansion).
    """
    if key == "paper-sec3":
        # inf_x int h = 1/3 + 0.1 at x = 0; sup h = 3.1 at (1, 1)
        return GraphonSpec(
            h=_quadratic_h,
            sparsity_exponent=sparsity_exponent,
            rank_hint=3,
            lower_bound=13.0 / 30.0,
            upper_bound=3.1,
            name=key,
        )
    if key.startswith("constant:"):
        c = float(key.split(":", 1)[1])
        if c < 0:
            raise UnknownGraphonError("constant graphon requires c >= 0")
        return GraphonSpec(
            h=_constant_h(c),
            sparsity_exponent=sparsity_exponent,
            rank_hint=1,
            lower_bound=c,
            upper_bound=c,
            name=key,
            eigenvalues=(c,),
        )
    if key.startswith("rank1:"):
        from scipy import integrate  # deferred, like _quad
        psi_raw = _parse_expr(key.split(":", 1)[1])
        norm_sq, _ = integrate.quad(lambda t: psi_raw(t) ** 2, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        if norm_sq <= 0:
            raise UnknownGraphonError("rank1 expression must have positive L2 norm")
        scale = float(np.sqrt(norm_sq))
        psi = lambda x: psi_raw(x) / scale  # noqa: E731
        return rank_graphon(
            eigenvalues=[norm_sq],
            eigenfunctions=[psi],
            sparsity_exponent=sparsity_exponent,
            name=key,
        )
    raise UnknownGraphonError(f"unknown graphon key {key!r}")


def rank_graphon(
    eigenvalues: Sequence[float],
    eigenfunctions: Sequence[Callable],
    sparsity_exponent: float = 0.25,
    name: str = "rank-expansion",
) -> GraphonSpec:
    """Finite-rank graphon h(x, y) = sum_k lam_k psi_k(x) psi_k(y).

    Eigenvalues must be nonzero and ordered by decreasing absolute value;
    eigenfunctions are expected orthonormal on [0, 1], which is not checked.
    """
    lams = tuple(float(v) for v in eigenvalues)
    psis = tuple(eigenfunctions)
    if len(lams) != len(psis) or not lams:
        raise ValueError("need matching, nonempty eigenvalue/eigenfunction sequences")
    if any(v == 0 for v in lams):
        raise ValueError("eigenvalues must be nonzero")
    if list(np.abs(lams)) != sorted(np.abs(lams), reverse=True):
        raise ValueError("eigenvalues must be ordered by decreasing |lambda|")

    def h(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = sum(lam * psi(x) * psi(y) for lam, psi in zip(lams, psis))
        return total if total.shape else float(total)

    return GraphonSpec(
        h=h,
        sparsity_exponent=sparsity_exponent,
        rank_hint=len(lams),
        name=name,
        eigenvalues=lams,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_latents(n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. uniform latents in the open unit interval."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u = rng.random(n)
    while (u == 0.0).any():  # open interval; 0 has probability ~2^-53
        u[u == 0.0] = rng.random(int((u == 0.0).sum()))
    return u


def sample_graph(spec: GraphonSpec, latents: np.ndarray, rng: np.random.Generator) -> Network:
    """Draw a graph: each pair i < j connected with prob min(rho_n h(U_i,U_j), 1).

    Pairs are visited in row-major upper-triangle order, a block of whole
    rows at a time: each block calls `spec.h` on two equal-length 1-D arrays
    and draws one uniform per pair.  Consecutive `rng.random` calls continue
    one stream, so the draws, the edges and the generator's state afterwards
    are exactly those of a single n(n-1)/2 draw.  Memory is the adjacency
    plus O(_BLOCK_PAIRS).  Clamping at 1 is silent.  The latent vector is
    stored on the returned network for oracle checks; estimators never read
    it.
    """
    u = np.asarray(latents, dtype=float)
    n = u.shape[0]
    if n < 1 or ((u <= 0.0) | (u >= 1.0)).any():
        raise ValueError("latents must lie strictly inside (0, 1)")
    rho = spec.edge_density(n)
    row_hits = np.zeros(n, dtype=np.int64)  # edges (i, j > i) of each row i
    col_idx = _csr_index_dtype(0, n)  # a column index needs to hold n only
    hit_cols = [np.empty(0, dtype=col_idx)]
    block_rows = max(1, _BLOCK_PAIRS // n)
    for start in range(0, n - 1, block_rows):
        rows = np.arange(start, min(start + block_rows, n - 1))
        lengths = n - 1 - rows
        ends = np.cumsum(lengths)
        x = np.repeat(u[rows], lengths)
        y = np.concatenate([u[i + 1:] for i in rows])
        probs = np.minimum(rho * np.asarray(spec.h(x, y), dtype=float), 1.0)
        pos = np.flatnonzero(rng.random(x.shape[0]) < probs)
        counts = np.diff(np.searchsorted(pos, ends), prepend=0)
        row_hits[rows] = counts
        # block position p in row i, starting at s_i, is the pair (i, p - s_i + i + 1)
        block_cols = np.empty(pos.shape[0], dtype=col_idx)
        np.add(pos, np.repeat(rows + 1 - (ends - lengths), counts), out=block_cols, casting="unsafe")
        hit_cols.append(block_cols)
    idx = _csr_index_dtype(2 * int(row_hits.sum()), n)
    cols = np.concatenate(hit_cols, dtype=idx)
    del hit_cols
    if cols.size:
        up_ptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(row_hits, out=up_ptr[1:])
        # the transpose lists each row's neighbours below the diagonal, sorted;
        # only its pattern is read, so an int8 one will do
        low = sp.csr_array((np.ones(cols.size, dtype=np.int8), cols, up_ptr), shape=(n, n)).tocsc()
        # a row of the result is its lower part followed by its upper part
        upper_slot = np.repeat(
            np.tile([False, True], n), np.column_stack([np.diff(low.indptr), row_hits]).ravel()
        )
        indices = np.empty(upper_slot.shape[0], dtype=idx)
        indices[upper_slot] = cols
        indices[~upper_slot] = low.indices
        indptr = up_ptr + low.indptr
        # every temporary goes before the float64 data, the largest array, is made
        del low, cols, upper_slot, up_ptr, row_hits
        a = sp.csr_array((np.ones(indices.shape[0]), indices, indptr), shape=(n, n))
    else:  # scipy's empty array, int32-indexed as an empty COO build gives
        a = sp.csr_array((n, n))
    degrees = np.diff(a.indptr).astype(np.int64)
    return Network(n=n, adjacency=a, degrees=degrees, latents=u)


# ---------------------------------------------------------------------------
# Graphon integrals (quadrature oracles)
# ---------------------------------------------------------------------------

def _quad(fn, a: float, b: float, tol: float, what: str) -> float:
    # deferred: importing scipy.integrate (and with it scipy.optimize, scipy.linalg and
    # scipy.spatial) costs about 0.35 s and 25 MB, and only the oracles integrate
    from scipy import integrate
    out = integrate.quad(fn, a, b, epsabs=tol, epsrel=tol, limit=200, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > max(tol, 10 * tol * abs(value)):
        raise QuadratureError(f"quadrature for {what} did not converge", achieved=abserr)
    return value


def graphon_degree_profile(spec: GraphonSpec, latent: float, tol: float = 1e-10) -> float:
    """int_0^1 h(latent, y) dy, the population analogue of N_i / (n rho_n)."""
    if not 0.0 < latent < 1.0:
        raise ValueError("latent must lie in (0, 1)")
    return _quad(lambda y: float(spec.h(latent, y)), 0.0, 1.0, tol, "degree profile")


def graphon_b(spec: GraphonSpec, tol: float = 1e-8) -> float:
    """The squared-mean degree-ratio functional of the graphon.

    Computed by nested 1-D adaptive quadrature: row integral
    s(x) = int h(x, z) dz, then g(y) = int h(x, y) / s(x) dx, then
    int g(y)^2 dy, with the inner tolerances tightened below `tol`.
    """
    inner_tol = min(tol * 1e-3, 1e-11)
    cache: dict[float, float] = {}

    def s(x: float) -> float:
        v = cache.get(x)
        if v is None:
            v = _quad(lambda z: float(spec.h(x, z)), 0.0, 1.0, inner_tol, "row integral")
            if v <= 0:
                raise QuadratureError("row integral must be positive for the ratio", achieved=v)
            cache[x] = v
        return v

    def g(y: float) -> float:
        return _quad(lambda x: float(spec.h(x, y)) / s(x), 0.0, 1.0, inner_tol, "ratio integral")

    return _quad(lambda y: g(y) ** 2, 0.0, 1.0, tol, "outer integral")


def require_positive_degrees(network: Network) -> None:
    """Raise IsolatedVertexError naming the first zero-degree vertex."""
    zero = np.flatnonzero(network.degrees == 0)
    if zero.size:
        raise IsolatedVertexError(int(zero[0]))
