"""Graphon specifications, sparse random-graph sampling, and graphon integrals.

A graphon here is a symmetric function h on the unit square together with a
sparsity rule rho_n = scale * n**(-gamma).  Graphs are sampled by drawing one
latent U_i per vertex and connecting i and j with probability
min(rho_n * h(U_i, U_j), 1).  The sampler draws the pairs i < j in
row-major upper-triangle order, one block of rows at a time: its uniforms
are exactly those of one n(n-1)/2 draw, and its memory is the adjacency
plus O(_BLOCK_PAIRS).  A `Network` is its adjacency alone, and every way
of making one hands the upper triangle to one symmetric-CSR builder.  The
module also computes the population quantities that the variance
estimators target, by nested adaptive quadrature, so tests and the
simulation harness can use them as oracles.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from functools import cached_property
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
        Symmetric function on [0, 1]^2: two arrays in, an array of their
        broadcast shape out.  Two scalars give a 0-d result, which the
        quadrature oracles convert with float().
    sparsity_exponent : float
        gamma >= 0 in rho_n = n**(-gamma); 0 means dense.
    rank_hint : int, optional
        Declared finite rank; a Scenario requires it and uses it as the
        spectral rank.
    upper_bound : float, optional
        Declared c_u >= sup h; not checked.
    eigenvalues : optional
        Present only for the rank-1 keys (``constant:`` and ``rank1:``):
        h = lam psi(x) psi(y) with psi of unit L2 norm.
    """

    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sparsity_exponent: float = 0.25
    rank_hint: int | None = None
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
    """An undirected simple graph, held as its adjacency E.

    `adjacency` is a symmetric scipy CSR array of ones with zero diagonal,
    float64 data, sorted indices, and int32 `indices`/`indptr`, int64 only
    when its nonzero count exceeds 2**31 - 1.  `from_edges`,
    `from_adjacency`, `sample_graph` and `load_edge_list` all build it in
    `_from_upper`, so they give the same array for the same graph.
    """

    adjacency: sp.csr_array

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def degrees(self) -> np.ndarray:
        """N_i = sum_j E_ij, as int64."""
        return np.diff(self.adjacency.indptr).astype(np.int64)

    @classmethod
    def from_adjacency(cls, adjacency) -> "Network":
        """The graph of a square, symmetric 0/1 matrix with zero diagonal; stored zeros are ignored."""
        a = sp.coo_array(adjacency, dtype=np.float64).tocsr()  # COO -> CSR sums duplicate entries
        if a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.isin(a.data, (0.0, 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if a.diagonal().any():
            raise ValueError("adjacency must have a zero diagonal")
        if (a != a.T).nnz != 0:
            raise ValueError("adjacency must be symmetric")
        return cls.from_edges(a.shape[0], np.column_stack(sp.triu(a, k=1).nonzero()))

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Network":
        """The graph on vertices 0..n-1 with the given (i, j) pairs; a repeated pair counts once."""
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if ((e < 0) | (e >= n)).any():
            raise ValueError(f"vertex ids must lie in 0..{n - 1}")
        loops = np.flatnonzero(e[:, 0] == e[:, 1])
        if loops.size:
            raise ValueError(f"self-loop ({e[loops[0], 0]},{e[loops[0], 0]}) not allowed")
        # row-major upper-triangle keys; np.unique would hash, 70x slower at 2M keys on numpy 2.4
        keys = np.sort(e.min(axis=1) * n + e.max(axis=1))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        rows = keys // n
        return _from_upper(n, np.bincount(rows, minlength=n), [keys - rows * n])

    def treated_neighbor_counts(self, w: np.ndarray) -> np.ndarray:
        """M_i = sum_j E_ij w_j."""
        return self.adjacency @ np.asarray(w, dtype=np.float64)


def _from_upper(n: int, row_hits: np.ndarray, hit_cols: list[np.ndarray]) -> Network:
    """The network with row_hits[i] upper-triangle entries in row i, at the sorted columns `hit_cols`.

    The chunk list is emptied: no caller may hold the columns while the float64 data is made.
    """
    idx = _csr_index_dtype(2 * int(row_hits.sum()), n)
    cols = np.concatenate(hit_cols, dtype=idx)
    hit_cols.clear()
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
    return Network(a)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _constant_h(c: float):
    def h(x, y):
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), float(c))

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


def make_graphon(key: str) -> GraphonSpec:
    """Build a registered graphon, with the paper's sparsity rho_n = n**(-0.25).

    Keys: ``paper-sec3`` (x^2 + y^2 + xy + 0.1, rank 3), ``constant:<c>``,
    and ``rank1:<expr>`` where ``<expr>`` is a function of x defining
    h(x, y) = expr(x) * expr(y), held as lam psi(x) psi(y) with
    lam = ||expr||^2 and psi = expr / ||expr||.  Each key's h returns an
    array of its arguments' broadcast shape (see GraphonSpec).  Another
    sparsity is a ``dataclasses.replace(spec, sparsity_exponent=...)``.
    """
    if key == "paper-sec3":
        # sup h = 3.1 at (1, 1)
        return GraphonSpec(h=_quadratic_h, rank_hint=3, upper_bound=3.1, name=key)
    if key.startswith("constant:"):
        c = float(key.split(":", 1)[1])
        if c < 0:
            raise UnknownGraphonError("constant graphon requires c >= 0")
        return GraphonSpec(h=_constant_h(c), rank_hint=1, upper_bound=c, name=key, eigenvalues=(c,))
    if key.startswith("rank1:"):
        expr = key.split(":", 1)[1]
        psi_raw = _parse_expr(expr)
        try:
            with np.errstate(all="ignore"):  # a pole or a nan shows in the quadrature's check
                norm_sq = _quad(lambda t: psi_raw(t) ** 2, 0.0, 1.0, 1e-12, "the L2 norm")
        except QuadratureError as exc:
            raise UnknownGraphonError(f"rank1 expression {expr!r} has no finite L2 norm on [0, 1]: {exc}") from None
        if norm_sq <= 0:
            raise UnknownGraphonError("rank1 expression must have positive L2 norm")
        scale = float(np.sqrt(norm_sq))

        def h(x, y):
            # lam * psi(x) * psi(y) with psi = expr / ||expr||; seeded graphs depend on this order
            return norm_sq * (psi_raw(x) / scale) * (psi_raw(y) / scale)

        return GraphonSpec(h=h, rank_hint=1, name=key, eigenvalues=(norm_sq,))
    raise UnknownGraphonError(f"unknown graphon key {key!r}")


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
    plus O(_BLOCK_PAIRS).  No clamp at 1 is needed: a uniform from
    [0, 1) is below min(rho_n h, 1) exactly when it is below rho_n h (and
    below neither when that is NaN).  The network holds only the adjacency;
    a caller that needs the latents keeps its own.
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
        probs = rho * np.asarray(spec.h(x, y), dtype=float)
        pos = np.flatnonzero(rng.random(x.shape[0]) < probs)
        counts = np.diff(np.searchsorted(pos, ends), prepend=0)
        row_hits[rows] = counts
        # block position p in row i, starting at s_i, is the pair (i, p - s_i + i + 1)
        block_cols = np.empty(pos.shape[0], dtype=col_idx)
        np.add(pos, np.repeat(rows + 1 - (ends - lengths), counts), out=block_cols, casting="unsafe")
        hit_cols.append(block_cols)
    return _from_upper(n, row_hits, hit_cols)


# ---------------------------------------------------------------------------
# Graphon integrals (quadrature oracles)
# ---------------------------------------------------------------------------

def _quad(fn, a: float, b: float, tol: float, what: str) -> float:
    """int_a^b fn, or QuadratureError when quad warns, misses tol, or returns a non-finite value.

    Every quadrature of the package runs through here.
    """
    # deferred: importing scipy.integrate (and with it scipy.optimize, scipy.linalg and
    # scipy.spatial) costs about 0.35 s and 25 MB, and only the oracles integrate
    from scipy import integrate
    out = integrate.quad(fn, a, b, epsabs=tol, epsrel=tol, limit=200, full_output=1)
    value, abserr = out[0], out[1]
    # quad can return inf with abserr inf and no warning, and inf > inf is False
    if len(out) > 3 or not np.isfinite(value) or abserr > max(tol, 10 * tol * abs(value)):
        raise QuadratureError(f"quadrature for {what} did not converge", achieved=abserr)
    return value


def graphon_degree_profile(spec: GraphonSpec, latent: float) -> float:
    """int_0^1 h(latent, y) dy to within 1e-10, the population analogue of N_i / (n rho_n)."""
    if not 0.0 < latent < 1.0:
        raise ValueError("latent must lie in (0, 1)")
    return _quad(lambda y: float(spec.h(latent, y)), 0.0, 1.0, 1e-10, "degree profile")


def graphon_b(spec: GraphonSpec) -> float:
    """The squared-mean degree-ratio functional of the graphon.

    Computed by nested 1-D adaptive quadrature: row integral
    s(x) = int h(x, z) dz, then g(y) = int h(x, y) / s(x) dx, then
    int g(y)^2 dy to within 1e-8, with the two inner integrals to within
    1e-11.
    """
    inner_tol = 1e-11
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

    return _quad(lambda y: g(y) ** 2, 0.0, 1.0, 1e-8, "outer integral")


def require_positive_degrees(network: Network) -> None:
    """Raise IsolatedVertexError naming the first zero-degree vertex."""
    zero = np.flatnonzero(network.degrees == 0)
    if zero.size:
        raise IsolatedVertexError(int(zero[0]))
