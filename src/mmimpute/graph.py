"""Interaction matrices and item-item co-interaction graphs.

The imputation pipeline works on three structures: the binary user-item
incidence matrix, the item-item co-interaction graph derived from it
(edge weight = number of users shared by two items), and normalized
diffusion operators over the top-k sparsified binary graph.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs  # the kernel `csr_matrix @` runs

from .errors import (
    EmptyDataset,
    GraphTooLarge,
    InvalidParameter,
    SingularDiffusion,
)

KIND_COUNTS = "counts"
KIND_BINARY = "binary"

MODE_SYM = "sym-laplacian"
MODE_PPR_EXACT = "ppr-exact"
MODE_PPR_ITERATIVE = "ppr-iterative"

# Dense personalized-PageRank solves are refused above this many items.
PPR_EXACT_CAP = 2000

# 1-norm condition estimates above this are treated as singular.
CONDITION_LIMIT = 1e12

# Least work (stored entries x operand columns) given a row block of its
# own. On 2 cores a thread hand-off costs about 0.1 ms: two blocks took
# 0.53-0.99 of one block's time from 2**21 of work (about 1 ms) up, and up
# to 1.16 below it.
MIN_BLOCK_WORK = 2**20


def _binary_csr(rows, cols, shape) -> sp.csr_matrix:
    data = np.ones(len(rows), dtype=np.int64)
    matrix = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    matrix.data[:] = 1  # collapse duplicate pairs
    matrix.sort_indices()
    return matrix


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    """Binary user-item incidence plus the external id vocabularies.

    `matrix` is CSR of shape (n_users, n_items) with every stored value 1.
    Indices follow first appearance in the source stream, so a dataset
    written to disk and re-read reproduces the same indexing.
    """

    matrix: sp.csr_matrix
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    def __post_init__(self):
        n_users, n_items = self.matrix.shape
        if len(self.user_ids) != n_users or len(self.item_ids) != n_items:
            raise InvalidParameter("id vocabularies do not match the matrix shape")
        if len(set(self.user_ids)) != n_users:
            raise InvalidParameter("duplicate user ids")
        if len(set(self.item_ids)) != n_items:
            raise InvalidParameter("duplicate item ids")

    @property
    def n_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_items(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_interactions(self) -> int:
        return int(self.matrix.nnz)

    def iter_entries(self):
        """Yield (user_index, item_index) pairs in row-major order."""
        indptr, indices = self.matrix.indptr, self.matrix.indices
        for u in range(self.n_users):
            for i in indices[indptr[u]:indptr[u + 1]]:
                yield u, int(i)

    def select(self, users: np.ndarray, items: np.ndarray) -> "InteractionMatrix":
        """Rows `users` and columns `items` of the matrix, in that order, with their ids."""
        matrix = self.matrix[users][:, items]
        matrix.sort_indices()
        return InteractionMatrix(
            matrix,
            tuple(self.user_ids[u] for u in users.tolist()),
            tuple(self.item_ids[i] for i in items.tolist()),
        )

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[int, int]] | np.ndarray,
        n_users: int,
        n_items: int,
        user_ids: Sequence[str] | None = None,
        item_ids: Sequence[str] | None = None,
    ) -> "InteractionMatrix":
        """Build from integer index pairs with fixed dimensions.

        `pairs` is an iterable of (user, item) pairs or an (n, 2) integer
        array. Unlike `build_interaction_matrix`, rows and columns without
        any interaction are preserved.
        """
        pairs = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
        if pairs.size and pairs.shape[1:] != (2,):
            raise InvalidParameter(f"expected (user, item) pairs, got shape {pairs.shape}")
        pairs = pairs.reshape(-1, 2)
        rows, cols = pairs.T
        bad = (rows < 0) | (rows >= n_users) | (cols < 0) | (cols >= n_items)
        if bad.any():
            u, i = pairs[np.argmax(bad)]
            raise InvalidParameter(f"entry ({u}, {i}) out of range")
        if user_ids is None:
            user_ids = tuple(f"u{k}" for k in range(n_users))
        if item_ids is None:
            item_ids = tuple(f"i{k}" for k in range(n_items))
        matrix = _binary_csr(rows, cols, (n_users, n_items))
        return cls(matrix, tuple(user_ids), tuple(item_ids))


def build_interaction_matrix(pairs: Iterable[tuple[str, str]]) -> InteractionMatrix:
    """Index users and items by first appearance and build the incidence matrix.

    Duplicate (user, item) pairs collapse to a single entry.
    """
    users, items = tuple(zip(*pairs)) or ((), ())
    return interactions_from_ids(users, items)


def interactions_from_ids(users: Sequence[str], items: Sequence[str]) -> InteractionMatrix:
    """`build_interaction_matrix` from the parallel user and item id columns."""
    if not users:
        raise EmptyDataset("no interactions")
    user_ids, rows = _index_by_first_appearance(users)
    item_ids, cols = _index_by_first_appearance(items)
    matrix = _binary_csr(rows, cols, (len(user_ids), len(item_ids)))
    return InteractionMatrix(matrix, user_ids, item_ids)


def first_appearance_order(matrix: sp.csr_matrix) -> np.ndarray:
    """Old column index of each item in canonical order.

    Items come in order of first appearance in the row-major entry stream
    (`matrix.indices`, sorted in each row), then items with no entry, in
    index order. A dataset reindexed this way re-reads with the same indexing.
    One scatter finds each item's earliest stream position; items with no
    entry keep the position `nnz`, so the stable sort puts them last.
    """
    stream = matrix.indices
    first = np.full(matrix.shape[1], stream.size)
    np.minimum.at(first, stream, np.arange(stream.size))
    return np.argsort(first, kind="stable")


def _index_by_first_appearance(ids: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ids in order of first appearance, and each id's index in it.

    The ids kept are fresh copies (`_compact_copy`), not the objects of
    `ids`: a parsed column holds one string per line, and its few
    survivors, scattered among the rest, would keep the parse's memory
    from being returned once the column is freed.
    """
    vocabulary = _compact_copy(tuple(dict.fromkeys(ids)))
    index = dict(zip(vocabulary, range(len(vocabulary))))
    return vocabulary, np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


def _compact_copy(ids: tuple) -> tuple:
    """Equal copies of `ids`, allocated one after another.

    The ids are joined into one string and cut at their lengths, so no
    separator is needed and an id may hold any character. Ids that are
    not all strings are returned as they are.
    """
    try:
        joined = "".join(ids)
    except TypeError:
        return ids
    ends = list(accumulate(map(len, ids)))
    return tuple([joined[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)])


@dataclass(frozen=True, eq=False)
class ItemGraph:
    """Symmetric item-item graph with a zero diagonal.

    kind "counts": weights are shared-user counts (integers >= 1).
    kind "binary": all stored weights are 1. `degrees[i]` is the number of
    stored off-diagonal neighbors of item i.
    """

    adjacency: sp.csr_matrix
    kind: str
    degrees: np.ndarray

    @property
    def n_items(self) -> int:
        return self.adjacency.shape[0]

    def neighbors(self, i: int) -> np.ndarray:
        """Neighbor indices of item i, ascending."""
        a = self.adjacency
        return a.indices[a.indptr[i]:a.indptr[i + 1]]


def _row_nnz(matrix: sp.csr_matrix) -> np.ndarray:
    return np.diff(matrix.indptr).astype(np.int64)


def cooccurrence(r: InteractionMatrix) -> ItemGraph:
    """Item-item co-interaction counts.

    Entry (i, j) is the number of users who interacted with both items,
    obtained as the off-diagonal part of the Gram matrix of the incidence
    columns. The diagonal (per-item popularity) carries no inter-item
    signal and is discarded.
    """
    m = r.matrix
    counts = (m.T @ m).tocsr()
    # in place: every item with an interaction already stores its diagonal
    counts.setdiag(0)
    counts.eliminate_zeros()
    counts.sort_indices()
    return ItemGraph(counts, KIND_COUNTS, _row_nnz(counts))


def topk_sparsify(g: ItemGraph, k: int) -> ItemGraph:
    """Keep each row's k strongest co-interaction edges and binarize.

    Ties in counts break toward the lower item index. An edge survives if
    either endpoint selects it, so the result stays symmetric. The kept
    edges are marked in a boolean mask over the stored counts; only rows
    longer than k are ranked, and each row keeps min(length, k) edges.
    The input graph is never modified.
    """
    if g.kind != KIND_COUNTS:
        raise InvalidParameter("top-k sparsification expects a counts graph")
    check_top_k(k)
    adj = g.adjacency
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    lengths = np.diff(indptr)
    keep = np.ones(indices.size, dtype=bool)
    for i in np.flatnonzero(lengths > k):
        lo, hi = indptr[i], indptr[i + 1]
        order = np.lexsort((indices[lo:hi], -data[lo:hi]))  # count desc, index asc
        keep[lo + order[k:]] = False
    kept_indptr = np.zeros_like(indptr)
    # k beyond every row length may not fit the index dtype
    np.cumsum(np.minimum(lengths, min(k, indices.size)), out=kept_indptr[1:])
    kept = indices[keep]
    directed = sp.csr_matrix(
        (np.ones(kept.size, dtype=np.int64), kept, kept_indptr), shape=adj.shape
    )
    sym = (directed + directed.T).tocsr()
    sym.data[:] = 1
    sym.sort_indices()
    return ItemGraph(sym, KIND_BINARY, _row_nnz(sym))


@functools.cache
def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None


def _thread_pool() -> ThreadPoolExecutor:
    """The process-wide pool, started on first use.

    Two threads racing here may start a spare pool; it is never used again
    and its threads exit once it is collected.
    """
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_usable_cores(), thread_name_prefix="mmimpute")
    return _pool


def _forget_pool():
    global _pool
    _pool = None  # a forked child has none of its parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _block_count(matrix: sp.csr_matrix, n_cols: int) -> int:
    """Row blocks of a product of `matrix` with an operand of `n_cols` columns.

    One block per `MIN_BLOCK_WORK` of work (stored entries x `n_cols`), at
    most one per usable core, and at least one.
    """
    return max(1, min(_usable_cores(), matrix.nnz * n_cols // MIN_BLOCK_WORK))


def _run_job(job: list):
    fn, args, errors = job.pop()  # a finished job keeps no reference to its arrays
    with np.errstate(**errors):  # numpy's error handling is per thread
        return fn(*args)


def _run_blocks(fn: Callable, bounds: list[int], *args) -> list:
    """`[fn(*args, lo, hi) for each block]`, the first block in the calling thread.

    Block i is rows `bounds[i]:bounds[i + 1]`. The other blocks run on the
    pool, which a single block never touches, under the caller's
    `np.errstate`.
    """
    if len(bounds) == 2:
        return [fn(*args, *bounds)]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    errors = dict(np.geterr(), call=np.geterrcall())
    jobs = [[(fn, (*args, lo, hi), errors)] for lo, hi in blocks[1:]]
    futures = [_thread_pool().submit(_run_job, job) for job in jobs]
    first = fn(*args, *blocks[0])
    return [first] + [f.result() for f in futures]


class RowBlockedCSR(sp.csr_matrix):
    """A float64 CSR matrix whose large products run as row blocks on all usable cores.

    `self @ x` with `x` a C-contiguous float64 array of more than one
    column splits into `_block_count` contiguous row blocks of about equal
    stored entries. The calling thread allocates one zeroed output, and
    each block runs scipy's own kernel (`csr_matvecs`, which `csr_matrix @`
    runs) over its rows, writing them in place. Each output row is summed
    in the order `csr_matrix @` sums it, so the product has the same bits
    at any block count. A product of one block, and a product with any
    other operand (1-D, one column, which scipy sends to another kernel,
    another dtype or layout), is `csr_matrix.__matmul__` itself. Row
    slices keep the type.
    """

    def __matmul__(self, x):
        if not (
            type(x) is np.ndarray and x.ndim == 2 and x.shape[1] > 1
            and x.shape[0] == self.shape[1] and x.dtype == self.dtype == np.float64
            and x.flags.c_contiguous
        ):
            return super().__matmul__(x)
        n_blocks = _block_count(self, x.shape[1])
        if n_blocks == 1:
            return super().__matmul__(x)
        # contiguous row blocks holding about equal stored entries
        inner = np.searchsorted(self.indptr, np.arange(1, n_blocks) * (self.nnz / n_blocks))
        out = np.zeros((self.shape[0], x.shape[1]))
        _run_blocks(self._product_rows, [0, *inner.tolist(), self.shape[0]], x, out)
        return out

    def _product_rows(self, x: np.ndarray, out: np.ndarray, lo: int, hi: int):
        csr_matvecs(
            hi - lo, self.shape[1], x.shape[1], self.indptr[lo:hi + 1], self.indices,
            self.data, x.ravel(), out[lo:hi].ravel(),
        )


@dataclass(frozen=True, eq=False)
class NormalizedOperator:
    """A diffusion operator derived from a binary item graph.

    mode "sym-laplacian": `matrix` is the sparse symmetric normalization
    of the adjacency, entry (i, j) = 1/(sqrt(d_i) sqrt(d_j)) for
    neighbors, with no self term. Zero-degree items give zero rows.

    mode "ppr-iterative": `matrix` is the sparse self-loop normalized
    adjacency A_sl (diagonal 1/d_i, off-diagonal as above) used by the
    fixed-point solver, the only personalized-PageRank realization the
    imputers run.

    mode "ppr-exact": `matrix` is the dense personalized-PageRank
    operator alpha * B^-1 with B = I - (1 - alpha) * A_sl, a reference
    for small graphs that the fixed point must match.

    The sparse matrices are `RowBlockedCSR`: their products with wide
    float64 operands are split over the usable cores, with the same bits
    as a one-thread product.
    """

    base: ItemGraph
    mode: str
    alpha: float | None
    matrix: RowBlockedCSR | np.ndarray


def _require_binary(g: ItemGraph):
    if g.kind != KIND_BINARY:
        raise InvalidParameter("a binary (sparsified) item graph is required")


def check_top_k(top_k: int):
    """Raise InvalidParameter unless `top_k` keeps at least one edge per row."""
    if top_k < 1:
        raise InvalidParameter(f"top_k must be at least 1, got {top_k}")


def check_alpha(alpha: float):
    """Raise InvalidParameter unless `alpha` is a teleport probability in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameter(f"alpha must be in (0, 1], got {alpha}")


def _degree_scaled(g: ItemGraph, with_self_loops: bool) -> RowBlockedCSR:
    d = g.degrees.astype(np.float64)
    pos = d > 0
    inv_sqrt = np.zeros_like(d)
    inv_sqrt[pos] = 1.0 / np.sqrt(d[pos])
    scale = sp.diags(inv_sqrt)
    w = (scale @ g.adjacency.astype(np.float64) @ scale).tocsr()
    if with_self_loops:
        inv = np.zeros_like(d)
        inv[pos] = 1.0 / d[pos]
        w = (w + sp.diags(inv)).tocsr()
    w.sort_indices()
    return RowBlockedCSR(w)


def sym_norm_adjacency(g: ItemGraph) -> NormalizedOperator:
    """Symmetric degree normalization of a binary item graph."""
    _require_binary(g)
    return NormalizedOperator(g, MODE_SYM, None, _degree_scaled(g, with_self_loops=False))


def ppr_iterative(g: ItemGraph, alpha: float) -> NormalizedOperator:
    """Operator for fixed-point personalized-PageRank diffusion.

    Carries the self-loop normalized adjacency; each application of the
    diffusion is later realized as the fixed point of
    x = alpha * x0 + (1 - alpha) * A_sl @ x.
    """
    check_alpha(alpha)
    _require_binary(g)
    return NormalizedOperator(g, MODE_PPR_ITERATIVE, alpha, _degree_scaled(g, with_self_loops=True))


def ppr_exact(g: ItemGraph, alpha: float, cap: int = PPR_EXACT_CAP) -> NormalizedOperator:
    """Dense personalized-PageRank diffusion operator alpha * B^-1.

    B = I - (1 - alpha) * A_sl, solved directly; isolated items reduce to
    identity rows. A reference for small graphs, refused beyond `cap`
    items; imputation realizes the same operator as a fixed point over
    `ppr_iterative`.
    """
    check_alpha(alpha)
    _require_binary(g)
    n = g.n_items
    if n > cap:
        raise GraphTooLarge(f"{n} items exceeds the dense diffusion cap of {cap}")
    b = np.eye(n) - (1.0 - alpha) * _degree_scaled(g, with_self_loops=True).toarray()
    try:
        diffusion = np.linalg.solve(b, alpha * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularDiffusion(f"diffusion system is singular at alpha={alpha}") from exc
    if n:
        # 1-norm condition estimate; the inverse is already in hand.
        cond = np.abs(b).sum(axis=0).max() * np.abs(diffusion / alpha).sum(axis=0).max()
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SingularDiffusion(
                f"diffusion system is ill-conditioned at alpha={alpha} (condition ~{cond:.2e})"
            )
    return NormalizedOperator(g, MODE_PPR_EXACT, alpha, diffusion)
