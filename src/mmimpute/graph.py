"""Interaction matrices and item-item co-interaction graphs.

The imputation pipeline works on three structures: the binary user-item
incidence matrix, the item-item co-interaction graph derived from it
(edge weight = number of users shared by two items), and normalized
diffusion operators over the top-k sparsified binary graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

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
    vocabulary = tuple(dict.fromkeys(ids))
    index = dict(zip(vocabulary, range(len(vocabulary))))
    return vocabulary, np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


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
    edges are marked 0/1 over the stored counts; only rows longer than k
    are ranked. The input graph is never modified.
    """
    if g.kind != KIND_COUNTS:
        raise InvalidParameter("top-k sparsification expects a counts graph")
    check_top_k(k)
    adj = g.adjacency
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    keep = np.ones(indices.size, dtype=np.int64)
    for i in np.flatnonzero(np.diff(indptr) > k):
        lo, hi = indptr[i], indptr[i + 1]
        order = np.lexsort((indices[lo:hi], -data[lo:hi]))  # count desc, index asc
        keep[lo + order[k:]] = 0
    # own index arrays: eliminate_zeros prunes in place
    directed = sp.csr_matrix((keep, indices.copy(), indptr.copy()), shape=adj.shape)
    directed.eliminate_zeros()
    sym = (directed + directed.T).tocsr()
    sym.data[:] = 1
    sym.sort_indices()
    return ItemGraph(sym, KIND_BINARY, _row_nnz(sym))


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
    """

    base: ItemGraph
    mode: str
    alpha: float | None
    matrix: sp.csr_matrix | np.ndarray


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


def _degree_scaled(g: ItemGraph, with_self_loops: bool) -> sp.csr_matrix:
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
    return w


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
