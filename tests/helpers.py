"""Shared builders and independent oracles for the test suite."""

import numpy as np
import scipy.sparse as sp

from mmimpute import (
    GRAPH_METHODS,
    METHODS,
    DivergentDiffusion,
    EmptyDataset,
    FeatureSet,
    ImputeConfig,
    InconsistentData,
    InteractionMatrix,
    InvalidParameter,
    ParseError,
    UnknownItem,
    cooccurrence,
    impute,
    mask_features,
    ppr_exact,
    reconstruction_metrics,
)
from mmimpute.evaluate import _grid_seed
from mmimpute.graph import ItemGraph, KIND_BINARY, KIND_COUNTS
from mmimpute.imputers import FIXED_POINT_STEP_CAP


def entries(r):
    """Yield the (user_index, item_index) pairs of `r` in row-major order."""
    indptr, indices = r.matrix.indptr, r.matrix.indices
    for u in range(r.n_users):
        for i in indices[indptr[u]:indptr[u + 1]]:
            yield u, int(i)


def neighbors(g, i):
    """Neighbor indices of item i of graph `g`, ascending."""
    a = g.adjacency
    return a.indices[a.indptr[i]:a.indptr[i + 1]]


def binary_graph(n, edges):
    """Symmetric binary ItemGraph from undirected (i, j) pairs."""
    rows = [i for i, j in edges] + [j for i, j in edges]
    cols = [j for i, j in edges] + [i for i, j in edges]
    a = sp.coo_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n)
    ).tocsr()
    a.data[:] = 1
    a.sort_indices()
    return ItemGraph(a, KIND_BINARY)


def counts_graph(n, weighted_edges):
    """Counts ItemGraph from undirected (i, j, count) triples."""
    rows, cols, data = [], [], []
    for i, j, c in weighted_edges:
        rows += [i, j]
        cols += [j, i]
        data += [c, c]
    a = sp.coo_matrix((np.asarray(data, dtype=np.int64), (rows, cols)), shape=(n, n)).tocsr()
    a.sort_indices()
    return ItemGraph(a, KIND_COUNTS)


def random_connected_graph(rng, n):
    """Random spanning tree plus extra edges; every degree is >= 1."""
    edges = set()
    perm = rng.permutation(n)
    for t in range(1, n):
        a, b = perm[t], perm[rng.integers(0, t)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return binary_graph(n, sorted(edges))


def random_interactions(rng, max_users=30, max_items=30):
    n_users = int(rng.integers(2, max_users + 1))
    n_items = int(rng.integers(2, max_items + 1))
    density = rng.uniform(0.05, 0.4)
    pairs = [
        (u, i)
        for u in range(n_users)
        for i in range(n_items)
        if rng.random() < density
    ]
    if not pairs:
        pairs = [(0, 0)]
    return InteractionMatrix.from_pairs(pairs, n_users, n_items)


def feature_set(matrix, mask, name="m"):
    """Single-modality FeatureSet; masked rows are zeroed placeholders.

    The precision is `FeatureSet`'s: float32 stays float32, anything else
    becomes float64.
    """
    matrix = np.array(matrix)
    mask = np.asarray(mask, dtype=bool)
    matrix[mask] = 0.0
    return FeatureSet.create([(name, matrix)], {name: mask})


def random_feature_set(rng, n, dim=4, missing=0.3, name="m"):
    feats = rng.standard_normal((n, dim))
    mask = rng.random(n) < missing
    if mask.all():
        mask[int(rng.integers(0, n))] = False
    return feature_set(feats, mask, name)


def brute_force_cooccurrence(r):
    """Pairwise user-set intersections; the independent counts oracle."""
    n = r.n_items
    users_of = [set() for _ in range(n)]
    for u, i in entries(r):
        users_of[i].add(u)
    counts = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                counts[i, j] = len(users_of[i] & users_of[j])
    return counts


def coo_filter_cooccurrence(r):
    """Gram product, COO copy, off-diagonal filter and CSR rebuild.

    The reference `cooccurrence` must match array for array, dtypes
    included.
    """
    gram = (r.matrix.T @ r.matrix).tocoo()
    off = gram.row != gram.col
    counts = sp.csr_matrix(
        (gram.data[off], (gram.row[off], gram.col[off])),
        shape=(r.n_items, r.n_items),
        dtype=np.int64,
    )
    counts.sort_indices()
    return counts


def row_list_topk_sparsify(g, k):
    """Top-k sparsification rebuilt row by row through a COO matrix.

    Each row's kept columns are collected in lists, concatenated and
    symmetrized; a graph with no edges is built directly. The reference
    `topk_sparsify` must match array for array, dtypes included.
    """
    adj = g.adjacency
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    sel_rows, sel_cols = [], []
    for i in range(g.n_items):
        cols = indices[indptr[i]:indptr[i + 1]]
        if cols.size == 0:
            continue
        if cols.size > k:
            counts = data[indptr[i]:indptr[i + 1]]
            cols = cols[np.lexsort((cols, -counts))[:k]]
        sel_rows.append(np.full(cols.size, i, dtype=np.int64))
        sel_cols.append(cols.astype(np.int64))
    n = g.n_items
    if not sel_rows:
        empty = sp.csr_matrix((n, n), dtype=np.int64)
        return ItemGraph(empty, KIND_BINARY)
    rows = np.concatenate(sel_rows)
    cols = np.concatenate(sel_cols)
    directed = sp.coo_matrix(
        (np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=(n, n)
    ).tocsr()
    sym = (directed + directed.T).tocsr()
    sym.data[:] = 1
    sym.sort_indices()
    return ItemGraph(sym, KIND_BINARY)


def naive_neigh_mean(matrix, mask, graph, fallback_row):
    """Per-item neighbor-average loop over the zero-initialized matrix."""
    init = np.asarray(matrix, dtype=np.float64).copy()
    init[mask] = 0.0
    out = init.copy()
    dense = graph.adjacency.toarray()
    for i in range(init.shape[0]):
        if not mask[i]:
            out[i] = matrix[i]
            continue
        neighbors = [j for j in range(init.shape[0]) if dense[i, j]]
        if not neighbors:
            out[i] = fallback_row
        else:
            acc = np.zeros(init.shape[1])
            for j in neighbors:
                acc = acc + init[j]
            out[i] = acc / len(neighbors)
    return out


def permute_graph(g, perm):
    """Relabel item i as perm[i]."""
    coo = g.adjacency.tocoo()
    a = sp.coo_matrix(
        (coo.data, (perm[coo.row], perm[coo.col])), shape=coo.shape
    ).tocsr()
    a.sort_indices()
    return ItemGraph(a, g.kind)


def permute_feature_set(f, perm):
    matrices = {}
    masks = {}
    for m in f.modalities:
        mat = np.empty_like(f.matrices[m])
        mat[perm] = f.matrices[m]
        mask = np.empty_like(f.masks[m])
        mask[perm] = f.masks[m]
        matrices[m] = mat
        masks[m] = mask
    return FeatureSet(f.modalities, matrices, masks)


def full_matrix_propagate(f, hops, apply_op, clamp):
    """Full-matrix hop loop: apply the operator to every row, re-pin the
    observed rows, and finally copy the masked rows into the input.

    The reference the masked-row kernel must match bit for bit.
    """
    out = {}
    for m in f.modalities:
        mask = f.masks[m]
        observed = ~mask
        original = f.matrices[m]
        x = original.copy()
        x[mask] = 0.0
        for t in range(1, hops + 1):
            x = apply_op(m, t, x)
            if clamp:
                x[observed] = original[observed]
        final = original.copy()
        final[mask] = x[mask]
        out[m] = final
    return out


def masked_block_propagate(f, hops, first_hop, block_product):
    """Clamped hops as `x_M <- K x_M + b` on the masked rows M.

    Hop 1 is `first_hop(m, x)` over the whole matrix with zero
    placeholders in M; its masked rows are b. Every later hop is
    `block_product(m, x_M) + b`. The reference the clamped kernels of
    multihop and personalized PageRank must match bit for bit.
    """
    out = {}
    for m in f.modalities:
        mask = f.masks[m]
        x = f.matrices[m].astype(np.float64)
        x[mask] = 0.0
        b = first_hop(m, x.copy())[mask]
        x_m = b
        for _ in range(hops - 1):
            x_m = block_product(m, x_m) + b
        x[mask] = x_m
        out[m] = x
    return out


def entrywise_product(k):
    """`k @ x` for a dense `k`, each row summed over its nonzero columns in ascending order.

    The order a CSR product sums in, one term at a time.
    """
    def product(x):
        y = np.zeros((k.shape[0], x.shape[1]))
        for i in range(k.shape[0]):
            for j in np.flatnonzero(k[i]):
                y[i] += k[i, j] * x[j]
        return y

    return product


def term_chunked_product(p, x, terms):
    """`p @ x` as a left-to-right sum of products over `terms` terms at a time."""
    chunks = [p[:, lo:lo + terms] @ x[lo:lo + terms] for lo in range(0, p.shape[1], terms)]
    y = chunks[0]
    for chunk in chunks[1:]:
        y = y + chunk
    return y


def unit_column_ppr_block(a_sl, alpha, mask, tolerance):
    """[alpha * B^-1] on the masked rows and columns, one column at a time.

    Column j is `expression_fixed_point` from the unit column e_j, alone,
    stopped at its own tolerance; the columns of items without neighbors
    stay zero.
    """
    items = np.flatnonzero(mask)
    n = a_sl.shape[0]
    degrees = np.diff(a_sl.indptr)
    block = np.zeros((items.size, items.size))
    for c, j in enumerate(items):
        if degrees[j]:
            e = np.zeros((n, 1))
            e[j] = 1.0
            block[:, c] = expression_fixed_point(a_sl, alpha, e, tolerance)[0][items, 0]
    return block


def dense_ppr_propagate(f, g, alpha, hops, clamp=True):
    """Personalized-PageRank propagation with the dense alpha * B^-1.

    The oracle the fixed-point solver must match wherever its series
    converges; `ppr_exact` refuses graphs beyond its cap.
    """
    diffusion = ppr_exact(g, alpha).matrix
    return full_matrix_propagate(f, hops, lambda m, t, x: diffusion @ x, clamp)


def expression_fixed_point(a_sl, alpha, x0, tolerance, hop=1):
    """Personalized-PageRank fixed point, one column alone at a time.

    Column j steps `target + (1 - alpha) * (a_sl @ x)` over its own n x 1
    iterate and measures `max|x_next - x|`, each as a whole-array
    expression, and keeps its iterate from its own first step whose
    change is at most `tolerance * max|x0|`, the largest over all of x0.
    Returns the columns, the steps of the slowest column and the largest
    kept change; the first column that does not stop within the step cap
    raises with its last change. The reference the chunked `_ppr_hop`
    must match bit for bit: iterate, step count, residual and divergence
    message.
    """
    scale = float(np.max(np.abs(x0))) if x0.size else 0.0
    bound = tolerance * scale
    x = np.empty_like(x0)
    n_steps, residual = 0, 0.0
    for j in range(x0.shape[1]):
        column = x0[:, [j]]
        target = alpha * column
        for step in range(1, FIXED_POINT_STEP_CAP + 1):
            column_next = target + (1.0 - alpha) * (a_sl @ column)
            change = float(np.max(np.abs(column_next - column)))
            column = column_next
            if change <= bound:
                break
        else:
            raise DivergentDiffusion(
                f"personalized-PageRank fixed point did not reach residual {bound:.3e} "
                f"(iter_tolerance={tolerance} times max |x0| = {scale:.3e}) in hop {hop} "
                f"within {FIXED_POINT_STEP_CAP} steps at alpha={alpha} (last residual {change:.3e})"
            )
        x[:, j] = column[:, 0]
        n_steps, residual = max(n_steps, step), max(residual, change)
    return x, n_steps, residual


def _per_line_data_lines(path, known=()):
    """Data lines; a comment whose first field is in `known` raises ParseError."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(f"{path}:{lineno}: not UTF-8 text") from None
            line = raw.strip()
            item = line.split("\t")[0].strip()
            if line.startswith("#") and item in known:
                raise ParseError(
                    f"{path}:{lineno}: item id '{item}' starts with '#', which marks a comment"
                )
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _per_line_split_pair(path, lineno, line, what):
    parts = [p.strip() for p in line.split("\t")]
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError(f"{path}:{lineno}: expected '{what}', got {line!r}")
    return parts[0], parts[1]


def per_line_read_interactions(path):
    """Interaction reader that decodes, splits and indexes line by line.

    The reference `read_interactions` must match: ids, CSR arrays with
    their dtypes, and the type and message of the first error. It reads
    plain UTF-8, so a leading byte-order mark is not handled.
    """
    pairs = [
        _per_line_split_pair(path, lineno, line, "user_id<TAB>item_id")
        for lineno, line in _per_line_data_lines(path)
    ]
    if not pairs:
        raise EmptyDataset(f"{path}: no interactions")
    users, items, rows, cols = {}, {}, [], []
    for user_id, item_id in pairs:
        rows.append(users.setdefault(user_id, len(users)))
        cols.append(items.setdefault(item_id, len(items)))
    data = np.ones(len(rows), dtype=np.int64)
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(len(users), len(items))).tocsr()
    matrix.data[:] = 1
    matrix.sort_indices()
    return InteractionMatrix(matrix, tuple(users), tuple(items))


def per_line_read_mask(path, r):
    """Mask reader that resolves ids line by line; the `read_mask` reference.

    A comment line that names a known item, whose id starts with '#', is refused.
    """
    index = {item_id: i for i, item_id in enumerate(r.item_ids)}
    out = {}
    for lineno, line in _per_line_data_lines(path, index):
        item_id, modality = _per_line_split_pair(path, lineno, line, "item_id<TAB>modality_name")
        if item_id not in index:
            raise UnknownItem(f"{path}:{lineno}: unknown item id '{item_id}'")
        out.setdefault(modality, set()).add(index[item_id])
    return out


def _reordered_ids(ids, new_index):
    kept = np.flatnonzero(new_index >= 0)
    out = [""] * kept.size
    for old in kept:
        out[new_index[old]] = ids[old]
    return tuple(out)


def lexsort_drop_reindex(r, f):
    """Drop items with a missing modality and reindex pair by pair.

    Lexsorts the surviving entries, finds first appearances with
    `np.unique`, appends kept items without entries in old order, and
    rebuilds the matrix from zipped index pairs. The reference
    `drop_missing` must match array for array, dtypes included.
    """
    dropped = np.zeros(f.n_items, dtype=bool)
    for m in f.modalities:
        dropped |= f.masks[m]
    if dropped.all():
        raise EmptyDataset("every item has a missing modality")
    if not dropped.any():
        return r, f
    coo = r.matrix.tocoo()
    keep = ~dropped[coo.col]
    rows, cols = coo.row[keep], coo.col[keep]
    if rows.size == 0:
        raise EmptyDataset("no interactions survive the drop")
    kept_users = np.unique(rows)
    user_new = np.full(r.n_users, -1, dtype=np.int64)
    user_new[kept_users] = np.arange(kept_users.size)
    order = np.lexsort((cols, rows))
    traversal_cols = cols[order]
    _, first_pos = np.unique(traversal_cols, return_index=True)
    appearance = traversal_cols[np.sort(first_pos)]
    item_new = np.full(r.n_items, -1, dtype=np.int64)
    item_new[appearance] = np.arange(appearance.size)
    unseen = np.flatnonzero(~dropped & (item_new < 0))
    item_new[unseen] = np.arange(appearance.size, appearance.size + unseen.size)
    n_items_after = appearance.size + unseen.size
    matrix = InteractionMatrix.from_pairs(
        zip(user_new[rows], item_new[cols]),
        kept_users.size,
        n_items_after,
        user_ids=tuple(r.user_ids[u] for u in kept_users),
        item_ids=_reordered_ids(r.item_ids, item_new),
    )
    old_of_new = np.empty(n_items_after, dtype=np.int64)
    kept_items = np.flatnonzero(item_new >= 0)
    old_of_new[item_new[kept_items]] = kept_items
    return matrix, FeatureSet.create([(m, f.matrices[m][old_of_new]) for m in f.modalities])


def unique_canonicalize(r, f):
    """Canonical reindex through `np.unique` and zipped index pairs.

    The files `io.write_dataset(directory, r, f)` writes must hold this
    dataset byte for byte, and its errors must match.
    """
    counts_u = np.diff(r.matrix.indptr)
    if (counts_u == 0).any():
        bad = [r.user_ids[u] for u in np.flatnonzero(counts_u == 0)[:5]]
        raise InconsistentData(
            f"users without interactions cannot be serialized: {', '.join(bad)}"
        )
    stream = r.matrix.indices
    seen = np.zeros(r.n_items, dtype=bool)
    seen[stream] = True
    if not seen.all():
        bad = [r.item_ids[i] for i in np.flatnonzero(~seen)[:5]]
        raise InconsistentData(
            f"items without interactions cannot be serialized: {', '.join(bad)}"
        )
    _, first_pos = np.unique(stream, return_index=True)
    appearance = stream[np.sort(first_pos)]
    item_new = np.empty(r.n_items, dtype=np.int64)
    item_new[appearance] = np.arange(r.n_items)
    if (item_new == np.arange(r.n_items)).all():
        return r, f
    coo = r.matrix.tocoo()
    matrix = InteractionMatrix.from_pairs(
        zip(coo.row, item_new[coo.col]),
        r.n_users,
        r.n_items,
        user_ids=r.user_ids,
        item_ids=tuple(r.item_ids[i] for i in appearance),
    )
    reordered = FeatureSet(
        f.modalities,
        {m: f.matrices[m][appearance] for m in f.modalities},
        {m: f.masks[m][appearance] for m in f.modalities},
    )
    return matrix, reordered


def entry_lines(r):
    """Interaction-file text written one entry at a time."""
    return "".join(f"{r.user_ids[u]}\t{r.item_ids[i]}\n" for u, i in entries(r))


def per_config_sweep(
    r, f, methods, top_k_grid, hops_grid, hide_fraction, seed,
    alpha=0.85, cold_fallback="global-mean", iter_tolerance=1e-8,
):
    """Mask-and-recover sweep with one full `impute` call per configuration.

    The reference `run_sweep` must match row for row, and error for error:
    every (method, top-k, hops) point rebuilds its graph and reruns hops
    1..T from scratch.
    """
    for method in methods:
        if method not in METHODS:
            raise InvalidParameter(f"unknown method '{method}'")
    masked, hidden = mask_features(f, hide_fraction, seed)
    counts = cooccurrence(r) if any(m in GRAPH_METHODS for m in methods) else None
    rows = []
    grid_index = 0
    for method in methods:
        if method not in GRAPH_METHODS:
            combos = [(None, None)]
        elif method == "neigh-mean":
            combos = [(k, None) for k in top_k_grid]
        else:
            combos = [(k, t) for k in top_k_grid for t in hops_grid]
        for top_k, hops in combos:
            run_seed = _grid_seed(seed, grid_index)
            cfg = ImputeConfig(
                method=method,
                top_k=top_k if top_k is not None else 20,
                hops=hops if hops is not None else 10,
                alpha=alpha,
                seed=run_seed,
                cold_fallback=cold_fallback,
                iter_tolerance=iter_tolerance,
            )
            imputed, run_report = impute(masked, r, cfg, counts_graph=counts)
            metrics = reconstruction_metrics(imputed, hidden)
            rows.append(
                {
                    "grid_index": grid_index,
                    "method": method,
                    "top_k": top_k,
                    "hops": hops,
                    "alpha": alpha if method == "pers-pagerank" else None,
                    "run_seed": run_seed,
                    "metrics": metrics.as_dict(),
                    "modalities": run_report["modalities"],
                }
            )
            grid_index += 1
    return rows
