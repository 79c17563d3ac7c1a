"""Shared builders and independent oracles for the test suite."""

import numpy as np
import scipy.sparse as sp

from mmimpute import FeatureSet, InteractionMatrix
from mmimpute.graph import ItemGraph, KIND_BINARY, KIND_COUNTS


def binary_graph(n, edges):
    """Symmetric binary ItemGraph from undirected (i, j) pairs."""
    rows = [i for i, j in edges] + [j for i, j in edges]
    cols = [j for i, j in edges] + [i for i, j in edges]
    a = sp.coo_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n)
    ).tocsr()
    a.data[:] = 1
    a.sort_indices()
    return ItemGraph(a, KIND_BINARY, np.diff(a.indptr).astype(np.int64))


def counts_graph(n, weighted_edges):
    """Counts ItemGraph from undirected (i, j, count) triples."""
    rows, cols, data = [], [], []
    for i, j, c in weighted_edges:
        rows += [i, j]
        cols += [j, i]
        data += [c, c]
    a = sp.coo_matrix((np.asarray(data, dtype=np.int64), (rows, cols)), shape=(n, n)).tocsr()
    a.sort_indices()
    return ItemGraph(a, KIND_COUNTS, np.diff(a.indptr).astype(np.int64))


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
    """Single-modality FeatureSet; masked rows are zeroed placeholders."""
    matrix = np.asarray(matrix, dtype=np.float64).copy()
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
    for u, i in r.iter_entries():
        users_of[i].add(u)
    counts = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                counts[i, j] = len(users_of[i] & users_of[j])
    return counts


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
    return ItemGraph(a, g.kind, np.diff(a.indptr).astype(np.int64))


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
