import re

import numpy as np
import pytest

from mmimpute import (
    EmptyDataset,
    GraphTooLarge,
    InvalidParameter,
    SingularDiffusion,
    build_interaction_matrix,
    cooccurrence,
    ppr_exact,
    ppr_iterative,
    sym_norm_adjacency,
    topk_sparsify,
)
from mmimpute.graph import InteractionMatrix, KIND_BINARY, KIND_COUNTS

from helpers import (
    binary_graph,
    brute_force_cooccurrence,
    coo_filter_cooccurrence,
    counts_graph,
    random_connected_graph,
    random_interactions,
)


def test_build_interaction_matrix_basic():
    r = build_interaction_matrix([("u1", "a"), ("u1", "b"), ("u2", "a")])
    assert (r.n_users, r.n_items, r.n_interactions) == (2, 2, 3)
    assert r.user_ids == ("u1", "u2")
    assert r.item_ids == ("a", "b")


def test_build_interaction_matrix_collapses_duplicates():
    r = build_interaction_matrix([("u1", "a"), ("u1", "a")])
    assert (r.n_users, r.n_items, r.n_interactions) == (1, 1, 1)


def test_build_interaction_matrix_first_appearance_order():
    r = build_interaction_matrix([("u2", "z"), ("u1", "z"), ("u1", "a")])
    assert r.user_ids == ("u2", "u1")
    assert r.item_ids == ("z", "a")


def test_build_interaction_matrix_empty():
    with pytest.raises(EmptyDataset):
        build_interaction_matrix([])


def test_interaction_matrix_rejects_duplicate_ids():
    with pytest.raises(InvalidParameter):
        InteractionMatrix.from_pairs([(0, 0)], 2, 1, user_ids=("u", "u"), item_ids=("i",))


@pytest.mark.parametrize(
    "pairs, bad",
    [
        ([(0, 0), (-1, 1), (5, 0)], "(-1, 1)"),
        ([(1, 1), (2, 0), (2, 3)], "(2, 0)"),
        (np.array([[0, 0], [1, 3], [-1, 0]]), "(1, 3)"),
    ],
    ids=["negative-user", "user-at-n_users", "item-at-n_items"],
)
def test_from_pairs_rejects_out_of_range(pairs, bad):
    # 2 users, 3 items; the message names the first bad pair
    with pytest.raises(InvalidParameter, match=re.escape(f"entry {bad} out of range")):
        InteractionMatrix.from_pairs(pairs, 2, 3)


def test_from_pairs_rejects_non_pairs():
    with pytest.raises(InvalidParameter, match="expected"):
        InteractionMatrix.from_pairs([(0, 1, 0), (1, 0, 0)], 2, 3)
    assert InteractionMatrix.from_pairs([], 2, 3).n_interactions == 0


def test_cooccurrence_shared_users():
    r = build_interaction_matrix([("u1", "a"), ("u1", "b"), ("u2", "a"), ("u2", "b")])
    g = cooccurrence(r)
    assert g.kind == KIND_COUNTS
    assert g.adjacency[0, 1] == 2
    assert g.adjacency[1, 0] == 2
    assert g.adjacency.diagonal().sum() == 0


def test_cooccurrence_disjoint_users_empty():
    r = build_interaction_matrix([("u1", "a"), ("u2", "b")])
    assert cooccurrence(r).adjacency.nnz == 0


def test_cooccurrence_three_items():
    r = build_interaction_matrix(
        [("u1", "a"), ("u1", "b"), ("u1", "c"), ("u2", "b"), ("u2", "c")]
    )
    g = cooccurrence(r)
    assert g.adjacency[0, 1] == 1
    assert g.adjacency[0, 2] == 1
    assert g.adjacency[1, 2] == 2


def test_cooccurrence_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(30):
        r = random_interactions(rng)
        got = cooccurrence(r).adjacency.toarray()
        assert np.array_equal(got, brute_force_cooccurrence(r))


def test_cooccurrence_arrays_match_coo_filter():
    rng = np.random.default_rng(23)
    cases = [random_interactions(rng) for _ in range(30)]
    # an item with no interactions stores no diagonal entry to clear
    cases.append(InteractionMatrix.from_pairs([(0, 0), (0, 1), (1, 1)], 2, 4))
    for r in cases:
        got = cooccurrence(r).adjacency
        expected = coo_filter_cooccurrence(r)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.has_sorted_indices


def test_cooccurrence_symmetry_and_determinism():
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = random_interactions(rng)
        a = cooccurrence(r).adjacency
        b = cooccurrence(r).adjacency
        assert (a != a.T).nnz == 0
        assert np.array_equal(a.toarray(), b.toarray())


def test_cooccurrence_permutation_equivariance():
    rng = np.random.default_rng(17)
    for _ in range(10):
        r = random_interactions(rng)
        perm = rng.permutation(r.n_items)
        coo = r.matrix.tocoo()
        permuted = InteractionMatrix.from_pairs(
            zip(coo.row, perm[coo.col]), r.n_users, r.n_items
        )
        a = cooccurrence(r).adjacency.toarray()
        b = cooccurrence(permuted).adjacency.toarray()
        assert np.array_equal(b[np.ix_(perm, perm)], a)


def test_topk_keeps_strongest():
    # row a: counts b=3, d=2, c=1; others mutually strong so they do not
    # re-select a beyond its own picks
    g = counts_graph(5, [(0, 1, 3), (0, 2, 1), (0, 3, 2), (1, 2, 9), (2, 3, 9), (1, 3, 9)])
    s = topk_sparsify(g, 2)
    assert s.kind == KIND_BINARY
    assert sorted(s.neighbors(0)) == [1, 3]


def test_topk_large_k_keeps_all():
    g = counts_graph(3, [(0, 1, 1), (0, 2, 5), (1, 2, 2)])
    s = topk_sparsify(g, 10)
    assert np.array_equal(s.adjacency.toarray(), (g.adjacency.toarray() > 0).astype(int))


def test_topk_tie_breaks_to_lower_index():
    # row a ties b and c at 2; b/c/d prefer partners other than a, and d
    # prefers e, so the union does not reinsert a's dropped edges
    g = counts_graph(
        5, [(0, 1, 2), (0, 2, 2), (0, 3, 1), (1, 2, 3), (3, 4, 5)]
    )
    s = topk_sparsify(g, 1)
    assert list(s.neighbors(0)) == [1]
    edges = {(i, j) for i, j in zip(*s.adjacency.nonzero()) if i < j}
    assert edges == {(0, 1), (1, 2), (3, 4)}


def test_topk_tie_rule_matches_exhaustive_sort():
    rng = np.random.default_rng(23)
    for _ in range(20):
        r = random_interactions(rng)
        g = cooccurrence(r)
        k = int(rng.integers(1, 5))
        s = topk_sparsify(g, k)
        dense = g.adjacency.toarray()
        expected = np.zeros_like(dense, dtype=bool)
        for i in range(g.n_items):
            nbrs = np.flatnonzero(dense[i])
            ranked = sorted(nbrs, key=lambda j: (-dense[i, j], j))[:k]
            for j in ranked:
                expected[i, j] = True
        expected |= expected.T  # union re-symmetrization
        assert np.array_equal(s.adjacency.toarray().astype(bool), expected)


def test_topk_rejects_zero():
    g = counts_graph(2, [(0, 1, 1)])
    with pytest.raises(InvalidParameter):
        topk_sparsify(g, 0)


def test_topk_empty_graph():
    r = build_interaction_matrix([("u1", "a"), ("u2", "b")])
    s = topk_sparsify(cooccurrence(r), 3)
    assert s.adjacency.nnz == 0
    assert np.array_equal(s.degrees, [0, 0])


def test_sym_norm_single_edge():
    op = sym_norm_adjacency(binary_graph(2, [(0, 1)]))
    assert op.matrix[0, 1] == 1.0


def test_sym_norm_path():
    op = sym_norm_adjacency(binary_graph(3, [(0, 1), (1, 2)]))
    assert op.matrix[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert op.matrix[0, 2] == 0.0
    assert op.matrix[1, 1] == 0.0  # no self term


def test_sym_norm_isolated_row_is_zero():
    op = sym_norm_adjacency(binary_graph(3, [(0, 1)]))
    assert op.matrix[2].nnz == 0


def test_ppr_exact_identity_at_alpha_one():
    g = random_connected_graph(np.random.default_rng(3), 8)
    op = ppr_exact(g, 1.0)
    assert np.allclose(op.matrix, np.eye(8), atol=1e-12)


def test_ppr_exact_two_node():
    op = ppr_exact(binary_graph(2, [(0, 1)]), 0.9)
    expected = np.array([[1.0125, 0.1125], [0.1125, 1.0125]])
    assert np.allclose(op.matrix, expected, atol=1e-12)


def test_ppr_exact_singular_at_half():
    with pytest.raises(SingularDiffusion) as excinfo:
        ppr_exact(binary_graph(2, [(0, 1)]), 0.5)
    assert "0.5" in str(excinfo.value)


def test_ppr_exact_consistency():
    # (alpha * B^-1) @ B == alpha * I
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 51))
        g = random_connected_graph(rng, n)
        alpha = float(rng.uniform(0.6, 0.95))
        op = ppr_exact(g, alpha)
        d = g.degrees.astype(float)
        b = np.eye(n)
        rows, cols = g.adjacency.nonzero()
        b[rows, cols] = -(1 - alpha) / np.sqrt(d[rows] * d[cols])
        b[np.arange(n), np.arange(n)] = 1 - (1 - alpha) / d
        assert np.max(np.abs(op.matrix @ b - alpha * np.eye(n))) < 1e-8


def test_ppr_exact_cap():
    g = binary_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphTooLarge):
        ppr_exact(g, 0.9, cap=2)


def test_ppr_alpha_validation():
    g = binary_graph(2, [(0, 1)])
    for alpha in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidParameter):
            ppr_exact(g, alpha)
        with pytest.raises(InvalidParameter):
            ppr_iterative(g, alpha)


def test_ppr_iterative_selfloop_matrix():
    op = ppr_iterative(binary_graph(3, [(0, 1), (1, 2)]), 0.9)
    a = op.matrix.toarray()
    assert a[0, 0] == 1.0  # 1/degree
    assert a[1, 1] == 0.5
    assert a[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
