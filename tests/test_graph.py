import dataclasses
import functools
import json
import multiprocessing
import os
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from mmimpute import (
    EmptyDataset,
    GraphTooLarge,
    ImputeConfig,
    InvalidParameter,
    ItemGraph,
    NormalizedOperator,
    SingularDiffusion,
    build_interaction_matrix,
    cooccurrence,
    impute,
    impute_pers_pagerank,
    ppr_exact,
    ppr_iterative,
    sym_norm_adjacency,
    topk_sparsify,
)
from mmimpute import graph
from mmimpute.graph import InteractionMatrix, KIND_BINARY, KIND_COUNTS

from helpers import (
    binary_graph,
    brute_force_cooccurrence,
    coo_filter_cooccurrence,
    counts_graph,
    neighbors,
    random_connected_graph,
    random_feature_set,
    random_interactions,
    row_list_topk_sparsify,
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
    assert sorted(neighbors(s, 0)) == [1, 3]


def test_topk_large_k_keeps_all():
    g = counts_graph(3, [(0, 1, 1), (0, 2, 5), (1, 2, 2)])
    s = topk_sparsify(g, 10)
    assert np.array_equal(s.adjacency.toarray(), (g.adjacency.toarray() > 0).astype(int))


def test_topk_beyond_the_index_range_keeps_all():
    g = counts_graph(3, [(0, 1, 1), (0, 2, 5), (1, 2, 2)])
    for k in (2**31, 2**70):  # no int32 index holds them
        assert graph_arrays(topk_sparsify(g, k)) == graph_arrays(topk_sparsify(g, 10))


def test_topk_tie_breaks_to_lower_index():
    # row a ties b and c at 2; b/c/d prefer partners other than a, and d
    # prefers e, so the union does not reinsert a's dropped edges
    g = counts_graph(
        5, [(0, 1, 2), (0, 2, 2), (0, 3, 1), (1, 2, 3), (3, 4, 5)]
    )
    s = topk_sparsify(g, 1)
    assert list(neighbors(s, 0)) == [1]
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


def tied_counts_graph(rng):
    """Symmetric counts graph with counts in 1..3, so most rows tie.

    Drawn either as a random dense pattern (some items isolated, some
    graphs without edges) or as the co-occurrence of random interactions.
    """
    if rng.random() < 0.5:
        return cooccurrence(random_interactions(rng))
    n = int(rng.integers(1, 40))
    upper = np.triu(rng.random((n, n)) < rng.choice([0.0, 0.05, 0.3, 0.9]), 1)
    counts = np.where(upper, rng.integers(1, 4, size=(n, n)), 0)
    return counts_graph(n, [(i, j, counts[i, j]) for i, j in zip(*np.nonzero(counts))])


def graph_arrays(g):
    a = g.adjacency
    return [(arr.dtype, arr.tobytes()) for arr in (a.indptr, a.indices, a.data, g.degrees)]


def test_topk_arrays_match_row_list_oracle():
    rng = np.random.default_rng(41)
    for _ in range(300):
        g = tied_counts_graph(rng)
        before = graph_arrays(g)
        top = int(g.degrees.max()) if g.degrees.size else 0
        for k in sorted({1, 2, int(rng.integers(1, top + 2)), max(top, 1), top + 3}):
            got, want = topk_sparsify(g, k), row_list_topk_sparsify(g, k)
            assert got.kind == want.kind == KIND_BINARY
            assert got.adjacency.shape == want.adjacency.shape
            assert graph_arrays(got) == graph_arrays(want)
            assert graph_arrays(g) == before  # the counts graph is reused across k


def test_topk_rejects_zero():
    g = counts_graph(2, [(0, 1, 1)])
    with pytest.raises(InvalidParameter):
        topk_sparsify(g, 0)


def test_topk_empty_graph():
    r = build_interaction_matrix([("u1", "a"), ("u2", "b")])
    s = topk_sparsify(cooccurrence(r), 3)
    assert s.adjacency.nnz == 0
    assert np.array_equal(s.degrees, [0, 0])


def test_degrees_are_the_adjacency_row_counts():
    a = binary_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]).adjacency
    degrees = ItemGraph(a, KIND_BINARY).degrees
    assert degrees.dtype == np.int64
    assert np.array_equal(degrees, np.diff(a.indptr)) and degrees.tolist() == [3, 1, 1, 2, 1]


def test_graph_types_store_only_what_cannot_be_derived():
    assert [f.name for f in dataclasses.fields(ItemGraph)] == ["adjacency", "kind"]
    assert [f.name for f in dataclasses.fields(NormalizedOperator)] == ["mode", "matrix"]


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


def test_ppr_exact_cap(monkeypatch):
    g = binary_graph(3, [(0, 1), (1, 2)])
    monkeypatch.setattr(graph, "PPR_EXACT_CAP", 2)
    with pytest.raises(GraphTooLarge):
        ppr_exact(g, 0.9)


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


@pytest.fixture
def force_blocks(monkeypatch):
    """`force(workers)` sets the usable-core count, with any product of work >= 2 split.

    It returns the list of (lo, hi) row blocks the blocked kernel runs from
    then on.
    """
    monkeypatch.setattr(graph, "MIN_BLOCK_WORK", 1)
    ran = []
    product_rows = graph.RowBlockedCSR._product_rows

    def recorded(self, x, out, lo, hi):
        ran.append((lo, hi))
        product_rows(self, x, out, lo, hi)

    monkeypatch.setattr(graph.RowBlockedCSR, "_product_rows", recorded)

    def force(workers):
        monkeypatch.setattr(graph, "_usable_cores", lambda: workers)
        ran.clear()
        return ran

    return force


@pytest.mark.skipif(graph.csr_matvecs is None, reason="this scipy has no csr_matvecs")
@pytest.mark.parametrize("fault", ["one-ulp-off", "raises"])
def test_a_kernel_that_disagrees_is_never_split_over(force_blocks, monkeypatch, fault):
    assert graph._kernel_agrees.__wrapped__()  # scipy's own kernel passes the check
    kernel = graph.csr_matvecs

    def faulty(*args):
        if fault == "raises":
            raise TypeError("csr_matvecs() takes exactly 9 arguments")
        kernel(*args)
        out = args[-1]
        out[-1] = np.nextafter(out[-1], np.inf)

    monkeypatch.setattr(graph, "csr_matvecs", faulty)
    monkeypatch.setattr(graph, "_kernel_agrees", functools.cache(graph._kernel_agrees.__wrapped__))
    rng = np.random.default_rng(62)
    ran = force_blocks(2)
    for name, op in blocked_cases():
        x = rng.standard_normal((op.shape[1], 7))
        assert (op @ x).tobytes() == sp.csr_matrix.__matmul__(op, x).tobytes(), name
    assert ran == [] and not graph._kernel_agrees()


def blocked_cases():
    """(name, operator) pairs covering the shapes a row split can get wrong."""
    rng = np.random.default_rng(61)
    hub = [(0, j) for j in range(1, 40)] + [(1, 2), (3, 4)]  # row 0 holds most entries
    return [
        ("ppr", ppr_iterative(random_connected_graph(rng, 50), 0.5).matrix),
        ("empty-rows", sym_norm_adjacency(binary_graph(9, [(1, 2), (2, 5), (7, 8)])).matrix),
        ("hub", sym_norm_adjacency(binary_graph(40, hub)).matrix),
        ("zero-rows", graph.RowBlockedCSR((0, 7))),
        ("row-slice", sym_norm_adjacency(random_connected_graph(rng, 30)).matrix[[3, 9, 9, 20]]),
    ]


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_blocked_product_has_the_bits_of_one_thread(force_blocks, workers):
    rng = np.random.default_rng(workers)
    for name, op in blocked_cases():
        assert type(op) is graph.RowBlockedCSR, name  # row slices keep the type
        for cols in (1, 2, 7):
            x = rng.standard_normal((op.shape[1], cols))
            ran = force_blocks(workers)
            got = op @ x
            want = sp.csr_matrix.__matmul__(op, x)
            assert type(got) is np.ndarray and got.shape == want.shape, (name, cols)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, cols)
            if workers > 1 and cols > 1 and op.nnz:
                # the blocks tile the rows in order, and the split did run
                bounds = [lo for lo, _ in sorted(ran)] + [op.shape[0]]
                assert sorted(ran) == list(zip(bounds[:-1], bounds[1:])), (name, cols)
                assert len(ran) == workers, (name, cols)
            else:
                assert ran == [], (name, cols)


def test_other_operands_take_the_scipy_product(force_blocks):
    op = ppr_iterative(random_connected_graph(np.random.default_rng(62), 40), 0.5).matrix
    x = np.random.default_rng(63).standard_normal((40, 6))
    operands = {
        "1-D": x[:, 0].copy(),
        "float32": x.astype(np.float32),
        "fortran": np.asfortranarray(x),
        "strided": x[:, ::2],
        "sparse": sp.csr_matrix(x),
    }
    for name, operand in operands.items():
        ran = force_blocks(4)
        got = op @ operand
        want = sp.csr_matrix.__matmul__(op, operand)
        if sp.issparse(want):
            got, want = got.toarray(), want.toarray()
        assert ran == [], name
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_single_block_never_starts_the_pool(monkeypatch):
    def no_pool():
        raise AssertionError("the pool was started")

    monkeypatch.setattr(graph, "_thread_pool", no_pool)
    rng = np.random.default_rng(64)
    g = random_connected_graph(rng, 30)
    f = random_feature_set(rng, 30, dim=4)
    op = sym_norm_adjacency(g).matrix
    x = rng.standard_normal((30, 4))
    for cores, min_work in ((1, 1), (4, 10**9)):  # one core; too little work
        monkeypatch.setattr(graph, "_usable_cores", lambda n=cores: n)
        monkeypatch.setattr(graph, "MIN_BLOCK_WORK", min_work)
        assert np.array_equal(op @ x, sp.csr_matrix.__matmul__(op, x))
        impute_pers_pagerank(f, g, 0.85, 2)  # the fixed point's row pass too


def test_concurrent_callers_share_the_pool(force_blocks, monkeypatch):
    # more callers and blocks than cores, frequent thread switches, and a
    # pool that every caller may race to start
    op = ppr_iterative(random_connected_graph(np.random.default_rng(67), 200), 0.5).matrix
    xs = [np.random.default_rng(seed).standard_normal((200, 5)) for seed in range(8)]
    want = [[sp.csr_matrix.__matmul__(op, x).tobytes()] * 20 for x in xs]
    force_blocks(8)
    graph._thread_pool.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as callers:
            got = list(callers.map(lambda x: [(op @ x).tobytes() for _ in range(20)], xs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def interactions_of_graph(g):
    """One user per edge of `g`, so `cooccurrence` returns `g` with counts 1."""
    rows, cols = sp.triu(g.adjacency).nonzero()
    pairs = np.column_stack((np.repeat(np.arange(rows.size), 2), np.column_stack((rows, cols)).ravel()))
    return InteractionMatrix.from_pairs(pairs, rows.size, g.n_items)


# PPR solves d/4 columns at a time, and a one-column product is never
# split, so its case needs d >= 8 to split any product
@pytest.mark.parametrize("method, dim", [("multihop", 6), ("pers-pagerank", 8)], ids=["multihop", "pers-pagerank"])
@pytest.mark.parametrize("clamp", [True, False], ids=["clamped", "no-clamp"])
def test_impute_has_the_same_bits_on_any_worker_count(force_blocks, method, dim, clamp):
    rng = np.random.default_rng(65)
    g = random_connected_graph(rng, 120)
    r = interactions_of_graph(g)
    assert np.array_equal(cooccurrence(r).adjacency.toarray(), g.adjacency.toarray())
    f = random_feature_set(rng, 120, dim=dim)
    cfg = ImputeConfig(method=method, top_k=200, hops=4, clamp=clamp, iter_tolerance=1e-9)
    runs = []
    for workers in (1, 4):
        ran = force_blocks(workers)
        out, report = impute(f, r, cfg)
        del report["timing"]
        runs.append((out.matrices["m"].tobytes(), json.dumps(report, sort_keys=True)))
        assert bool(ran) == (workers > 1)
    assert runs[0] == runs[1]


def test_forked_child_starts_its_own_pool(force_blocks):
    # the child has none of the parent's threads; jobs sent to the
    # parent's pool would never run
    op = sym_norm_adjacency(random_connected_graph(np.random.default_rng(66), 30)).matrix
    x = np.ones((30, 3))
    force_blocks(2)
    want = (op @ x).tobytes()
    assert graph._thread_pool.cache_info().currsize == 1
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_exit_with_product, args=(op, x, want))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def _exit_with_product(op, x, want):
    os._exit(0 if (op @ x).tobytes() == want else 1)


def test_interaction_matrix_ids_must_fit_the_matrix():
    matrix = sp.csr_matrix(np.ones((2, 3), dtype=np.int64))
    with pytest.raises(InvalidParameter, match=r"^id vocabularies do not match the matrix shape$"):
        InteractionMatrix(matrix, ("u0", "u1"), ("i0", "i1"))
    with pytest.raises(InvalidParameter, match=r"^duplicate item ids$"):
        InteractionMatrix.from_pairs([(0, 0), (1, 1)], 2, 2, item_ids=("a", "a"))


def test_operators_refuse_the_wrong_graph_kind():
    binary = binary_graph(3, [(0, 1), (1, 2)])
    counts = counts_graph(3, [(0, 1, 2), (1, 2, 1)])
    with pytest.raises(InvalidParameter, match=r"^top-k sparsification expects a counts graph$"):
        topk_sparsify(binary, 2)
    with pytest.raises(InvalidParameter, match=r"^a binary \(sparsified\) item graph is required$"):
        sym_norm_adjacency(counts)


def test_ppr_exact_refuses_an_ill_conditioned_system():
    # just above alpha 0.5 the two-item system is nearly singular: condition ~5e12
    message = r"ill-conditioned at alpha=0\.5000000000001 \(condition ~5\.00e\+12\)"
    with pytest.raises(SingularDiffusion, match=message):
        ppr_exact(binary_graph(2, [(0, 1)]), 0.5 + 1e-13)
