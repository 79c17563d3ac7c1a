import json
import re
import tracemalloc

import numpy as np
import pytest

from mmimpute import (
    EmptyDataset,
    FeatureSet,
    HiddenRows,
    ImputeConfig,
    InconsistentData,
    InvalidParameter,
    METHODS,
    MmImputeError,
    build_interaction_matrix,
    dataset_stats,
    drop_missing,
    impute,
    mask_features,
    reconstruction_metrics,
    run_sweep,
    synth_generate,
)
from mmimpute import evaluate, features, imputers, io
from mmimpute.graph import InteractionMatrix, cooccurrence, ppr_iterative, topk_sparsify
from mmimpute.io import FEATURE_MAGIC, _HEADER, write_dataset

from helpers import (
    entries,
    entry_lines,
    feature_set,
    lexsort_drop_reindex,
    per_config_sweep,
    random_interactions,
    unique_canonicalize,
)


def small_dataset():
    r = build_interaction_matrix(
        [("u1", "a"), ("u1", "b"), ("u2", "c"), ("u3", "a"), ("u3", "c")]
    )
    f = FeatureSet.create(
        [("visual", np.arange(6, dtype=float).reshape(3, 2)), ("text", np.ones((3, 2)))],
        {
            "visual": np.zeros(3, dtype=bool),
            "text": np.array([False, False, True]),
        },
    )
    f = FeatureSet(
        f.modalities,
        {m: np.where(f.masks[m][:, None], 0.0, f.matrices[m]) for m in f.modalities},
        f.masks,
    )
    return r, f


def test_dataset_stats_counts():
    r = build_interaction_matrix([("u1", "a"), ("u1", "b"), ("u2", "a"), ("u2", "c")])
    f = FeatureSet.create(
        [("V", np.zeros((3, 2))), ("T", np.zeros((3, 2)))],
        {"V": np.zeros(3, dtype=bool), "T": np.array([True, False, False])},
    )
    stats = dataset_stats(r, f)
    assert (stats.n_users, stats.n_items, stats.n_interactions) == (2, 3, 4)
    assert stats.missing == {"V": 0, "T": 1}


def test_dataset_stats_empty_mask():
    r, f = small_dataset()
    f2 = FeatureSet.create([(m, f.matrices[m]) for m in f.modalities])
    assert dataset_stats(r, f2).missing == {"visual": 0, "text": 0}


def test_drop_missing_cascade():
    # item c is missing text; u2 interacted only with c
    r, f = small_dataset()
    r2, items, before, after = drop_missing(r, f)
    f2 = f.select(items)
    assert before.n_items == 3 and after.n_items == 2
    assert before.n_users == 3 and after.n_users == 2
    assert "u2" not in r2.user_ids
    assert "c" not in r2.item_ids
    assert f2.n_items == 2
    assert not any(f2.masks[m].any() for m in f2.modalities)
    assert after.missing == {"visual": 0, "text": 0}


def test_drop_missing_identity_when_complete():
    r, f = small_dataset()
    complete = FeatureSet.create([(m, f.matrices[m]) for m in f.modalities])
    r2, items, before, after = drop_missing(r, complete)
    assert r2 is r and items.tolist() == list(range(r.n_items))
    assert before.as_dict() == after.as_dict()


def test_drop_missing_all_items():
    r = build_interaction_matrix([("u1", "a")])
    f = feature_set([[0.0]], [True])
    with pytest.raises(EmptyDataset):
        drop_missing(r, f)


def test_drop_missing_counts_and_orphans():
    rng = np.random.default_rng(31)
    for _ in range(25):
        r = random_interactions(rng)
        mask = rng.random(r.n_items) < 0.3
        if mask.all():
            mask[0] = False
        feats = rng.standard_normal((r.n_items, 3))
        f = feature_set(feats, mask)
        try:
            r2, items, before, after = drop_missing(r, f)
        except EmptyDataset:
            continue
        assert after.n_items == before.n_items - int(mask.sum())
        dropped_pairs = sum(1 for _, i in entries(r) if mask[i])
        assert after.n_interactions == before.n_interactions - dropped_pairs
        assert (np.diff(r2.matrix.indptr) > 0).all()  # no orphaned users


def test_drop_missing_fixed_point():
    r, f = small_dataset()
    r2, items, _, first = drop_missing(r, f)
    f2 = f.select(items)
    r3, items, _, second = drop_missing(r2, f2)
    f3 = f2.select(items)
    assert first.as_dict() == second.as_dict()
    assert r3.user_ids == r2.user_ids
    assert r3.item_ids == r2.item_ids
    assert np.array_equal(r3.matrix.toarray(), r2.matrix.toarray())
    for m in f2.modalities:
        assert np.array_equal(f3.matrices[m], f2.matrices[m])


def test_drop_missing_keeps_feature_alignment():
    r, f = small_dataset()
    r2, items, _, _ = drop_missing(r, f)
    f2 = f.select(items)
    for new_idx, item_id in enumerate(r2.item_ids):
        old_idx = r.item_ids.index(item_id)
        assert np.array_equal(f2.matrices["visual"][new_idx], f.matrices["visual"][old_idx])


def test_drop_missing_preserves_isolated_items():
    # directly built datasets may contain items without interactions
    r = InteractionMatrix.from_pairs([(0, 0), (1, 1)], 2, 3)
    f = feature_set(np.ones((3, 2)), [False, True, False])
    r2, items, before, after = drop_missing(r, f)
    assert after.n_items == 2
    assert r2.item_ids == ("i0", "i2")  # isolated kept item goes last


def random_reindex_case(rng, isolated):
    """Random dataset with shuffled ids and two modalities.

    With `isolated`, one item column is emptied; otherwise every user and
    item has at least one interaction. The masks are drawn separately.
    """
    n_users = int(rng.integers(1, 25))
    n_items = int(rng.integers(2, 25))
    dense = rng.random((n_users, n_items)) < rng.uniform(0.05, 0.5)
    if isolated:
        dense[:, rng.integers(0, n_items)] = False
    else:
        dense[rng.integers(0, n_users, n_items), np.arange(n_items)] = True
        dense[np.arange(n_users), rng.integers(0, n_items, n_users)] = True
    rows, cols = np.nonzero(dense)
    r = InteractionMatrix.from_pairs(
        np.column_stack((rows, cols)),
        n_users,
        n_items,
        user_ids=tuple(f"user{k}" for k in rng.permutation(n_users)),
        item_ids=tuple(f"item{k}" for k in rng.permutation(n_items)),
    )
    matrices = [
        ("text", rng.standard_normal((n_items, 3))),
        ("visual", rng.standard_normal((n_items, 2))),
    ]
    return r, matrices


def random_masks(rng, n_items, kind):
    masks = {"text": np.zeros(n_items, dtype=bool), "visual": np.zeros(n_items, dtype=bool)}
    if kind == "all-but-one":
        masks["text"][:] = True
        masks["text"][rng.integers(0, n_items)] = False
    elif kind == "random":
        masks["text"] = rng.random(n_items) < 0.3
        masks["visual"] = rng.random(n_items) < 0.1
    return masks


def assert_same_dataset(got, want):
    (r1, f1), (r2, f2) = got, want
    assert r1.matrix.shape == r2.matrix.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(r1.matrix, name), getattr(r2.matrix, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert r1.user_ids == r2.user_ids
    assert r1.item_ids == r2.item_ids
    assert f1.modalities == f2.modalities
    for m in f2.modalities:
        assert f1.matrices[m].tobytes() == f2.matrices[m].tobytes()
        assert f1.masks[m].tobytes() == f2.masks[m].tobytes()


def outcome(fn, *args):
    try:
        return fn(*args)
    except (EmptyDataset, InconsistentData) as exc:
        return type(exc), str(exc)


def drop_and_select(r, f):
    r2, items, _, _ = drop_missing(r, f)
    return r2, f.select(items)


def test_reindex_matches_pair_oracles(tmp_path):
    rng = np.random.default_rng(11)
    seen = {"isolated": 0, "all-but-one": 0, "reordered": 0}
    for case in range(60):
        isolated = case % 2 == 0
        kind = ("all-but-one", "random", "none")[case % 3]
        r, matrices = random_reindex_case(rng, isolated)
        f = FeatureSet.create(matrices, random_masks(rng, r.n_items, kind))
        seen["isolated"] += isolated
        seen["all-but-one"] += kind == "all-but-one"

        want = outcome(lexsort_drop_reindex, r, f)
        got = outcome(drop_and_select, r, f)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert_same_dataset(got, want)

        # write_dataset reorders as it writes: its files hold the oracle's dataset
        want = outcome(unique_canonicalize, r, f)
        got = outcome(write_dataset, tmp_path / str(case), r, f)
        if isinstance(want[0], type):
            assert got == want
            continue
        r2, f2 = want
        assert got["features"] == {m: f"{m}.fmat" for m in f2.modalities}
        seen["reordered"] += r2 is not r
        written = tmp_path / str(case)
        assert (written / "interactions.tsv").read_text(encoding="utf-8") == entry_lines(r2)
        for m, mat in f2.matrices.items():
            assert (written / f"{m}.fmat").read_bytes() == (
                _HEADER.pack(FEATURE_MAGIC, *mat.shape) + mat.astype("<f4").tobytes()
            )
    assert min(seen.values()) >= 10, seen


def test_drop_output_is_canonical():
    rng = np.random.default_rng(12)
    for case in range(50):
        r, matrices = random_reindex_case(rng, isolated=False)
        masks = random_masks(rng, r.n_items, ("all-but-one", "random")[case % 2])
        if not masks["text"].any():
            masks["text"][rng.integers(0, r.n_items)] = True
        if (masks["text"] | masks["visual"]).all():
            continue
        f = FeatureSet.create(matrices, masks)
        assert io._canonical_order(drop_missing(r, f)[0]) is None


def test_mask_features_counts_and_determinism():
    rng = np.random.default_rng(3)
    f = feature_set(rng.standard_normal((10, 3)), [False] * 10)
    masked, hidden = mask_features(f, 0.2, seed=7)
    again, hidden2 = mask_features(f, 0.2, seed=7)
    assert hidden.indices["m"].shape == (2,)
    assert np.array_equal(hidden.indices["m"], hidden2.indices["m"])
    assert np.array_equal(masked.matrices["m"], again.matrices["m"])
    # hidden rows are zero placeholders, originals preserved in truth
    assert np.array_equal(
        masked.matrices["m"][hidden.indices["m"]], np.zeros((2, 3))
    )
    assert np.array_equal(hidden.values["m"], f.matrices["m"][hidden.indices["m"]])


def test_mask_features_respects_existing_mask():
    f = feature_set(np.ones((10, 2)), [True] + [False] * 9)
    masked, hidden = mask_features(f, 0.5, seed=0)
    assert 0 not in hidden.indices["m"]
    assert masked.masks["m"][0]


def test_mask_features_zero_rows_rejected():
    f = feature_set(np.ones((4, 2)), [False] * 4)
    with pytest.raises(InvalidParameter):
        mask_features(f, 0.1, seed=0)
    with pytest.raises(InvalidParameter):
        mask_features(f, 1.5, seed=0)


def test_reconstruction_metrics_perfect():
    truth = HiddenRows({"m": np.array([0, 2])}, {"m": np.array([[1.0, 2.0], [3.0, 4.0]])})
    f = feature_set([[1.0, 2.0], [9.0, 9.0], [3.0, 4.0]], [False] * 3)
    report = reconstruction_metrics(f, truth)
    metrics = report.per_modality["m"]
    assert metrics.rmse == 0.0
    assert metrics.mean_cosine == pytest.approx(1.0)
    assert metrics.n_evaluated == 2
    assert metrics.n_cosine_excluded == 0


def test_reconstruction_metrics_negated():
    truth = HiddenRows({"m": np.array([0])}, {"m": np.array([[1.0, -2.0]])})
    f = feature_set([[-1.0, 2.0]], [False])
    metrics = reconstruction_metrics(f, truth).per_modality["m"]
    assert metrics.mean_cosine == pytest.approx(-1.0)


def test_reconstruction_metrics_zero_norm_excluded():
    truth = HiddenRows({"m": np.array([0])}, {"m": np.array([[3.0, 4.0]])})
    f = feature_set([[0.0, 0.0]], [False])
    metrics = reconstruction_metrics(f, truth).per_modality["m"]
    # sqrt((9 + 16) / 2)
    assert metrics.rmse == pytest.approx(np.sqrt(12.5), abs=1e-12)
    assert metrics.mean_cosine is None
    assert metrics.n_cosine_excluded == 1


def test_reconstruction_metrics_row_order_invariant():
    rng = np.random.default_rng(9)
    idx = np.array([1, 3, 5, 7])
    values = rng.standard_normal((4, 6))
    imputed = feature_set(rng.standard_normal((9, 6)), [False] * 9)
    a = reconstruction_metrics(imputed, HiddenRows({"m": idx}, {"m": values}))
    shuffle = np.array([2, 0, 3, 1])
    b = reconstruction_metrics(
        imputed, HiddenRows({"m": idx[shuffle]}, {"m": values[shuffle]})
    )
    am, bm = a.per_modality["m"], b.per_modality["m"]
    assert am.rmse == pytest.approx(bm.rmse, rel=1e-12)
    assert am.mean_cosine == pytest.approx(bm.mean_cosine, rel=1e-12)


def test_synth_block_structure():
    r, f = synth_generate(40, 20, 2, 0.5, 0.0, [("m", 4)], 0.1, seed=1)
    community_u = np.arange(40) % 2
    community_i = np.arange(20) % 2
    for u, i in entries(r):
        assert community_u[u] == community_i[i]


def synth_bytes(*args):
    r, f = synth_generate(*args)
    m = r.matrix
    return [m.indptr.tobytes(), m.indices.tobytes(), *(f.matrices[k].tobytes() for k in f.modalities)]


@pytest.mark.parametrize("entries", [1, 37, 171 * 3, 10**9])
def test_synth_does_not_depend_on_the_draw_block(monkeypatch, entries):
    # one user row per block, a few rows with a remainder, and one draw
    args = (301, 171, 7, 0.3, 0.02, [("x", 3), ("y", 5)], 0.2, 9)
    monkeypatch.setattr(features, "ROW_BLOCK_ENTRIES", 10**9)
    whole = synth_bytes(*args)
    monkeypatch.setattr(features, "ROW_BLOCK_ENTRIES", entries)
    assert synth_bytes(*args) == whole


def test_synth_memory_stays_below_the_dense_draw():
    # the users x items uniforms alone would take 24 MB
    n_users, n_items = 3000, 1000
    tracemalloc.start()
    try:
        r, _ = synth_generate(n_users, n_items, 4, 0.01, 0.001, [("m", 2)], 0.1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.n_interactions > 5000
    assert peak <= 8 * 2**20 < 8 * n_users * n_items


def test_synth_zero_noise_shares_centroids():
    _, f = synth_generate(30, 12, 3, 0.5, 0.1, [("m", 5)], 0.0, seed=2)
    mat = f.matrices["m"]
    for c in range(3):
        rows = mat[np.arange(12) % 3 == c]
        assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))


def test_synth_determinism_and_dims():
    a_r, a_f = synth_generate(25, 15, 4, 0.4, 0.05, [("x", 3), ("y", 6)], 0.2, seed=5)
    b_r, b_f = synth_generate(25, 15, 4, 0.4, 0.05, [("x", 3), ("y", 6)], 0.2, seed=5)
    assert np.array_equal(a_r.matrix.toarray(), b_r.matrix.toarray())
    for m in ("x", "y"):
        assert a_f.matrices[m].tobytes() == b_f.matrices[m].tobytes()
    assert a_f.dim("x") == 3 and a_f.dim("y") == 6


def test_synth_parameter_validation():
    with pytest.raises(InvalidParameter):
        synth_generate(10, 10, 0, 0.5, 0.1, [("m", 2)], 0.1, 0)
    with pytest.raises(InvalidParameter):
        synth_generate(10, 10, 2, 0.2, 0.5, [("m", 2)], 0.1, 0)
    with pytest.raises(InvalidParameter):
        synth_generate(0, 10, 2, 0.5, 0.1, [("m", 2)], 0.1, 0)
    # sizes, the community count and dimensions must be integers
    for (n_users, n_items, n_communities, dims), message in [
        ((20.5, 10, 2, [("m", 4)]), "n_users must be an integer, got 20.5"),
        ((20, 10.0, 2, [("m", 4)]), "n_items must be an integer, got 10.0"),
        ((20, 10, 2.0, [("m", 4)]), "n_communities must be an integer, got 2.0"),
        ((20, 10, 2, [("m", 4.5)]), "modality 'm': dimension must be an integer, got 4.5"),
    ]:
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            synth_generate(n_users, n_items, n_communities, 0.5, 0.1, dims, 0.1, 0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_synth_rejects_non_finite_noise(sigma):
    with pytest.raises(InvalidParameter):
        synth_generate(10, 10, 2, 0.5, 0.1, [("m", 2)], sigma, 0)


def test_run_sweep_grid_shape():
    r, f = synth_generate(60, 30, 3, 0.5, 0.05, [("m", 8)], 0.1, seed=4)
    rows = run_sweep(
        r, f,
        methods=["zeros", "neigh-mean", "multihop"],
        top_k_grid=[5, 10],
        hops_grid=[1, 2, 3],
        hide_fraction=0.2,
        seed=11,
    )
    # zeros once, neigh-mean per top-k, multihop per top-k x hops
    assert len(rows) == 1 + 2 + 6
    assert [row["grid_index"] for row in rows] == list(range(9))
    zeros_row = rows[0]
    assert zeros_row["top_k"] is None and zeros_row["hops"] is None
    assert all(row["metrics"]["m"]["n_evaluated"] > 0 for row in rows)


def test_reports_and_sweep_rows_of_numpy_integers_serialize():
    # counts are held as Python ints, so json.dumps takes the report and the rows
    r, f = synth_generate(60, 30, 3, 0.5, 0.05, [("m", 8)], 0.1, seed=4)
    cfg = ImputeConfig(method="multihop", top_k=np.int64(5), hops=np.int32(2), seed=np.uint64(3))
    assert [type(v) for v in (cfg.top_k, cfg.hops, cfg.seed)] == [int, int, int]
    json.dumps(impute(mask_features(f, 0.2, seed=1)[0], r, cfg)[1])
    rows = run_sweep(r, f, ["neigh-mean", "multihop"], np.array([5]), np.array([1, 2]), 0.2, np.int64(0))
    json.dumps(rows)
    assert [(row["top_k"], row["hops"]) for row in rows] == [(5, None), (5, 1), (5, 2)]


def test_run_sweep_unknown_method():
    r, f = synth_generate(20, 10, 2, 0.5, 0.1, [("m", 4)], 0.1, seed=4)
    with pytest.raises(InvalidParameter):
        run_sweep(r, f, ["nope"], [5], [1], 0.2, 0)


def test_run_sweep_refuses_a_repeated_method_before_any_work(monkeypatch):
    r, f = synth_generate(20, 10, 2, 0.5, 0.1, [("m", 4)], 0.1, seed=4)

    def no_work(*args):
        raise AssertionError("the methods are checked before any row is hidden")

    monkeypatch.setattr(evaluate, "mask_features", no_work)
    with pytest.raises(InvalidParameter, match="^method 'zeros' given twice$"):
        run_sweep(r, f, ["zeros", "zeros"], [5], [1], 0.2, 0)


def sweep_outcome(sweep, *args, **kwargs):
    """The rows as JSON, or the error type and message."""
    try:
        return json.dumps(sweep(*args, **kwargs))
    except MmImputeError as exc:
        return type(exc).__name__, str(exc)


def test_run_sweep_matches_per_config_oracle():
    # one propagation per (method, top-k) must give the rows, or the
    # error, of one full impute call per grid point
    rng = np.random.default_rng(2024)
    top_k_grids = [[1, 3], [3, 1, 3], [2], []]
    hops_grids = [[1, 2, 3], [3, 1, 3, 2], [4], [], [2, 0, 1], [0]]
    kinds = set()
    cold_hidden = 0
    for case in range(48):
        base = random_interactions(rng, max_users=12, max_items=14)
        n_items = base.n_items + 2  # the last two items have no interactions
        r = InteractionMatrix.from_pairs(
            np.column_stack(base.matrix.nonzero()), base.n_users, n_items
        )
        dims = {"a": 3, "b": 2}
        matrices, masks = {}, {}
        for m, dim in dims.items():
            mask = rng.random(n_items) < 0.2
            mask[-1] = m == "a"
            matrices[m] = np.where(mask[:, None], 0.0, rng.standard_normal((n_items, dim)))
            masks[m] = mask
        f = FeatureSet(tuple(dims), matrices, masks)
        seed = int(rng.integers(0, 2**32))
        hops_grid = hops_grids[case % len(hops_grids)]
        kwargs = dict(
            methods=list(METHODS),
            top_k_grid=top_k_grids[case % len(top_k_grids)],
            hops_grid=hops_grid,
            hide_fraction=0.5,
            seed=seed,
            cold_fallback=("zeros", "global-mean")[case % 2],
            iter_tolerance=1e-6,
        )
        want = sweep_outcome(per_config_sweep, r, f, **kwargs)
        assert sweep_outcome(run_sweep, r, f, **kwargs) == want, case
        kinds.add(type(want).__name__)
        if isinstance(want, tuple):
            continue
        _, hidden = mask_features(f, 0.5, seed)
        for idx in hidden.indices.values():  # hidden rows that are cold in every graph
            cold_hidden += int(np.isin(idx, [n_items - 2, n_items - 1]).sum())
    assert kinds == {"str", "tuple"}
    assert cold_hidden > 0


def test_run_sweep_matches_per_config_oracle_when_the_masked_block_does_not_fit():
    # 19 of 25 rows of a 1-column modality are masked, so the dense block P
    # (|M|^2 floats) exceeds 4 n d and each PPR run is cut to one solve per hop
    rng = np.random.default_rng(5)
    r = random_interactions(rng, 30, 30)
    assert r.n_items == 25
    mask = np.zeros(25, dtype=bool)
    mask[rng.permutation(25)[:19]] = True
    f = feature_set(np.where(mask[:, None], 0.0, rng.standard_normal((25, 1))), mask)
    kwargs = dict(
        methods=list(METHODS), top_k_grid=[3, 5], hops_grid=[1, 2, 4],
        hide_fraction=0.5, seed=0, iter_tolerance=1e-6,
    )
    assert not imputers._masked_block_fits(mask_features(f, 0.5, 0)[0], "m")
    want = sweep_outcome(per_config_sweep, r, f, **kwargs)
    assert isinstance(want, str)
    assert sweep_outcome(run_sweep, r, f, **kwargs) == want


@pytest.mark.parametrize(
    "hops_grid,alpha",
    [([1, 3], 0.5), ([3, 0], 0.5), ([0, 3], 0.5), ([2], 1.5), ([], 1.5)],
    ids=["divergent", "divergent-before-hop-0", "hop-0-first", "alpha-out-of-range", "empty-hops"],
)
def test_run_sweep_errors_match_per_config_oracle(hops_grid, alpha):
    # alpha=0.5 diverges on the two-node graph (test_ppr_divergent_at_half)
    r = build_interaction_matrix([("u1", "a"), ("u1", "b")])
    f = FeatureSet.create([("x", np.array([[1.0, 2.0], [3.0, 4.0]])), ("y", np.eye(2))])
    kwargs = dict(
        methods=["multihop", "pers-pagerank"],
        top_k_grid=[1, 2],
        hops_grid=hops_grid,
        hide_fraction=0.5,
        seed=3,
        alpha=alpha,
    )
    want = sweep_outcome(per_config_sweep, r, f, **kwargs)
    assert sweep_outcome(run_sweep, r, f, **kwargs) == want
    assert isinstance(want, str) == (hops_grid == [])


def test_run_sweep_names_the_first_failing_configuration():
    # Modality x is orthogonal to the one divergent mode of this graph at
    # alpha=0.35, so its first hop converges and only its second diverges;
    # y diverges at once. The deep run fails on x's second hop, but a
    # sweep over hops [1, 2] must report the 1-hop configuration's error,
    # which is y's.
    edges = [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)]
    r = build_interaction_matrix(
        [(f"u{k}", f"i{i}") for k, edge in enumerate(edges) for i in edge]
    )
    a_sl = ppr_iterative(topk_sparsify(cooccurrence(r), 10), 0.35).matrix.toarray()
    top = np.linalg.eigh(a_sl)[1][:, -1]  # eigenvalue 1.567; 0.65 * 1.567 > 1
    rng = np.random.default_rng(0)
    values = {m: rng.standard_normal((5, 1)) for m in ("x", "y")}
    _, hidden = mask_features(FeatureSet.create(list(values.items())), 0.4, 0)
    observed = np.setdiff1d(np.arange(5), hidden.indices["x"])
    x, e = values["x"][observed, 0], top[observed]
    values["x"][observed, 0] = x - e * (x @ e) / (e @ e)
    f = FeatureSet.create(list(values.items()))
    kwargs = dict(
        methods=["pers-pagerank"], top_k_grid=[10], hops_grid=[1, 2],
        hide_fraction=0.4, seed=0, alpha=0.35,
    )
    want = sweep_outcome(per_config_sweep, r, f, **kwargs)
    assert sweep_outcome(run_sweep, r, f, **kwargs) == want
    deep = dict(kwargs, hops_grid=[2])
    assert want[0] == "DivergentDiffusion"
    assert sweep_outcome(per_config_sweep, r, f, **deep)[1] != want[1]


def test_reconstruction_metrics_refuses_mismatched_truth():
    f = FeatureSet.create([("visual", np.ones((3, 2)))])
    missing = HiddenRows({"text": np.array([0])}, {"text": np.ones((1, 2))})
    with pytest.raises(InvalidParameter, match=r"^imputed features lack modality 'text'$"):
        reconstruction_metrics(f, missing)
    wrong_width = HiddenRows({"visual": np.array([0, 2])}, {"visual": np.ones((2, 3))})
    with pytest.raises(InvalidParameter, match=r"^modality 'visual': hidden row shapes do not match$"):
        reconstruction_metrics(f, wrong_width)


def test_synth_generate_error_paths():
    with pytest.raises(InvalidParameter, match=r"^at least one modality dimension is required$"):
        synth_generate(3, 3, 1, 0.9, 0.1, [], 0.1, 0)
    with pytest.raises(EmptyDataset, match=r"^no interactions were sampled"):
        synth_generate(3, 3, 1, 1e-12, 0, [("text", 2)], 0.1, 0)
