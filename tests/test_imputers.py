import dataclasses
import gc
import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from mmimpute import (
    DivergentDiffusion,
    FeatureSet,
    ImputeConfig,
    InconsistentData,
    InteractionMatrix,
    InvalidParameter,
    NoObservedFeatures,
    build_interaction_matrix,
    cooccurrence,
    impute,
    impute_global_mean,
    impute_multihop,
    impute_neigh_mean,
    impute_pers_pagerank,
    impute_random,
    impute_zeros,
    ppr_iterative,
    sym_norm_adjacency,
    topk_sparsify,
)

import mmimpute.imputers
from mmimpute import graph
from mmimpute.features import FALLBACKS
from mmimpute.imputers import _ppr_fixed_point

from helpers import (
    binary_graph,
    dense_ppr_propagate,
    expression_fixed_point,
    feature_set,
    full_matrix_propagate,
    naive_neigh_mean,
    random_connected_graph,
    random_feature_set,
    random_interactions,
)


def test_zeros_fills_and_clears_mask():
    f = feature_set(np.arange(15).reshape(5, 3), [False, True, False, True, False])
    out = impute_zeros(f)
    assert np.array_equal(out.matrices["m"][1], [0, 0, 0])
    assert np.array_equal(out.matrices["m"][3], [0, 0, 0])
    assert not out.masks["m"].any()
    # untouched rows byte-identical
    for i in (0, 2, 4):
        assert out.matrices["m"][i].tobytes() == f.matrices["m"][i].tobytes()


def test_zeros_identity_without_mask():
    f = feature_set(np.random.default_rng(0).standard_normal((4, 3)), [False] * 4)
    out = impute_zeros(f)
    assert np.array_equal(out.matrices["m"], f.matrices["m"])


def test_random_determinism_and_range():
    f = feature_set(np.ones((6, 4)), [False, True, True, False, False, True])
    a = impute_random(f, seed=99)
    b = impute_random(f, seed=99)
    c = impute_random(f, seed=100)
    assert a.matrices["m"].tobytes() == b.matrices["m"].tobytes()
    masked = f.masks["m"]
    assert not np.array_equal(a.matrices["m"][masked], c.matrices["m"][masked])
    assert np.array_equal(a.matrices["m"][~masked], c.matrices["m"][~masked])
    assert (a.matrices["m"][masked] >= 0).all()
    assert (a.matrices["m"][masked] < 1).all()


def test_global_mean_two_rows():
    f = feature_set([[0, 2], [2, 4], [0, 0]], [False, False, True])
    out = impute_global_mean(f)
    assert np.array_equal(out.matrices["m"][2], [1, 3])


def test_global_mean_single_row():
    f = feature_set([[5, 7], [0, 0]], [False, True])
    out = impute_global_mean(f)
    assert np.array_equal(out.matrices["m"][1], [5, 7])


def test_global_mean_arithmetic():
    f = feature_set([[1], [2], [6], [0]], [False, False, False, True])
    out = impute_global_mean(f)
    assert out.matrices["m"][3, 0] == 3.0


def test_global_mean_all_missing():
    f = feature_set(np.zeros((2, 2)), [True, True])
    with pytest.raises(NoObservedFeatures):
        impute_global_mean(f)


def test_neigh_mean_two_neighbors():
    g = binary_graph(3, [(0, 1), (1, 2)])
    f = feature_set([[1, 3], [0, 0], [3, 5]], [False, True, False])
    out = impute_neigh_mean(f, g)
    assert np.array_equal(out.matrices["m"][1], [2, 4])


def test_neigh_mean_masked_neighbor_contributes_zero():
    g = binary_graph(2, [(0, 1)])
    f = feature_set([[0, 0], [0, 0]], [True, True])
    out = impute_neigh_mean(f, g, fallback="zeros")
    assert np.array_equal(out.matrices["m"], np.zeros((2, 2)))


def test_neigh_mean_dilution_by_masked_neighbor():
    # b averages a known row and a zero placeholder
    g = binary_graph(3, [(0, 1), (1, 2)])
    f = feature_set([[4.0], [0.0], [0.0]], [False, True, True])
    out = impute_neigh_mean(f, g, fallback="zeros")
    assert out.matrices["m"][1, 0] == 2.0


def test_neigh_mean_fallbacks():
    g = binary_graph(3, [(0, 1)])  # item 2 isolated
    f = feature_set([[2, 2], [4, 6], [0, 0]], [False, False, True])
    gm = impute_neigh_mean(f, g, fallback="global-mean")
    assert np.array_equal(gm.matrices["m"][2], [3, 4])
    zz = impute_neigh_mean(f, g, fallback="zeros")
    assert np.array_equal(zz.matrices["m"][2], [0, 0])


def test_neigh_mean_checks_fallback_without_cold_items():
    g = binary_graph(2, [(0, 1)])  # no isolated item: the fallback is never used
    f = feature_set([[1.0], [0.0]], [False, True])
    with pytest.raises(InvalidParameter, match="unknown cold_fallback 'bogus'"):
        impute_neigh_mean(f, g, fallback="bogus")


def test_neigh_mean_matches_naive_loop():
    rng = np.random.default_rng(1234)
    for _ in range(30):
        n = int(rng.integers(2, 31))
        g = random_connected_graph(rng, n)
        f = random_feature_set(rng, n)
        out = impute_neigh_mean(f, g, fallback="zeros")
        expected = naive_neigh_mean(
            f.matrices["m"], f.masks["m"], g, np.zeros(f.dim("m"))
        )
        assert np.array_equal(out.matrices["m"], expected)


def path_graph_and_features():
    g = binary_graph(3, [(0, 1), (1, 2)])
    f = feature_set([[1.0], [0.0], [3.0]], [False, True, False])
    return g, f


def test_multihop_single_edge_copies_value():
    g = binary_graph(2, [(0, 1)])
    f = feature_set([[1.0], [0.0]], [False, True])
    out = impute_multihop(f, sym_norm_adjacency(g), 1)
    assert out.matrices["m"][1, 0] == pytest.approx(1.0, abs=1e-12)


def test_multihop_path_one_and_two_hops():
    g, f = path_graph_and_features()
    op = sym_norm_adjacency(g)
    expected = 4 / np.sqrt(2)
    one = impute_multihop(f, op, 1)
    two = impute_multihop(f, op, 2)
    assert one.matrices["m"][1, 0] == pytest.approx(expected, abs=1e-12)
    assert two.matrices["m"][1, 0] == pytest.approx(expected, abs=1e-12)


def test_multihop_rejects_bad_args():
    g, f = path_graph_and_features()
    with pytest.raises(InvalidParameter):
        impute_multihop(f, sym_norm_adjacency(g), 0)


def test_multihop_no_clamp_differs():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 12)
    f = random_feature_set(rng, 12)
    clamped = impute_multihop(f, sym_norm_adjacency(g), 5, clamp=True)
    free = impute_multihop(f, sym_norm_adjacency(g), 5, clamp=False)
    masked = f.masks["m"]
    assert not np.array_equal(clamped.matrices["m"][masked], free.matrices["m"][masked])
    # observed rows still byte-identical either way
    assert np.array_equal(free.matrices["m"][~masked], f.matrices["m"][~masked])


def test_ppr_alpha_one_equals_zeros():
    rng = np.random.default_rng(21)
    g = random_connected_graph(rng, 10)
    f = random_feature_set(rng, 10)
    zeros = impute_zeros(f)
    out = impute_pers_pagerank(f, g, 1.0, 3)
    assert np.array_equal(out.matrices["m"], zeros.matrices["m"])


def test_ppr_two_node_both_modes():
    g = binary_graph(2, [(0, 1)])
    f = feature_set([[1.0], [0.0]], [False, True])
    dense = dense_ppr_propagate(f, g, 0.9, 1)["m"]
    assert dense[1, 0] == pytest.approx(0.1125, abs=1e-9)
    iterative = impute_pers_pagerank(f, g, 0.9, 1)
    assert iterative.matrices["m"][1, 0] == pytest.approx(0.1125, abs=1e-6)


def test_ppr_divergent_at_half():
    g = binary_graph(2, [(0, 1)])
    f = feature_set([[1.0], [0.0]], [False, True])
    with pytest.raises(DivergentDiffusion):
        impute_pers_pagerank(f, g, 0.5, 1)


def test_ppr_modes_agree():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        g = random_connected_graph(rng, n)
        f = random_feature_set(rng, n)
        for alpha in (0.6, 0.75, 0.9):
            a = dense_ppr_propagate(f, g, alpha, 5)["m"]
            b = impute_pers_pagerank(f, g, alpha, 5, iter_tolerance=1e-10)
            assert np.max(np.abs(a - b.matrices["m"])) < 1e-6


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_ppr_fixed_point_is_scale_invariant(scale):
    # the residual is relative to max|x0|: tiny features no longer stop
    # after one step, and huge ones no longer stall into a false divergence
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 300)
    base = random_feature_set(rng, 300)
    f = feature_set(scale * base.matrices["m"], base.masks["m"])
    dense = dense_ppr_propagate(f, g, 0.85, 3)["m"]
    out = impute_pers_pagerank(f, g, 0.85, 3).matrices["m"]
    assert np.max(np.abs(out - dense)) <= 1e-6 * np.max(np.abs(dense))


def test_ppr_fixed_point_zero_input_stops_at_once():
    g = binary_graph(3, [(0, 1), (1, 2)])
    a_sl = ppr_iterative(g, 0.85).matrix
    x, steps, residual = _ppr_fixed_point(a_sl, 0.85, np.zeros((3, 2)), 1e-8)
    assert (steps, residual) == (1, 0.0)
    assert not x.any()


@pytest.mark.parametrize("workers", [1, 4])
def test_ppr_fixed_point_memory_stays_flat(monkeypatch, workers):
    # a step allocates only its product, and the dead iterate is freed
    # before the next one: no job or closure may keep it alive
    monkeypatch.setattr(graph, "MIN_BLOCK_WORK", 1)
    monkeypatch.setattr(graph, "_usable_cores", lambda: workers)
    rng = np.random.default_rng(8)
    a_sl = ppr_iterative(random_connected_graph(rng, 2048), 0.5).matrix
    x0 = rng.standard_normal((2048, 64))  # 1 MiB
    tracemalloc.start()
    try:
        _, steps, _ = _ppr_fixed_point(a_sl, 0.5, x0, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps > 3
    assert peak <= 3 * x0.nbytes + 64 * 1024


def test_ppr_fixed_point_nan_in_one_block_is_divergence(monkeypatch):
    # one component overflows to a NaN change while the other converges:
    # the residual over the row blocks must be NaN, not the other block's
    monkeypatch.setattr(graph, "MIN_BLOCK_WORK", 1)
    monkeypatch.setattr(graph, "_usable_cores", lambda: 2)
    a_sl = ppr_iterative(binary_graph(4, [(0, 1), (2, 3)]), 0.9).matrix
    x0 = np.array([[1.0, 1.0], [1.0, 1.0], [1e308, 1e308], [1e308, 1e308]])
    with warnings.catch_warnings(), pytest.raises(DivergentDiffusion, match=r"last residual nan\)"):
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow, in whichever thread
        _ppr_fixed_point(a_sl, 0.9, x0, 1e-8)


def test_ppr_fixed_point_blocks_follow_the_callers_errstate(monkeypatch):
    # the overflow happens in the second row block, which a pool thread runs
    monkeypatch.setattr(graph, "MIN_BLOCK_WORK", 1)
    monkeypatch.setattr(graph, "_usable_cores", lambda: 2)
    a_sl = ppr_iterative(binary_graph(4, [(0, 1), (2, 3)]), 0.9).matrix
    x0 = np.array([[1.0, 1.0], [1.0, 1.0], [1e308, 1e308], [1e308, 1e308]])
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        _ppr_fixed_point(a_sl, 0.9, x0, 1e-8)
    with np.errstate(all="ignore"), pytest.raises(DivergentDiffusion):
        _ppr_fixed_point(a_sl, 0.9, x0, 1e-8)  # no RuntimeWarning, which fails the suite


def fixed_point_outcome(solve, *args):
    try:
        x, steps, residual = solve(*args)
    except DivergentDiffusion as exc:
        return "diverged", str(exc)
    return x.dtype, x.shape, x.tobytes(), steps, residual


def test_ppr_fixed_point_matches_expression_oracle():
    rng = np.random.default_rng(4242)
    cases = []
    for case in range(80):
        n = int(rng.integers(2, 30))
        a_sl = ppr_iterative(random_connected_graph(rng, n), 0.5).matrix
        alpha = float(rng.uniform(0.1, 0.99))
        tolerance = float(10.0 ** rng.uniform(-11, -3))
        scale = float(10.0 ** rng.uniform(-9, 9))
        x0 = scale * rng.standard_normal((n, int(rng.integers(1, 6))))
        if case % 10 == 0:
            x0[:] = 0.0
        cases.append((a_sl, alpha, x0, tolerance))
        cases.append((a_sl, alpha, np.zeros((n, 0)), tolerance))
    two_node = ppr_iterative(binary_graph(2, [(0, 1)]), 0.5).matrix
    cases.append((two_node, 0.5, np.array([[1.0], [0.0]]), 1e-8))
    for k, args in enumerate(cases):
        got = fixed_point_outcome(_ppr_fixed_point, *args)
        assert got == fixed_point_outcome(expression_fixed_point, *args), k
    assert got[0] == "diverged"


def test_masked_row_kernel_matches_full_matrix_loop():
    rng = np.random.default_rng(2111)
    for case in range(50):
        n = int(rng.integers(2, 25))
        g = random_connected_graph(rng, n)
        feats = rng.standard_normal((n, int(rng.integers(1, 6))))
        mask = np.zeros(n, dtype=bool)
        if case % 3 == 0:  # exactly one masked row
            mask[int(rng.integers(0, n))] = True
        elif case % 3 == 1:  # every row but one masked
            mask[:] = True
            mask[int(rng.integers(0, n))] = False
        else:
            mask[rng.permutation(n)[: int(rng.integers(1, n))]] = True
        f = feature_set(feats, mask)
        hops = int(rng.integers(1, 6))
        alpha = 0.85
        s = sym_norm_adjacency(g).matrix
        a_sl = ppr_iterative(g, alpha).matrix
        runs = [
            (lambda: impute_multihop(f, sym_norm_adjacency(g), hops),
             lambda m, t, x: s @ x, True),
            (lambda: impute_multihop(f, sym_norm_adjacency(g), hops, clamp=False),
             lambda m, t, x: s @ x, False),
            (lambda: impute_pers_pagerank(f, g, alpha, hops),
             lambda m, t, x: expression_fixed_point(a_sl, alpha, x, 1e-8)[0], True),
        ]
        for k, (run, apply_op, clamp) in enumerate(runs):
            expected = full_matrix_propagate(f, hops, apply_op, clamp)["m"]
            assert run().matrices["m"].tobytes() == expected.tobytes(), (case, k)


def test_fully_observed_modality_is_copied_through():
    rng = np.random.default_rng(12)
    n = 14
    g = random_connected_graph(rng, n)
    masked = random_feature_set(rng, n, name="text")
    full = rng.standard_normal((n, 3))
    f = FeatureSet(
        ("text", "visual"),
        {"text": masked.matrices["text"], "visual": full},
        {"text": masked.masks["text"], "visual": np.zeros(n, dtype=bool)},
    )
    seen = []

    def hook(modality, t, x):
        seen.append(modality)

    runs = [
        impute_multihop(f, sym_norm_adjacency(g), 4, on_iteration=hook),
        impute_multihop(f, sym_norm_adjacency(g), 4, clamp=False, on_iteration=hook),
        impute_pers_pagerank(f, g, 0.85, 4, on_iteration=hook),
    ]
    assert seen == ["text"] * 12
    for out in runs:
        assert out.matrices["visual"].tobytes() == full.tobytes()
    r = build_interaction_matrix([(f"u{i}", f"i{i + d}") for i in range(n - 1) for d in (0, 1)])
    cfg = ImputeConfig(method="pers-pagerank", hops=3)
    _, report = impute(f, r, cfg)
    assert len(report["modalities"]["text"]["fixed_point_steps"]) == 3
    assert report["modalities"]["visual"]["fixed_point_steps"] == []
    assert report["modalities"]["visual"]["fixed_point_residuals"] == []


def test_nothing_masked_never_diverges():
    # alpha=0.5 diverges on this graph (test_ppr_divergent_at_half), but
    # with nothing to impute nothing is propagated
    g = binary_graph(2, [(0, 1)])
    f = feature_set([[1.0], [2.0]], [False, False])
    out = impute_pers_pagerank(f, g, 0.5, 1)
    assert out.matrices["m"].tobytes() == f.matrices["m"].tobytes()


def all_method_runs(f, g):
    op = sym_norm_adjacency(g)
    return {
        "zeros": lambda: impute_zeros(f),
        "random": lambda: impute_random(f, 3),
        "global-mean": lambda: impute_global_mean(f),
        "neigh-mean": lambda: impute_neigh_mean(f, g),
        "multihop": lambda: impute_multihop(f, op, 4),
        "pers-pagerank": lambda: impute_pers_pagerank(f, g, 0.85, 4),
    }


def test_noninterference_all_methods():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        g = random_connected_graph(rng, n)
        f = random_feature_set(rng, n)
        observed = ~f.masks["m"]
        for name, run in all_method_runs(f, g).items():
            out = run()
            assert (
                out.matrices["m"][observed].tobytes()
                == f.matrices["m"][observed].tobytes()
            ), name
            assert not out.masks["m"].any()


def test_clamping_holds_every_iteration():
    rng = np.random.default_rng(66)
    g = random_connected_graph(rng, 15)
    f = random_feature_set(rng, 15)
    observed = ~f.masks["m"]
    pinned = f.matrices["m"][observed].tobytes()
    seen = []

    def check(modality, t, x):
        seen.append(t)
        assert x[observed].tobytes() == pinned

    impute_multihop(f, sym_norm_adjacency(g), 6, on_iteration=check)
    assert seen == list(range(1, 7))
    seen.clear()
    impute_pers_pagerank(f, g, 0.85, 6, on_iteration=check)
    assert seen == list(range(1, 7))


def test_determinism_all_methods():
    rng = np.random.default_rng(88)
    g = random_connected_graph(rng, 12)
    f = random_feature_set(rng, 12)
    for name, run in all_method_runs(f, g).items():
        assert run().matrices["m"].tobytes() == run().matrices["m"].tobytes(), name


def test_scale_homogeneity_linear_methods():
    # scaling by a power of two commutes with rounding, so equality is exact
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, 14)
    f = random_feature_set(rng, 14)
    doubled = FeatureSet.create(
        [("m", 2.0 * f.matrices["m"])], {"m": f.masks["m"]}
    )
    op = sym_norm_adjacency(g)
    pairs = [
        (impute_neigh_mean(f, g), impute_neigh_mean(doubled, g)),
        (impute_multihop(f, op, 4), impute_multihop(doubled, op, 4)),
        (
            impute_pers_pagerank(f, g, 0.85, 4),
            impute_pers_pagerank(doubled, g, 0.85, 4),
        ),
    ]
    for base, scaled in pairs:
        assert np.array_equal(2.0 * base.matrices["m"], scaled.matrices["m"])


def two_modality_dataset():
    r = build_interaction_matrix(
        [("u1", "a"), ("u1", "b"), ("u2", "a"), ("u2", "b"), ("u3", "c"), ("u3", "a")]
    )
    f = FeatureSet.create(
        [("visual", np.arange(9, dtype=float).reshape(3, 3)), ("text", np.ones((3, 2)))],
        {
            "visual": np.array([False, True, False]),
            "text": np.array([False, False, True]),
        },
    )
    f = FeatureSet(
        f.modalities,
        {m: np.where(f.masks[m][:, None], 0.0, f.matrices[m]) for m in f.modalities},
        f.masks,
    )
    return r, f


def test_dispatch_zeros_matches_direct():
    r, f = two_modality_dataset()
    out, report = impute(f, r, ImputeConfig(method="zeros"))
    direct = impute_zeros(f)
    for m in f.modalities:
        assert np.array_equal(out.matrices[m], direct.matrices[m])
    assert report["method"] == "zeros"
    assert report["modalities"]["visual"]["imputed_rows"] == 1
    assert report["modalities"]["text"]["imputed_rows"] == 1
    assert "wall_s" in report["timing"]


def test_dispatch_ppr_default_beyond_dense_cap():
    # 2,101 items is past the 2,000-item cap of the dense solve; the
    # default configuration runs the fixed point there
    n = 2101
    r = build_interaction_matrix([(f"u{i}", f"i{i + d}") for i in range(n - 1) for d in (0, 1)])
    rng = np.random.default_rng(4)
    f = random_feature_set(rng, n, dim=3)
    out, report = impute(f, r, ImputeConfig(method="pers-pagerank"))
    steps = report["modalities"]["m"]["fixed_point_steps"]
    assert len(steps) == 10 and all(s >= 1 for s in steps)
    observed = ~f.masks["m"]
    assert out.matrices["m"][observed].tobytes() == f.matrices["m"][observed].tobytes()


def test_dispatch_neigh_mean_isolated_zero_fallback():
    r = build_interaction_matrix([("u1", "a"), ("u1", "b"), ("u2", "c")])
    mat = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    f = FeatureSet.create([("m", mat)], {"m": np.array([False, False, True])})
    out, _ = impute(f, r, ImputeConfig(method="neigh-mean", cold_fallback="zeros"))
    assert np.array_equal(out.matrices["m"][2], [0.0, 0.0])


def test_dispatch_cold_fallback_applies_to_diffusion():
    r = build_interaction_matrix([("u1", "a"), ("u1", "b"), ("u2", "c")])
    mat = np.array([[1.0, 3.0], [3.0, 5.0], [0.0, 0.0]])
    f = FeatureSet.create([("m", mat)], {"m": np.array([False, False, True])})
    for method in ("multihop", "pers-pagerank"):
        out, report = impute(f, r, ImputeConfig(method=method, cold_fallback="global-mean"))
        assert np.array_equal(out.matrices["m"][2], [2.0, 4.0]), method
        assert report["modalities"]["m"]["cold_items"] == 1


def test_dispatch_iterative_reports_steps():
    r, f = two_modality_dataset()
    cfg = ImputeConfig(method="pers-pagerank", hops=3)
    _, report = impute(f, r, cfg)
    for m in f.modalities:
        steps = report["modalities"][m]["fixed_point_steps"]
        assert len(steps) == 3
        assert all(s >= 1 for s in steps)


def test_modality_independence():
    r, f = two_modality_dataset()
    out, _ = impute(f, r, ImputeConfig(method="multihop", hops=2))
    # text result is unchanged if the visual matrix changes
    altered = FeatureSet(
        f.modalities,
        {"visual": f.matrices["visual"] + np.where(f.masks["visual"][:, None], 0.0, 7.0),
         "text": f.matrices["text"]},
        f.masks,
    )
    out2, _ = impute(altered, r, ImputeConfig(method="multihop", hops=2))
    assert np.array_equal(out.matrices["text"], out2.matrices["text"])


@pytest.mark.parametrize("method", ["multihop", "pers-pagerank"])
def test_impute_hook_sees_each_depth(method):
    # at hop t the hook sees, byte for byte, what impute returns with
    # hops=t: cold masked rows (the last two items have no interactions)
    # hold the fallback; passing the hook changes nothing
    rng = np.random.default_rng(8)
    n = 18
    pairs = [(u, int(i)) for u in range(12) for i in rng.choice(n - 2, 3, replace=False)]
    r = InteractionMatrix.from_pairs(pairs, 12, n)
    matrices, masks = {}, {}
    for m, dim in (("text", 3), ("visual", 2)):
        masks[m] = rng.random(n) < 0.3
        masks[m][-2:] = True
        masks[m][0] = False
        matrices[m] = np.where(masks[m][:, None], 0.0, rng.standard_normal((n, dim)))
    f = FeatureSet(("text", "visual"), matrices, masks)
    cfg = ImputeConfig(method=method, top_k=2, hops=5)
    seen = {}

    def hook(m, t, x):
        seen[m, t] = x.tobytes()

    hooked, hooked_report = impute(f, r, cfg, on_iteration=hook)
    plain, plain_report = impute(f, r, cfg)
    for report in (hooked_report, plain_report):
        report.pop("timing")
    assert json.dumps(hooked_report) == json.dumps(plain_report)
    assert all(d["cold_items"] >= 2 for d in plain_report["modalities"].values())
    assert sorted(seen) == [(m, t) for m in f.modalities for t in range(1, 6)]
    for t in range(1, 6):
        out, _ = impute(f, r, dataclasses.replace(cfg, hops=t))
        for m in f.modalities:
            assert seen[m, t] == out.matrices[m].tobytes(), (m, t)
            assert out.matrices[m][-1].any()  # the global-mean fallback
    for m in f.modalities:
        assert hooked.matrices[m].tobytes() == plain.matrices[m].tobytes()


@pytest.mark.parametrize("method", ["multihop", "pers-pagerank"])
def test_impute_frees_its_counts_graph_before_the_first_hop(method, monkeypatch):
    # only topk_sparsify reads the counts graph: one that impute builds is
    # gone by the first hop, and one the caller passes is theirs to reuse
    rng = np.random.default_rng(8)
    r = InteractionMatrix.from_pairs(
        [(u, int(i)) for u in range(12) for i in rng.choice(16, 3, replace=False)], 12, 18
    )
    f = random_feature_set(rng, r.n_items, dim=3, missing=0.4)
    cfg = ImputeConfig(method=method, top_k=2, hops=3)
    built, alive = [], []

    def recorded_cooccurrence(r):
        counts = cooccurrence(r)
        built.append(weakref.ref(counts))
        return counts

    def hook(m, t, x):
        gc.collect()
        alive.append(built[0]() is not None)

    monkeypatch.setattr(mmimpute.imputers, "cooccurrence", recorded_cooccurrence)
    own, _ = impute(f, r, cfg, on_iteration=hook)
    assert len(built) == 1 and alive == [False] * cfg.hops
    counts = cooccurrence(r)
    arrays = [a.copy() for a in (counts.adjacency.indptr, counts.adjacency.indices,
                                 counts.adjacency.data, counts.degrees)]
    for _ in range(2):
        shared, _ = impute(f, r, cfg, counts_graph=counts)
        assert shared.matrices["m"].tobytes() == own.matrices["m"].tobytes()
    after = (counts.adjacency.indptr, counts.adjacency.indices, counts.adjacency.data, counts.degrees)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(arrays, after))
    assert len(built) == 1


def test_impute_hook_restores_cold_placeholders():
    # Items 0-3 are observed and form an eigenvector of A_sl with
    # eigenvalue 1, so each fixed point converges in one step. Item 4 is
    # masked and cold. Were its fallback (nonzero here) left in place after
    # the hook, the next fixed point would read it and take another step.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2)]
    r = InteractionMatrix.from_pairs(
        [(u, i) for u, edge in enumerate(edges) for i in edge], len(edges), 5
    )
    v = np.array([0.0, 0.5**0.5, 0.5**0.5, -1.0, 0.0])
    f = feature_set(np.column_stack((v, 2 * v)), [False] * 4 + [True])
    cfg = ImputeConfig(method="pers-pagerank", top_k=3, hops=3)
    _, plain = impute(f, r, cfg)
    _, hooked = impute(f, r, cfg, on_iteration=lambda m, t, x: None)
    assert plain["modalities"]["m"]["fixed_point_steps"] == [1, 1, 1]
    assert hooked["modalities"] == plain["modalities"]


def test_missing_fallback_is_raised_before_the_first_hop():
    # `a` is all masked and item 2 is cold, so the global-mean fallback has
    # no observed row; `b` diverges at alpha 0.5 on the two-item component.
    # The fallback error comes first, hook or not, before any fixed point
    r = InteractionMatrix.from_pairs([(0, 0), (0, 1), (1, 2)], 2, 3)
    f = FeatureSet.create(
        [("a", np.zeros((3, 1))), ("b", np.array([[1.0], [0.0], [2.0]]))],
        {"a": np.ones(3, dtype=bool), "b": np.array([False, True, False])},
    )
    cfg = ImputeConfig(method="pers-pagerank", alpha=0.5)
    with pytest.raises(DivergentDiffusion):
        impute(f, r, dataclasses.replace(cfg, cold_fallback="zeros"))
    seen = []
    for hook in (None, lambda m, t, x: seen.append((m, t))):
        with pytest.raises(NoObservedFeatures, match="modality 'a' has no observed rows"):
            impute(f, r, cfg, on_iteration=hook)
    assert seen == []


@pytest.mark.parametrize("seed", range(12))
def test_all_masked_modality_without_cold_items(seed):
    # every item has a neighbor, so no fallback is needed: the graph
    # methods fill the all-masked modality with its zero placeholders and
    # leave the other one's observed rows as they are
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    edges = np.argwhere(np.triu(random_connected_graph(rng, n).adjacency.toarray()))
    r = InteractionMatrix.from_pairs(
        [(u, i) for u, edge in enumerate(edges) for i in edge], len(edges), n
    )
    other = random_feature_set(rng, n, dim=3, name="b")
    f = FeatureSet.create(
        [("a", np.zeros((n, 2))), ("b", other.matrices["b"])],
        {"a": np.ones(n, dtype=bool), "b": other.masks["b"]},
    )
    observed = ~f.masks["b"]
    for method in ("neigh-mean", "multihop", "pers-pagerank"):
        for fallback in FALLBACKS:
            cfg = ImputeConfig(method=method, top_k=int(rng.integers(1, 4)), cold_fallback=fallback)
            out, report = impute(f, r, cfg)
            assert [d["cold_items"] for d in report["modalities"].values()] == [0, 0]
            assert out.matrices["a"].tobytes() == np.zeros((n, 2)).tobytes()
            assert out.matrices["b"][observed].tobytes() == f.matrices["b"][observed].tobytes()
    with pytest.raises(NoObservedFeatures, match="modality 'a'"):
        impute(f, r, ImputeConfig(method="global-mean"))


def graph_stage_datasets():
    """(name, interactions, top_k) for three corner cases of the top-k graph."""
    rng = np.random.default_rng(13)
    # one item per user: no co-interactions; the last item has no user
    no_edges = InteractionMatrix.from_pairs([(u, u) for u in range(6)], 6, 7)
    # item 0 shares a user with every other item; top-k 2 keeps the hub
    # only through the other endpoints' picks
    hub = InteractionMatrix.from_pairs(
        [(u, 0) for u in range(8)] + [(u, u + 1) for u in range(8)] + [(0, 2), (3, 5)], 8, 9
    )
    # random, plus one item with no user; top-k far above every degree
    r = random_interactions(rng, max_users=20, max_items=15)
    above = InteractionMatrix.from_pairs(
        np.column_stack(r.matrix.nonzero()), r.n_users, r.n_items + 1
    )
    return [("no-edges", no_edges, 3), ("hub", hub, 2), ("top-k-above", above, 10**6)]


def cold_reference(r, mask):
    """Masked items that share no user with any other item, from dense counts."""
    m = r.matrix.toarray()
    counts = m.T @ m
    np.fill_diagonal(counts, 0)
    return mask & ~(counts > 0).any(axis=1)


GRAPH_STAGE_DATASETS = graph_stage_datasets()


@pytest.mark.parametrize("fallback", ["zeros", "global-mean"])
@pytest.mark.parametrize("method", ["neigh-mean", "multihop", "pers-pagerank"])
@pytest.mark.parametrize(
    "name, r, top_k", GRAPH_STAGE_DATASETS, ids=[d[0] for d in GRAPH_STAGE_DATASETS]
)
def test_graph_stage_corner_cases(name, r, top_k, method, fallback):
    rng = np.random.default_rng(len(name))
    feats, mask = rng.standard_normal((r.n_items, 3)), rng.random(r.n_items) < 0.5
    mask[0], mask[-1] = False, True  # one observed row, and the userless item is cold
    f = feature_set(feats, mask)
    cfg = ImputeConfig(method=method, top_k=top_k, hops=3, cold_fallback=fallback)
    out, report = impute(f, r, cfg)
    x, observed, cold = out.matrices["m"], ~mask, cold_reference(r, mask)
    assert x[observed].tobytes() == f.matrices["m"][observed].tobytes()
    want = np.zeros(3) if fallback == "zeros" else f.matrices["m"][observed].mean(axis=0)
    assert np.array_equal(x[cold], np.broadcast_to(want, (int(cold.sum()), 3)))
    assert report["modalities"]["m"]["cold_items"] == int(cold.sum())
    assert np.isfinite(x).all() and not out.masks["m"].any()
    if name == "no-edges":
        assert np.array_equal(cold, mask)
    if name == "hub":
        assert topk_sparsify(cooccurrence(r), top_k).degrees[0] == r.n_items - 1
    if name == "top-k-above":  # no edge is dropped: the same as top-k at the largest degree
        top = int(cooccurrence(r).degrees.max())
        same, _ = impute(f, r, dataclasses.replace(cfg, top_k=top))
        assert same.matrices["m"].tobytes() == x.tobytes()


@pytest.mark.parametrize("method", ["neigh-mean", "multihop", "pers-pagerank"])
def test_impute_rejects_counts_graph_of_another_size(method):
    r = build_interaction_matrix([("u1", "a"), ("u1", "b"), ("u2", "b"), ("u2", "c")])
    r4 = build_interaction_matrix([("u1", "a"), ("u1", "b"), ("u2", "c"), ("u2", "d")])
    f = feature_set([[1.0], [0.0], [2.0]], [False, True, False])
    with pytest.raises(InconsistentData, match="item graph has 4 items but features have 3 rows"):
        impute(f, r, ImputeConfig(method=method), counts_graph=cooccurrence(r4))


@pytest.mark.parametrize("tolerance", [float("inf"), float("nan")])
def test_ppr_rejects_non_finite_tolerance(tolerance):
    g = binary_graph(2, [(0, 1)])
    f = feature_set([[1.0], [0.0]], [False, True])
    with pytest.raises(InvalidParameter):
        impute_pers_pagerank(f, g, 0.85, 1, iter_tolerance=tolerance)
