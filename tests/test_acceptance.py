"""End-to-end acceptance suite.

One test per criterion; the conftest summary hook prints a PASS/FAIL
line for each. Tolerances are frozen here and are not meant to be
loosened to make a failing build green.
"""

import json
import time

import numpy as np
import pytest

from mmimpute import (
    DivergentDiffusion,
    FeatureSet,
    HiddenRows,
    ImputeConfig,
    SingularDiffusion,
    build_interaction_matrix,
    cooccurrence,
    drop_missing,
    impute,
    impute_global_mean,
    impute_multihop,
    impute_neigh_mean,
    impute_pers_pagerank,
    impute_random,
    impute_zeros,
    mask_features,
    ppr_exact,
    reconstruction_metrics,
    sym_norm_adjacency,
    synth_generate,
    topk_sparsify,
)
from mmimpute.cli import main
from mmimpute.io import read_feature_matrix, write_feature_matrix

from helpers import (
    binary_graph,
    brute_force_cooccurrence,
    dense_ppr_propagate,
    entries,
    feature_set,
    naive_neigh_mean,
    neighbors,
    permute_feature_set,
    permute_graph,
    random_connected_graph,
    random_feature_set,
    random_interactions,
)


@pytest.mark.acceptance(name="PPR oracle equivalence (iterative vs dense, 1e-6)")
def test_ppr_oracle_equivalence():
    # 50 graphs x alpha {0.6, 0.75, 0.9}; the fixed point runs at a relative
    # 1e-10 so that solver error stays far below the 1e-6 agreement
    # tolerance even after ten clamped applications (measured worst case:
    # 7.0e-8)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(3, 51))
        g = random_connected_graph(rng, n)
        f = random_feature_set(rng, n, dim=4)
        for alpha in (0.6, 0.75, 0.9):
            started = time.perf_counter()
            dense = dense_ppr_propagate(f, g, alpha, 10)["m"]
            iterative = impute_pers_pagerank(f, g, alpha, 10, iter_tolerance=1e-10)
            elapsed = time.perf_counter() - started
            gap = np.max(np.abs(dense - iterative.matrices["m"]))
            assert gap < 1e-6, f"n={n} alpha={alpha}: max gap {gap:.2e}"
            assert elapsed < 1.0, f"n={n} alpha={alpha}: {elapsed:.2f} s"


@pytest.mark.acceptance(name="PPR closed-form spot check (0.1125, singular/divergent at 0.5)")
def test_ppr_closed_form_spot_check():
    g = binary_graph(2, [(0, 1)])
    f = feature_set([[1.0], [0.0]], [False, True])
    dense = dense_ppr_propagate(f, g, 0.9, 1)["m"]
    assert abs(dense[1, 0] - 0.1125) < 1e-9
    with pytest.raises(SingularDiffusion):
        ppr_exact(g, 0.5)
    with pytest.raises(DivergentDiffusion):
        impute_pers_pagerank(f, g, 0.5, 1)


@pytest.mark.acceptance(name="Cooccurrence matches brute-force intersection oracle")
def test_cooccurrence_oracle():
    rng = np.random.default_rng(101)
    for _ in range(100):
        r = random_interactions(rng, max_users=30, max_items=30)
        got = cooccurrence(r).adjacency.toarray()
        assert np.array_equal(got, brute_force_cooccurrence(r))


@pytest.mark.acceptance(name="NeighMean matches naive neighbor-average oracle exactly")
def test_neigh_mean_oracle():
    rng = np.random.default_rng(202)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        g = random_connected_graph(rng, n)
        f = random_feature_set(rng, n, dim=int(rng.integers(1, 8)))
        out = impute_neigh_mean(f, g, fallback="zeros")
        expected = naive_neigh_mean(
            f.matrices["m"], f.masks["m"], g, np.zeros(f.dim("m"))
        )
        assert np.array_equal(out.matrices["m"], expected)


@pytest.mark.acceptance(name="MultiHop hand oracle (path, 4/sqrt(2) at T=1 and T=2)")
def test_multihop_hand_oracle():
    g = binary_graph(3, [(0, 1), (1, 2)])
    f = feature_set([[1.0], [0.0], [3.0]], [False, True, False])
    op = sym_norm_adjacency(g)
    expected = 4.0 / np.sqrt(2.0)
    for hops in (1, 2):
        out = impute_multihop(f, op, hops)
        assert abs(out.matrices["m"][1, 0] - expected) < 1e-12


@pytest.mark.acceptance(name="Clamping and non-interference invariants")
def test_clamping_and_noninterference():
    rng = np.random.default_rng(303)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        g = random_connected_graph(rng, n)
        f = random_feature_set(rng, n)
        observed = ~f.masks["m"]
        pinned = f.matrices["m"][observed].tobytes()

        def check(modality, t, x):
            assert x[observed].tobytes() == pinned

        runs = [
            impute_zeros(f),
            impute_random(f, 7),
            impute_global_mean(f),
            impute_neigh_mean(f, g),
            impute_multihop(f, sym_norm_adjacency(g), 5, on_iteration=check),
            impute_pers_pagerank(f, g, 0.85, 5, on_iteration=check),
        ]
        for out in runs:
            assert out.matrices["m"][observed].tobytes() == pinned
            assert not out.masks["m"].any()


@pytest.mark.acceptance(name="Drop arithmetic identity (items, interactions, orphans)")
def test_drop_arithmetic_identity():
    rng = np.random.default_rng(404)
    for _ in range(50):
        r = random_interactions(rng)
        mask = rng.random(r.n_items) < rng.uniform(0.1, 0.5)
        if mask.all():
            mask[0] = False
        f = feature_set(rng.standard_normal((r.n_items, 3)), mask)
        try:
            _, _, before, after = drop_missing(r, f)
        except Exception:
            continue
        assert after.n_items == before.n_items - int(mask.sum())
        dropped_pairs = sum(1 for _, i in entries(r) if mask[i])
        assert after.n_interactions == before.n_interactions - dropped_pairs
    # documented example: the Office catalog drops its 674 text-missing
    # items, 2420 -> 1746 (full run needs the external dataset)
    office_items, office_missing_text, office_items_dropped = 2420, 674, 1746
    assert office_items - office_missing_text == office_items_dropped


SEPARATION_SEEDS = range(10)


@pytest.mark.acceptance(name="Synthetic separation (graph methods > global mean > random)")
def test_synthetic_separation():
    wins = 0
    for seed in SEPARATION_SEEDS:
        r, f = synth_generate(800, 400, 8, 0.3, 0.01, [("feat", 32)], 0.1, seed)
        masked, hidden = mask_features(f, 0.2, seed)
        counts = cooccurrence(r)
        scores = {}
        for method in ("neigh-mean", "multihop", "pers-pagerank", "global-mean", "random"):
            cfg = ImputeConfig(method=method, top_k=20, hops=10, alpha=0.85, seed=seed)
            out, _ = impute(masked, r, cfg, counts_graph=counts)
            scores[method] = reconstruction_metrics(out, hidden).per_modality["feat"].mean_cosine
        graph_floor = min(scores["neigh-mean"], scores["multihop"], scores["pers-pagerank"])
        if graph_floor > scores["global-mean"] > scores["random"]:
            wins += 1
    assert wins >= 9, f"ordering held in only {wins}/10 seeds"


@pytest.mark.acceptance(name="Exact reconstruction on noise-free synthetic data")
def test_noise_free_exact_reconstruction():
    # noise 0 and p_out 0: all neighbors carry the identical community
    # centroid. Hidden rows are chosen pairwise non-adjacent because a
    # hidden neighbor contributes its zero placeholder and would dilute
    # the mean; truth passes through the on-disk float32 grid so the
    # neighbor average reproduces rows bit-exactly (rmse == 0.0)
    r, f = synth_generate(800, 400, 8, 0.3, 0.0, [("feat", 32)], 0.0, seed=0)
    feats = f.matrices["feat"].astype(np.float32).astype(np.float64)
    g = topk_sparsify(cooccurrence(r), 20)
    rng = np.random.default_rng(0)
    blocked = np.zeros(400, dtype=bool)
    hidden: list[int] = []
    for i in rng.permutation(400):
        if blocked[i] or g.degrees[i] == 0:
            continue
        hidden.append(int(i))
        blocked[i] = True
        blocked[neighbors(g, i)] = True
        if len(hidden) >= 80:
            break
    assert len(hidden) >= 30
    idx = np.sort(np.array(hidden))
    mask = np.zeros(400, dtype=bool)
    mask[idx] = True
    masked = feats.copy()
    masked[mask] = 0.0
    fm = FeatureSet.create([("feat", masked)], {"feat": mask})
    out = impute_neigh_mean(fm, g, fallback="zeros")
    metrics = reconstruction_metrics(
        out, HiddenRows({"feat": idx}, {"feat": feats[idx]})
    ).per_modality["feat"]
    assert metrics.rmse == 0.0
    assert metrics.mean_cosine == pytest.approx(1.0, abs=1e-12)


@pytest.mark.acceptance(name="CLI determinism (byte-identical reruns)")
def test_cli_run_determinism(tmp_path):
    data = tmp_path / "data"
    assert main([
        "synth", "--users", "80", "--items", "40", "--communities", "4",
        "--p-in", "0.5", "--p-out", "0.05", "--dims", "a=6,b=3",
        "--noise-sigma", "0.1", "--seed", "12", "--out", str(data),
    ]) == 0
    mask_lines = []
    import mmimpute.io as mio
    r = mio.read_interactions(data / "interactions.tsv")
    for modality in ("a", "b"):
        feats = read_feature_matrix(data / f"{modality}.fmat")
        feats[:5] = 0.0
        write_feature_matrix(data / f"{modality}.fmat", feats)
        mask_lines += [f"{r.item_ids[i]}\t{modality}\n" for i in range(5)]
    (data / "mask.tsv").write_text("".join(mask_lines))

    payloads = []
    for method, extra in (
        ("random", ["--seed", "5"]),
        ("multihop", ["--top-k", "5", "--hops", "6"]),
        ("pers-pagerank", ["--top-k", "5", "--hops", "4"]),
    ):
        digests = []
        for run in ("x", "y"):
            out = tmp_path / f"{method}-{run}"
            assert main([
                "impute",
                "--interactions", str(data / "interactions.tsv"),
                "--features", f"a={data / 'a.fmat'}",
                "--features", f"b={data / 'b.fmat'}",
                "--mask", str(data / "mask.tsv"),
                "--method", method, *extra, "--out", str(out),
            ]) == 0
            report = json.loads((out / "report.json").read_text())
            report.pop("timing")
            digests.append((
                (out / "a.fmat").read_bytes(),
                (out / "b.fmat").read_bytes(),
                json.dumps(report, sort_keys=True),
            ))
        assert digests[0] == digests[1], method
        payloads.append(digests[0])
    # different methods do produce different bytes
    assert payloads[0][0] != payloads[1][0]


@pytest.mark.acceptance(name="Permutation equivariance of deterministic imputers")
def test_permutation_equivariance():
    # integer-valued features keep neighborhood sums exactly representable,
    # so the averaging methods commute with permutations bit-for-bit in
    # float64. The diffusion operators accumulate in permutation-dependent
    # order (sub-1e-14 noise), so they are compared at the pipeline's
    # serialized float32 precision, where equality is exact
    rng = np.random.default_rng(505)
    for _ in range(20):
        n = int(rng.integers(4, 31))
        g = random_connected_graph(rng, n)
        feats = rng.integers(-8, 9, (n, 6)).astype(np.float64)
        mask = rng.random(n) < 0.35
        if mask.all():
            mask[0] = False
        f = feature_set(feats, mask)
        perm = rng.permutation(n)
        fp = permute_feature_set(f, perm)
        gp = permute_graph(g, perm)

        exact64 = {
            "zeros": lambda a, gg: impute_zeros(a),
            "global-mean": lambda a, gg: impute_global_mean(a),
            "neigh-mean": lambda a, gg: impute_neigh_mean(a, gg, "zeros"),
        }
        for name, run in exact64.items():
            base = run(f, g).matrices["m"]
            permuted = run(fp, gp).matrices["m"]
            assert np.array_equal(base, permuted[perm]), name

        serialized = {
            "multihop": lambda a, gg: impute_multihop(a, sym_norm_adjacency(gg), 10),
            "pers-pagerank": lambda a, gg: impute_pers_pagerank(a, gg, 0.85, 10),
        }
        for name, run in serialized.items():
            base = run(f, g).matrices["m"].astype(np.float32)
            permuted = run(fp, gp).matrices["m"].astype(np.float32)[perm]
            assert np.array_equal(base, permuted), name
