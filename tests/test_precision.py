"""Feature matrices keep the float32 precision of `.fmat` files.

Loading, dropping and masking keep float32; every imputer computes in a
float64 working copy. A float32 dataset must therefore give exactly what
the same values widened to float64 give: the same imputed bits, reports,
sweep rows, pruned datasets and written files.
"""

import json

import numpy as np
import pytest

from mmimpute import FeatureSet, ImputeConfig, InteractionMatrix, InvalidParameter, impute
from mmimpute.errors import MmImputeError
from mmimpute.evaluate import drop_missing, mask_features, run_sweep
from mmimpute.features import FALLBACKS, METHODS
from mmimpute.io import (
    load_feature_set,
    read_interactions,
    write_dataset,
    write_feature_matrix,
    write_feature_set,
)

from helpers import random_interactions


def random_dataset(rng, all_masked: bool):
    """Interactions with two cold items, and float32 features.

    Modality "a" always masks the last (cold) item; with `all_masked`,
    modality "c" has every row masked.
    """
    base = random_interactions(rng, max_users=12, max_items=14)
    n_items = base.n_items + 2  # the last two items have no interactions
    r = InteractionMatrix.from_pairs(np.column_stack(base.matrix.nonzero()), base.n_users, n_items)
    dims = {"a": 3, "b": 2, "c": 2} if all_masked else {"a": 3, "b": 2}
    matrices, masks = {}, {}
    for m, dim in dims.items():
        mask = rng.random(n_items) < 0.3
        mask[-1] |= m == "a"
        if m == "c":
            mask[:] = True
        values = rng.standard_normal((n_items, dim)).astype(np.float32)
        values[mask] = 0.0
        matrices[m], masks[m] = values, mask
    f32 = FeatureSet(tuple(dims), matrices, masks)
    f64 = FeatureSet(tuple(dims), {m: x.astype(np.float64) for m, x in matrices.items()}, masks)
    assert all(f32.matrices[m].dtype == np.float32 for m in dims)
    assert all(f64.matrices[m].dtype == np.float64 for m in dims)
    return r, f32, f64


def outcome(call, *args, **kwargs):
    """The result of `call`, or the error type and message."""
    try:
        return call(*args, **kwargs)
    except MmImputeError as exc:
        return type(exc).__name__, str(exc)


def written_bytes(tmp_path, f: FeatureSet) -> dict:
    names = write_feature_set(tmp_path, f)
    return {m: (tmp_path / name).read_bytes() for m, name in names.items()}


def imputed_outcome(f, r, cfg, tmp_path):
    def run():
        out, report = impute(f, r, cfg)
        report.pop("timing")
        bits = {m: (x.dtype.str, x.tobytes()) for m, x in out.matrices.items()}
        return bits, json.dumps(report), written_bytes(tmp_path, out)

    return outcome(run)


def test_impute_float32_matches_float64_widening(tmp_path):
    rng = np.random.default_rng(32)
    kinds = set()
    for case in range(6):
        r, f32, f64 = random_dataset(rng, all_masked=case % 2 == 1)
        for method in METHODS:
            for clamp in (True, False):
                for fallback in FALLBACKS:
                    cfg = ImputeConfig(
                        method=method, top_k=int(rng.integers(1, 4)), hops=3, alpha=0.85,
                        seed=case, cold_fallback=fallback, iter_tolerance=1e-6, clamp=clamp,
                    )
                    want = imputed_outcome(f64, r, cfg, tmp_path / "f64")
                    got = imputed_outcome(f32, r, cfg, tmp_path / "f32")
                    assert got == want, (case, cfg)
                    kinds.add(type(want[0]).__name__)
    assert kinds == {"dict", "str"}  # both results and errors were compared


def test_drop_missing_float32_matches_float64_widening(tmp_path):
    rng = np.random.default_rng(33)
    for case in range(8):
        r, f32, f64 = random_dataset(rng, all_masked=False)
        want = outcome(drop_missing, r, f64)
        got = outcome(drop_missing, r, f32)
        if isinstance(want[0], str):  # an error
            assert got == want
            continue
        (r64, items64, before64, after64), (r32, items32, before32, after32) = want, got
        p64, p32 = f64.select(items64), f32.select(items32)
        assert (before32, after32) == (before64, after64)
        assert r32.user_ids == r64.user_ids and r32.item_ids == r64.item_ids
        assert (r32.matrix != r64.matrix).nnz == 0
        for m in p32.modalities:
            assert p32.matrices[m].dtype == np.float32
            assert p32.matrices[m].astype(np.float64).tobytes() == p64.matrices[m].tobytes()
            assert (p32.masks[m] == p64.masks[m]).all()
        assert written_bytes(tmp_path / "f32", p32) == written_bytes(tmp_path / "f64", p64)

        def dataset_files(directory, pruned):
            files = write_dataset(directory, r32, pruned)
            paths = [files["interactions"], *files["features"].values()]
            return {p: (directory / p).read_bytes() for p in paths}

        want = outcome(dataset_files, tmp_path / "d64", p64)
        assert outcome(dataset_files, tmp_path / "d32", p32) == want


def test_run_sweep_float32_matches_float64_widening():
    rng = np.random.default_rng(34)
    kinds = set()
    for case in range(12):
        r, f32, f64 = random_dataset(rng, all_masked=case % 6 == 5)
        kwargs = dict(
            methods=list(METHODS), top_k_grid=[1, 3], hops_grid=[1, 3], hide_fraction=0.5,
            seed=case, cold_fallback=FALLBACKS[case % 2], iter_tolerance=1e-6,
        )
        want = outcome(lambda f: json.dumps(run_sweep(r, f, **kwargs)), f64)
        assert outcome(lambda f: json.dumps(run_sweep(r, f, **kwargs)), f32) == want, case
        kinds.add(type(want).__name__)
    assert kinds == {"str", "tuple"}


def test_float32_stays_float32_until_an_imputer_widens():
    rng = np.random.default_rng(35)
    r, f32, _ = random_dataset(rng, all_masked=False)
    masked, hidden = mask_features(f32, 0.5, 0)
    assert {x.dtype for x in masked.matrices.values()} == {np.dtype(np.float32)}
    assert {x.dtype for x in hidden.values.values()} == {np.dtype(np.float64)}
    for m in f32.modalities:  # ground truth is the exact widening of the hidden rows
        assert (hidden.values[m] == f32.matrices[m][hidden.indices[m]]).all()
    for method in METHODS:
        out, _ = impute(f32, r, ImputeConfig(method=method, top_k=2, hops=2))
        assert {x.dtype for x in out.matrices.values()} == {np.dtype(np.float64)}


def test_load_feature_set_is_float32(tmp_path):
    (tmp_path / "r.tsv").write_text("u1\ta\nu1\tb\nu2\tc\n")
    write_feature_matrix(tmp_path / "t.fmat", np.array([[0.1], [0.0], [0.3]]))
    (tmp_path / "mask.tsv").write_text("b\tt\n")
    r = read_interactions(tmp_path / "r.tsv")
    f = load_feature_set([("t", str(tmp_path / "t.fmat"))], r, tmp_path / "mask.tsv")
    assert f.matrices["t"].dtype == np.float32
    assert f.matrices["t"].flags.c_contiguous
    assert f.matrices["t"].tobytes() == np.array([[0.1], [0.0], [0.3]], dtype=np.float32).tobytes()
    _, items, _, _ = drop_missing(r, f)
    assert f.select(items).matrices["t"].dtype == np.float32


@pytest.mark.parametrize(
    "values, dtype",
    [
        (np.ones((2, 3), dtype=np.float32), np.float32),
        (np.ones((2, 3)), np.float64),
        (np.ones((2, 3), dtype=np.int64), np.float64),
        (np.ones((2, 3), dtype=np.float16), np.float64),
        ([[1, 2, 3], [4, 5, 6]], np.float64),
        (np.ones((3, 2), dtype=np.float32).T, np.float32),
    ],
    ids=["float32", "float64", "int64", "float16", "list", "float32-transposed"],
)
def test_feature_set_precision(values, dtype):
    for f in (
        FeatureSet.create([("m", values)]),
        FeatureSet(("m",), {"m": values}, {"m": np.zeros(2, dtype=bool)}),
    ):
        x = f.matrices["m"]
        assert x.dtype == dtype and x.flags.c_contiguous
        assert (x == np.asarray(values)).all()


@pytest.mark.parametrize(
    "masks",
    [{"a": [False]}, {"a": [False], "b": [False], "extra": [True]}, {}],
    ids=["missing-name", "extra-name", "empty"],
)
def test_create_checks_mask_names(masks):
    with pytest.raises(InvalidParameter, match="modalities, matrices and masks must use the same names"):
        FeatureSet.create([("a", np.ones((1, 1))), ("b", np.ones((1, 2)))], masks)
