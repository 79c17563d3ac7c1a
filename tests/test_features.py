import dataclasses
import tracemalloc

import numpy as np
import pytest

from mmimpute import (
    FeatureSet,
    ImputeConfig,
    InvalidParameter,
    ValidationReport,
    build_interaction_matrix,
    validate,
)
from mmimpute.graph import InteractionMatrix

from helpers import feature_set


def three_item_dataset():
    return build_interaction_matrix([("u1", "a"), ("u1", "b"), ("u2", "c")])


def test_validate_makes_no_matrix_sized_temporary():
    # two 20,000 x 512 bool temporaries would take 20 MB
    n, dim = 20000, 512
    r = InteractionMatrix.from_pairs([(0, i) for i in range(n)], 1, n)
    mat = np.ones((n, dim), dtype=np.float32)
    mask = np.arange(n) % 2 == 0
    mat[mask] = 0.0
    mat[n - 1, dim - 1] = np.nan
    mat[n - 2, 7] = 2.0
    f = FeatureSet.create([("m", mat)], {"m": mask})
    tracemalloc.start()
    try:
        report = validate(f, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert report.problems == (
        f"modality 'm': non-finite values in observed rows {n - 1}",
        f"modality 'm': masked rows are not zero placeholders: {n - 2}",
    )


def test_validate_consistent():
    r = three_item_dataset()
    f = FeatureSet.create(
        [("visual", np.ones((3, 2))), ("text", np.zeros((3, 4)))],
        {
            "visual": np.array([False, False, False]),
            "text": np.array([False, False, True]),
        },
    )
    report = validate(f, r)
    assert report.ok
    assert report.missing == {"visual": 0, "text": 1}


def test_validate_flags_nonzero_masked_row():
    r = three_item_dataset()
    mat = np.ones((3, 2))
    f = FeatureSet.create([("m", mat)], {"m": np.array([False, True, False])})
    report = validate(f, r)
    assert not report.ok
    assert any("zero placeholders" in p for p in report.problems)


def test_validate_flags_row_count_mismatch():
    r = three_item_dataset()
    f = feature_set(np.zeros((2, 2)), [False, False])
    report = validate(f, r)
    assert not report.ok


def test_validate_flags_nonfinite_observed():
    r = three_item_dataset()
    mat = np.zeros((3, 2))
    mat[0, 0] = np.nan
    f = FeatureSet.create([("m", mat)], {"m": np.zeros(3, dtype=bool)})
    report = validate(f, r)
    assert not report.ok
    assert any("non-finite" in p for p in report.problems)


def test_validation_report_ok_is_no_problems():
    assert [f.name for f in dataclasses.fields(ValidationReport)] == ["missing", "problems"]
    assert ValidationReport(missing={}, problems=[]).ok
    assert not ValidationReport(missing={}, problems=["x"]).ok


def test_validation_report_is_immutable():
    # neither a field nor its contents can change after construction, so
    # `ok` cannot either
    problems, missing = ["x"], {"text": 1}
    report = ValidationReport(missing=missing, problems=problems)
    problems.clear()
    missing["text"] = 2
    assert report.problems == ("x",) and report.missing == {"text": 1} and not report.ok
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.problems = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.missing = {}
    with pytest.raises(AttributeError):
        report.problems.append("y")
    with pytest.raises(TypeError):
        report.missing["text"] = 0
    assert report.problems == ("x",) and report.missing == {"text": 1}


def test_feature_set_dims_may_differ():
    f = FeatureSet.create([("a", np.zeros((4, 3))), ("b", np.zeros((4, 7)))])
    assert f.dim("a") == 3
    assert f.dim("b") == 7


def test_feature_set_shape_checks():
    with pytest.raises(InvalidParameter):
        FeatureSet.create([("a", np.zeros((4, 3))), ("b", np.zeros((5, 3)))])
    with pytest.raises(InvalidParameter):
        FeatureSet.create([("a", np.zeros(4))])
    with pytest.raises(InvalidParameter):
        FeatureSet(("a",), {"a": np.zeros((4, 3))}, {"a": np.zeros(3, dtype=bool)})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"method": "nope"},
        {"method": "zeros", "top_k": 0},
        {"method": "zeros", "hops": 0},
        {"method": "zeros", "alpha": 0.0},
        {"method": "zeros", "alpha": 1.0001},
        {"method": "zeros", "seed": -1},
        {"method": "zeros", "cold_fallback": "mean"},
        {"method": "zeros", "iter_tolerance": 0.0},
        {"method": "zeros", "iter_tolerance": float("nan")},
        {"method": "zeros", "iter_tolerance": float("inf")},
        {"method": "multihop", "hops": 2.5},
        {"method": "multihop", "top_k": 2.5},
        {"method": "random", "seed": 1.5},
        {"method": "multihop", "hops": np.float64(2.0)},
    ],
)
def test_impute_config_validation(kwargs):
    with pytest.raises(InvalidParameter):
        ImputeConfig(**kwargs)


def test_impute_config_defaults():
    cfg = ImputeConfig(method="multihop")
    assert cfg.top_k == 20
    assert cfg.hops == 10
    assert cfg.alpha == 0.85
    assert cfg.cold_fallback == "global-mean"
    assert cfg.clamp


def test_feature_set_needs_distinct_modalities():
    with pytest.raises(InvalidParameter, match=r"^at least one modality is required$"):
        FeatureSet.create([])
    with pytest.raises(InvalidParameter, match=r"^duplicate modality names$"):
        FeatureSet.create([("text", np.ones((2, 1))), ("text", np.zeros((2, 1)))])
