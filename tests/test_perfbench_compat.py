"""The benchmark's traced runs must keep working against the package.

`perfbench/tracer.py` wraps package functions by the names their callers
bind and passes the flags `perfbench/run.py` uses, so renaming one of
them breaks every traced benchmark run. These tests run the tracer as
the benchmark does, on a tiny dataset.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmimpute.io import read_feature_matrix, write_feature_matrix

ROOT = Path(__file__).resolve().parents[1]


def tiny_dataset(tmp_path, cold=False):
    """A ring of 40 items; `cold` adds item 40, masked, with a user of its own."""
    n = 40
    pairs = "".join(f"u{i}\ti{(i + d) % n}\n" for i in range(n) for d in (0, 1, 3))
    masked = list(range(0, n, 5))
    if cold:
        pairs += f"u{n}\ti{n}\n"
        masked.append(n)
        n += 1
    (tmp_path / "r.tsv").write_text(pairs)
    feats = np.random.default_rng(0).standard_normal((n, 4)).astype(np.float32)
    feats[masked] = 0.0
    write_feature_matrix(tmp_path / "text.fmat", feats)
    (tmp_path / "mask.tsv").write_text("".join(f"i{i}\ttext\n" for i in masked))
    return [
        "--interactions", str(tmp_path / "r.tsv"),
        "--features", f"text={tmp_path / 'text.fmat'}",
        "--mask", str(tmp_path / "mask.tsv"),
    ]


def traced_run(tmp_path, command, flags, cold=False):
    """Run one CLI command under the tracer; returns its spans file as JSON."""
    spans = tmp_path / "spans.json"
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
            command, *tiny_dataset(tmp_path, cold), *flags, "--out", str(tmp_path / "out"),
        ],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "pers-pagerank", "--ppr-mode", "iterative", "--hops", "10"],
        ["--method", "multihop", "--hops", "10"],
    ],
    ids=["pers-pagerank", "multihop"],
)
def test_traced_impute_runs(tmp_path, flags):
    counts = traced_run(tmp_path, "impute", flags)["counts"]
    if flags[1] == "pers-pagerank":
        # the tracer groups one product per reported fixed-point step, and
        # counts each reported solve (hop 1's, then each unit-column chunk's)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        solves = [s for m in report["modalities"].values() for s in m["fixed_point_steps"]]
        assert counts["imputers.fixed_point_steps"] == sum(solves) > 0
        assert counts["imputers.hops"] == len(solves) > 1
    else:
        assert counts["imputers.hops"] == 10


@pytest.mark.parametrize("method", ["pers-pagerank", "multihop"])
def test_traced_impute_fills_a_cold_item(tmp_path, method):
    # the hook that fills cold rows runs under the tracer's own hook
    counts = traced_run(tmp_path, "impute", ["--method", method, "--hops", "10"], cold=True)["counts"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["modalities"]["text"]["cold_items"] == 1
    if method == "pers-pagerank":
        solves = report["modalities"]["text"]["fixed_point_steps"]
        assert counts["imputers.fixed_point_steps"] == sum(solves) > 0
        assert counts["imputers.hops"] == len(solves) > 1
    else:
        assert counts["imputers.hops"] == 10
    feats = read_feature_matrix(tmp_path / "text.fmat")
    mask = np.zeros(len(feats), dtype=bool)
    mask[[*range(0, 40, 5), 40]] = True
    fallback = feats[~mask].astype(np.float64).mean(axis=0).astype(np.float32)
    assert read_feature_matrix(tmp_path / "out" / "text.fmat")[40].tobytes() == fallback.tobytes()


def test_traced_drop_runs(tmp_path):
    # the beauty-drop workload: parse, drop_missing, write_dataset
    names = {span[2] for span in traced_run(tmp_path, "drop", [])["spans"]}
    assert {"evaluate.drop_missing", "io.write_dataset"} <= names


def test_traced_evaluate_runs(tmp_path):
    # the office-sweep workload: each graph method builds one graph per
    # top-k, and multihop and pers-pagerank hop to max T once per top-k
    methods = ["zeros", "global-mean", "neigh-mean", "multihop", "pers-pagerank"]
    flags = [
        "--hide-fraction", "0.2", "--methods", ",".join(methods),
        "--top-k-grid", "1:2:1", "--hops-grid", "1:3:1",
    ]
    counts = traced_run(tmp_path, "evaluate", flags)["counts"]
    rows = json.loads((tmp_path / "out").read_text())["rows"]
    assert counts["evaluate.configs"] == len(rows) == 1 + 1 + 2 + 2 * 2 * 3
    # multihop: 2 top-k values x max T 3 x 1 masked modality; pers-pagerank:
    # each reported solve of the deepest run at each top-k
    ppr_solves = sum(
        len(row["modalities"]["text"]["fixed_point_steps"])
        for row in rows if row["method"] == "pers-pagerank" and row["hops"] == 3
    )
    assert ppr_solves > 2 * 3
    assert counts["imputers.hops"] == 2 * 3 * 1 + ppr_solves
    assert counts["graph.topk_sparsify.calls"] == 3 * 2
