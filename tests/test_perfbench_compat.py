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

from mmimpute.io import write_feature_matrix

ROOT = Path(__file__).resolve().parents[1]


def tiny_dataset(tmp_path):
    n = 40
    pairs = "".join(f"u{i}\ti{(i + d) % n}\n" for i in range(n) for d in (0, 1, 3))
    (tmp_path / "r.tsv").write_text(pairs)
    feats = np.random.default_rng(0).standard_normal((n, 4)).astype(np.float32)
    masked = range(0, n, 5)
    feats[list(masked)] = 0.0
    write_feature_matrix(tmp_path / "text.fmat", feats)
    (tmp_path / "mask.tsv").write_text("".join(f"i{i}\ttext\n" for i in masked))
    return [
        "--interactions", str(tmp_path / "r.tsv"),
        "--features", f"text={tmp_path / 'text.fmat'}",
        "--mask", str(tmp_path / "mask.tsv"),
    ]


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "pers-pagerank", "--ppr-mode", "iterative", "--hops", "10"],
        ["--method", "multihop", "--hops", "10"],
    ],
    ids=["pers-pagerank", "multihop"],
)
def test_traced_impute_runs(tmp_path, flags):
    spans = tmp_path / "spans.json"
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
            "impute", *tiny_dataset(tmp_path), *flags, "--out", str(tmp_path / "out"),
        ],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(spans.read_text())["counts"]
    assert counts["imputers.hops"] == 10
    if flags[1] == "pers-pagerank":
        assert counts["imputers.fixed_point_steps"] > 0
