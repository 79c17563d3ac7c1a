import argparse
import ast
import dataclasses
import json
import os
import subprocess
import sys
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import mmimpute
import mmimpute.cli
import mmimpute.io
from mmimpute import DivergentDiffusion, ImputeConfig, InvalidParameter, run_sweep, synth_generate
from mmimpute.cli import build_parser, main, parse_dims, parse_features, parse_grid, parse_methods
from mmimpute.graph import cooccurrence, topk_sparsify
from mmimpute.io import read_feature_matrix, write_feature_matrix


def test_parse_grid_matches_sweep_ranges():
    assert parse_grid("10:100:10") == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert parse_grid("1:20:1") == list(range(1, 21))
    assert parse_grid("7") == [7]


def test_parse_grid_rejects_junk():
    for bad in ("10:5:1", "0:10:2", "1:10:0", "a:b:c", "1:2:3:4", "0", "-3"):
        with pytest.raises(InvalidParameter):
            parse_grid(bad)


def test_parse_features_and_dims():
    assert parse_features(["visual=v.fmat", "text=t.fmat"]) == [
        ("visual", "v.fmat"),
        ("text", "t.fmat"),
    ]
    with pytest.raises(InvalidParameter):
        parse_features(["novalue"])
    with pytest.raises(InvalidParameter):
        parse_features(["a=x", "a=y"])
    assert parse_dims("text=384,visual=512") == [("text", 384), ("visual", 512)]
    with pytest.raises(InvalidParameter):
        parse_dims("text=abc")


def test_parse_methods():
    assert parse_methods("zeros,multihop") == ["zeros", "multihop"]
    with pytest.raises(InvalidParameter):
        parse_methods("zeros,bogus")


def tiny_dataset(tmp_path):
    (tmp_path / "r.tsv").write_text(
        "u1\ta\nu1\tb\nu2\ta\nu2\tb\nu3\tb\nu3\tc\n"
    )
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]], dtype=np.float32)
    write_feature_matrix(tmp_path / "text.fmat", feats)
    (tmp_path / "mask.tsv").write_text("c\ttext\n")
    return [
        "--interactions", str(tmp_path / "r.tsv"),
        "--features", f"text={tmp_path / 'text.fmat'}",
        "--mask", str(tmp_path / "mask.tsv"),
    ]


def test_impute_zeros_exit_zero(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["impute", *tiny_dataset(tmp_path), "--method", "zeros", "--out", str(out)])
    assert code == 0
    assert (out / "text.fmat").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "zeros"
    assert report["modalities"]["text"]["imputed_rows"] == 1
    assert np.array_equal(
        read_feature_matrix(out / "text.fmat")[2], [0.0, 0.0]
    )


def test_impute_ppr_alpha_one_equals_zeros(tmp_path):
    args = tiny_dataset(tmp_path)
    out_zeros = tmp_path / "zeros"
    out_ppr = tmp_path / "ppr"
    assert main(["impute", *args, "--method", "zeros", "--out", str(out_zeros)]) == 0
    assert main([
        "impute", *args, "--method", "pers-pagerank", "--alpha", "1.0",
        "--out", str(out_ppr),
    ]) == 0
    assert (out_ppr / "text.fmat").read_bytes() == (out_zeros / "text.fmat").read_bytes()


def test_impute_no_clamp_changes_diffusion(tmp_path):
    args = tiny_dataset(tmp_path)
    clamped = tmp_path / "clamped"
    free = tmp_path / "free"
    # even hop count: on the a-b-c path the unclamped endpoint value
    # alternates, so it must differ from the clamped fixed value
    base = ["impute", *args, "--method", "multihop", "--top-k", "2", "--hops", "4"]
    assert main([*base, "--out", str(clamped)]) == 0
    assert main([*base, "--no-clamp", "--out", str(free)]) == 0
    assert (clamped / "text.fmat").read_bytes() != (free / "text.fmat").read_bytes()


def test_impute_top_k_zero_is_usage_error(tmp_path, capsys):
    code = main([
        "impute", *tiny_dataset(tmp_path), "--method", "multihop",
        "--top-k", "0", "--out", str(tmp_path / "x"),
    ])
    assert code == 1


def test_unknown_method_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["impute", *tiny_dataset(tmp_path), "--method", "median", "--out", "x"])
    assert excinfo.value.code == 1


def test_parse_error_is_data_error(tmp_path):
    (tmp_path / "bad.tsv").write_text("u1 a\n")
    feats = tmp_path / "text.fmat"
    write_feature_matrix(feats, np.zeros((1, 2)))
    code = main([
        "impute", "--interactions", str(tmp_path / "bad.tsv"),
        "--features", f"text={feats}",
        "--method", "zeros", "--out", str(tmp_path / "x"),
    ])
    assert code == 2


def test_non_utf8_interactions_is_data_error(tmp_path, capsys):
    args = tiny_dataset(tmp_path)
    (tmp_path / "r.tsv").write_bytes(b"u1\ta\n\xff\xfe\n")
    assert main(["stats", *args]) == 2
    assert f"{tmp_path / 'r.tsv'}:2: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["r.tsv", "text.fmat", "mask.tsv"])
def test_missing_input_is_data_error(tmp_path, capsys, missing):
    args = tiny_dataset(tmp_path)
    (tmp_path / missing).unlink()
    assert main(["stats", *args]) == 2
    assert f"{tmp_path / missing}: cannot read" in capsys.readouterr().err


def test_divergent_alpha_is_numerical_error(tmp_path):
    (tmp_path / "r.tsv").write_text("u1\ta\nu1\tb\n")
    write_feature_matrix(tmp_path / "text.fmat", np.array([[1.0], [0.0]], dtype=np.float32))
    (tmp_path / "mask.tsv").write_text("b\ttext\n")
    code = main([
        "impute",
        "--interactions", str(tmp_path / "r.tsv"),
        "--features", f"text={tmp_path / 'text.fmat'}",
        "--mask", str(tmp_path / "mask.tsv"),
        "--method", "pers-pagerank", "--alpha", "0.5",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 3


def two_modality_dataset(tmp_path, pairs, a_mask, b, b_mask):
    """Flags for modality `a` (zeros, masked at `a_mask`) and `b`."""
    (tmp_path / "r.tsv").write_text("".join(f"{u}\t{i}\n" for u, i in pairs))
    write_feature_matrix(tmp_path / "a.fmat", np.zeros((len(b), 1), dtype=np.float32))
    write_feature_matrix(tmp_path / "b.fmat", np.array(b, dtype=np.float32))
    lines = [f"{i}\ta\n" for i in a_mask] + [f"{i}\tb\n" for i in b_mask]
    (tmp_path / "mask.tsv").write_text("".join(lines))
    return [
        "--interactions", str(tmp_path / "r.tsv"),
        "--features", f"a={tmp_path / 'a.fmat'}", "--features", f"b={tmp_path / 'b.fmat'}",
        "--mask", str(tmp_path / "mask.tsv"),
    ]


def test_missing_fallback_is_data_error_before_divergence(tmp_path, capsys):
    # `a` is all masked with a cold item c; `b` alone would diverge (exit 3)
    pairs = [("u1", "a"), ("u1", "b"), ("u2", "c")]
    args = two_modality_dataset(tmp_path, pairs, "abc", [[1.0], [0.0], [2.0]], "b")
    argv = ["impute", *args, "--method", "pers-pagerank", "--alpha", "0.5"]
    assert main([*argv, "--fallback", "zeros", "--out", str(tmp_path / "z")]) == 3
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert "modality 'a' has no observed rows" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_all_masked_modality_without_cold_items_cli(tmp_path):
    # every item has a neighbor: the graph methods succeed and write zeros
    # for `a`; global-mean has no observed `a` row to average
    pairs = [("u1", "a"), ("u1", "b"), ("u2", "b"), ("u2", "c")]
    args = two_modality_dataset(tmp_path, pairs, "abc", [[1.0], [0.0], [2.0]], "b")
    for method in ("neigh-mean", "multihop", "pers-pagerank"):
        out = tmp_path / method
        assert main(["impute", *args, "--method", method, "--out", str(out)]) == 0
        assert not read_feature_matrix(out / "a.fmat").any()
    assert main(["impute", *args, "--method", "global-mean", "--out", str(tmp_path / "g")]) == 2


def test_impute_ppr_default_beyond_dense_cap(tmp_path):
    # the default solver handles graphs past the 2,000-item dense cap;
    # `--ppr-mode` accepts only `iterative`
    n = 2001
    pairs = "".join(f"u{i}\ti{i + d}\n" for i in range(n - 1) for d in (0, 1))
    (tmp_path / "r.tsv").write_text(pairs)
    feats = np.arange(2 * n, dtype=np.float32).reshape(n, 2)
    feats[::7] = 0.0
    write_feature_matrix(tmp_path / "text.fmat", feats)
    (tmp_path / "mask.tsv").write_text("".join(f"i{i}\ttext\n" for i in range(0, n, 7)))
    args = [
        "impute",
        "--interactions", str(tmp_path / "r.tsv"),
        "--features", f"text={tmp_path / 'text.fmat'}",
        "--mask", str(tmp_path / "mask.tsv"),
        "--method", "pers-pagerank",
    ]
    assert main([*args, "--out", str(tmp_path / "x")]) == 0
    report = json.loads((tmp_path / "x" / "report.json").read_text())
    assert len(report["modalities"]["text"]["fixed_point_steps"]) == 10
    with pytest.raises(SystemExit) as excinfo:
        main([*args, "--ppr-mode", "exact", "--out", str(tmp_path / "y")])
    assert excinfo.value.code == 1


def test_masked_rows_must_be_placeholders(tmp_path):
    args = tiny_dataset(tmp_path)
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [9.0, 9.0]], dtype=np.float32)
    write_feature_matrix(tmp_path / "text.fmat", feats)
    code = main(["impute", *args, "--method", "zeros", "--out", str(tmp_path / "x")])
    assert code == 2


def test_stats_output(tmp_path, capsys):
    code = main(["stats", *tiny_dataset(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("users") and line.endswith("3") for line in lines)
    assert any(line.startswith("items") and line.endswith("3") for line in lines)
    assert any(line.startswith("interactions") and line.endswith("6") for line in lines)
    assert any(line.startswith("missing text") and line.endswith("1") for line in lines)


def test_stats_json(tmp_path, capsys):
    assert main(["stats", *tiny_dataset(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["missing"] == {"text": 1}


def test_drop_subcommand(tmp_path, capsys):
    out = tmp_path / "dropped"
    code = main(["drop", *tiny_dataset(tmp_path), "--out", str(out)])
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["before"]["n_items"] == 3
    assert stats["after"]["n_items"] == 2
    assert stats["after"]["missing"] == {"text": 0}
    assert (out / "interactions.tsv").exists()
    assert read_feature_matrix(out / "text.fmat").shape == (2, 2)


def test_drop_frees_its_input_before_writing(tmp_path, monkeypatch):
    loaded, freed = [], []

    def load_feature_set(*args, **kwargs):
        f = mmimpute.io.load_feature_set(*args, **kwargs)
        loaded.append(weakref.ref(f))
        return f

    def write_dataset(*args, **kwargs):
        freed.append(loaded[0]() is None)
        return mmimpute.io.write_dataset(*args, **kwargs)

    monkeypatch.setattr(mmimpute.cli, "load_feature_set", load_feature_set)
    monkeypatch.setattr(mmimpute.cli, "write_dataset", write_dataset)
    out = tmp_path / "dropped"
    assert main(["drop", *tiny_dataset(tmp_path), "--out", str(out)]) == 0
    assert json.loads((out / "stats.json").read_text())["after"]["n_items"] == 2  # c is dropped
    assert freed == [True]


def test_synth_and_evaluate_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    code = main([
        "synth", "--users", "60", "--items", "30", "--communities", "3",
        "--p-in", "0.5", "--p-out", "0.02", "--dims", "text=8,visual=4",
        "--noise-sigma", "0.1", "--seed", "3", "--out", str(data),
    ])
    assert code == 0
    report_path = tmp_path / "report.json"
    code = main([
        "evaluate",
        "--interactions", str(data / "interactions.tsv"),
        "--features", f"text={data / 'text.fmat'}",
        "--features", f"visual={data / 'visual.fmat'}",
        "--hide-fraction", "0.2",
        "--methods", "zeros,global-mean,neigh-mean",
        "--top-k-grid", "5:10:5", "--hops-grid", "1:2:1",
        "--seed", "4", "--out", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert len(payload["rows"]) == 1 + 1 + 2  # zeros, global-mean, neigh-mean x2
    for row in payload["rows"]:
        assert set(row["metrics"]) == {"text", "visual"}


def test_cli_determinism(tmp_path):
    data = tmp_path / "data"
    assert main([
        "synth", "--users", "40", "--items", "20", "--communities", "2",
        "--p-in", "0.5", "--p-out", "0.05", "--dims", "m=6",
        "--noise-sigma", "0.2", "--seed", "9", "--out", str(data),
    ]) == 0
    # hide some rows via a mask file so the imputation has work to do
    import mmimpute.io as mio
    r = mio.read_interactions(data / "interactions.tsv")
    (data / "mask.tsv").write_text("".join(f"{i}\tm\n" for i in r.item_ids[:4]))
    feats = read_feature_matrix(data / "m.fmat")
    feats[[r.item_ids.index(i) for i in r.item_ids[:4]]] = 0.0
    write_feature_matrix(data / "m.fmat", feats)

    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([
            "impute",
            "--interactions", str(data / "interactions.tsv"),
            "--features", f"m={data / 'm.fmat'}",
            "--mask", str(data / "mask.tsv"),
            "--method", "pers-pagerank", "--alpha", "0.85", "--top-k", "5",
            "--hops", "4", "--out", str(out),
        ]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "m.fmat").read_bytes() == (b / "m.fmat").read_bytes()
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    ra.pop("timing"), rb.pop("timing")
    assert ra == rb


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["synth", "evaluate"])
def test_seed_out_of_range_is_usage_error(tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    if command == "synth":
        argv = [
            "synth", "--users", "20", "--items", "10", "--communities", "2",
            "--p-in", "0.5", "--p-out", "0.05", "--dims", "text=2",
        ]
    else:
        argv = ["evaluate", *tiny_dataset(tmp_path), "--hide-fraction", "0.5", "--methods", "zeros"]
    assert main([*argv, "--seed", seed, "--out", str(out)]) == 1
    assert "error: seed must be an unsigned 64-bit integer" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_iter_tolerance_is_usage_error(tmp_path, capsys):
    # inf passed `> 0` and made every fixed point stop after one step
    out = tmp_path / "out"
    for tolerance in ("inf", "nan"):
        code = main([
            "impute", *tiny_dataset(tmp_path), "--method", "pers-pagerank",
            "--iter-tolerance", tolerance, "--out", str(out),
        ])
        assert code == 1
        assert "iter_tolerance must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


SMALL_SYNTH = [
    "synth", "--users", "20", "--items", "10", "--communities", "2",
    "--p-in", "0.5", "--p-out", "0.05", "--dims", "text=2",
]


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_noise_sigma_is_usage_error(tmp_path, capsys, sigma):
    out = tmp_path / "out"
    code = main([*SMALL_SYNTH, "--noise-sigma", sigma, "--out", str(out)])
    assert code == 1
    assert "noise_sigma must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


def unwritable_argv(tmp_path, command, where):
    """argv whose --out cannot be written, and the path the error names.

    The inputs of `impute` and `drop` do not exist, so reading them first
    would exit 2 with "cannot read" instead.
    """
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    missing = [
        "--interactions", str(tmp_path / "missing.tsv"),
        "--features", f"text={tmp_path / 'missing.fmat'}", "--mask", str(tmp_path / "missing.tsv"),
    ]
    if command == "synth":
        argv = SMALL_SYNTH
    elif command == "impute":
        argv = ["impute", *missing, "--method", "zeros"]
    elif command == "evaluate":
        argv = ["evaluate", *tiny_dataset(tmp_path), "--hide-fraction", "0.5", "--methods", "zeros"]
    else:
        argv = [command, *missing]
    out = {
        "file": taken, "under-file": taken / "out", "directory": tmp_path,
        "missing-parent": tmp_path / "no" / "r.json",
    }[where]
    return [*argv, "--out", str(out)], out


@pytest.mark.parametrize(
    "command, where",
    [
        ("impute", "file"),
        ("drop", "file"),
        ("drop", "under-file"),
        ("synth", "file"),
        ("evaluate", "directory"),
        ("evaluate", "missing-parent"),
    ],
)
def test_unwritable_output_is_data_error(tmp_path, capsys, monkeypatch, command, where):
    def no_synth(*args, **kwargs):
        raise AssertionError("synth generated a dataset")

    monkeypatch.setattr("mmimpute.cli.synth_generate", no_synth)
    argv, out = unwritable_argv(tmp_path, command, where)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {out}: cannot write: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--iter-tolerance", "inf"], "iter_tolerance must be positive and finite"),
        (["--methods", "bogus"], "unknown method 'bogus'"),
        (["--hide-fraction", "1.5"], "hide fraction must be in (0, 1), got 1.5"),
        (["--top-k-grid", "5:1:1"], "bad grid '5:1:1'"),
        (["--hops-grid", "0:3:1"], "bad grid '0:3:1'"),
        (["--top-k-grid", "0"], "bad grid '0'"),
        (["--hops-grid", "-3"], "bad grid '-3'"),
        (["--alpha", "0"], "alpha must be in (0, 1]"),
        (["--seed", "-1"], "seed must be an unsigned 64-bit integer"),
    ],
    ids=[
        "iter-tolerance", "methods", "hide-fraction", "top-k-grid", "hops-grid",
        "top-k-grid-integer", "hops-grid-integer", "alpha", "seed",
    ],
)
def test_evaluate_checks_flags_before_reading(tmp_path, capsys, flags, message):
    # the input does not exist, so any read would exit 2 with "cannot read"
    out = tmp_path / "report.json"
    argv = [
        "evaluate", "--interactions", str(tmp_path / "missing.tsv"),
        "--features", f"text={tmp_path / 'missing.fmat'}",
        "--hide-fraction", "0.5", "--methods", "zeros,multihop",
    ]
    assert main([*argv, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "cannot read" not in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_evaluate_checks_out_before_the_sweep(tmp_path, capsys, monkeypatch, where):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("mmimpute.cli.run_sweep", no_sweep)
    argv, out = unwritable_argv(tmp_path, "evaluate", where)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"data error: {out}: cannot write: ")
    assert out.is_dir() if where == "directory" else not out.parent.exists()


def test_evaluate_out_check_leaves_an_existing_report(tmp_path, monkeypatch):
    # checking --out neither creates nor truncates it: a failed sweep
    # leaves the previous report in place
    def failing_sweep(*args, **kwargs):
        raise DivergentDiffusion("diverged")

    monkeypatch.setattr("mmimpute.cli.run_sweep", failing_sweep)
    out = tmp_path / "report.json"
    out.write_text("previous report\n")
    argv = ["evaluate", *tiny_dataset(tmp_path), "--hide-fraction", "0.5", "--methods", "zeros"]
    assert main([*argv, "--out", str(out)]) == 3
    assert out.read_text() == "previous report\n"


def test_evaluate_hide_fraction_selecting_zero_rows_is_usage_error(tmp_path, capsys):
    # 0.05 of 12 observed rows rounds down to no row to hide
    (tmp_path / "r.tsv").write_text(
        "".join(f"u{k}\ti{k}\nu{k}\ti{(k + 1) % 12}\n" for k in range(12))
    )
    write_feature_matrix(tmp_path / "text.fmat", np.arange(24, dtype=np.float32).reshape(12, 2))
    out = tmp_path / "report.json"
    code = main([
        "evaluate", "--interactions", str(tmp_path / "r.tsv"),
        "--features", f"text={tmp_path / 'text.fmat'}",
        "--hide-fraction", "0.05", "--methods", "zeros", "--out", str(out),
    ])
    assert code == 1
    assert "hide fraction 0.05 selects zero rows for modality 'text'" in capsys.readouterr().err
    assert not out.exists()


def test_impute_beyond_float32_range_is_data_error(tmp_path, capsys):
    # a masked hub with 100 leaves observed at 1e38: one symmetric-normalized
    # hop gives it 100 * 1e38 / sqrt(100) = 1e39, which float32 cannot hold
    n = 100
    (tmp_path / "r.tsv").write_text("".join(f"u{i}\thub\nu{i}\tleaf{i}\n" for i in range(n)))
    feats = np.full((n + 1, 2), 1e38, dtype=np.float32)
    feats[0] = 0.0  # the hub is the first item
    write_feature_matrix(tmp_path / "text.fmat", feats)
    (tmp_path / "mask.tsv").write_text("hub\ttext\n")
    out = tmp_path / "out"
    assert main([
        "impute", "--interactions", str(tmp_path / "r.tsv"),
        "--features", f"text={tmp_path / 'text.fmat'}", "--mask", str(tmp_path / "mask.tsv"),
        "--method", "multihop", "--hops", "1", "--out", str(out),
    ]) == 2
    assert "refusing to write values that are not finite at float32" in capsys.readouterr().err
    assert not (out / "text.fmat").exists()


def test_refused_modality_leaves_no_output(tmp_path, capsys):
    # a star: the masked hub i0 co-interacts with 100 leaves. One hop gives
    # it 10 in text, but 100 * 1e38 / sqrt(100) = 1e39 in visual, which
    # float32 cannot hold; text comes first and must not be written either
    n = 100
    (tmp_path / "r.tsv").write_text("".join(f"u{i}\ti0\nu{i}\ti{i + 1}\n" for i in range(n)))
    features = []
    for name, leaf in [("text", 1.0), ("visual", 1e38)]:
        feats = np.full((n + 1, 2), leaf, dtype=np.float32)
        feats[0] = 0.0
        write_feature_matrix(tmp_path / f"{name}.fmat", feats)
        features += ["--features", f"{name}={tmp_path / f'{name}.fmat'}"]
    (tmp_path / "mask.tsv").write_text("i0\ttext\ni0\tvisual\n")
    out = tmp_path / "out"
    assert main([
        "impute", "--interactions", str(tmp_path / "r.tsv"), *features,
        "--mask", str(tmp_path / "mask.tsv"),
        "--method", "multihop", "--hops", "1", "--top-k", "200", "--out", str(out),
    ]) == 2
    assert "visual.fmat: refusing to write values that are not finite at float32" in (
        capsys.readouterr().err
    )
    assert not out.exists() or not any(out.iterdir())


def subcommand_actions(command):
    """The argparse actions of one subcommand, by destination."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest: action for action in sub.choices[command]._actions}


def test_impute_and_evaluate_declare_config_flags_alike():
    defaults = {field.name: field.default for field in dataclasses.fields(ImputeConfig)}
    impute_flags, evaluate_flags = subcommand_actions("impute"), subcommand_actions("evaluate")
    for dest, field in [("alpha", "alpha"), ("seed", "seed"), ("fallback", "cold_fallback"),
                        ("iter_tolerance", "iter_tolerance")]:
        a, b = impute_flags[dest], evaluate_flags[dest]
        shape = ("option_strings", "type", "default", "choices", "help")
        assert [getattr(a, k) for k in shape] == [getattr(b, k) for k in shape], dest
        assert a.default == defaults[field], dest
    assert impute_flags["top_k"].default == defaults["top_k"]
    assert impute_flags["hops"].default == defaults["hops"]


def raised_message(call):
    with pytest.raises(InvalidParameter) as excinfo:
        call()
    return str(excinfo.value)


def test_each_rule_has_one_message():
    r, f = synth_generate(20, 10, 2, 0.5, 0.1, [("m", 4)], 0.1, seed=4)
    top_k = {
        raised_message(lambda: ImputeConfig(method="multihop", top_k=0)),
        raised_message(lambda: topk_sparsify(cooccurrence(r), 0)),
        raised_message(lambda: run_sweep(r, f, ["multihop"], [0], [1], 0.2, 0)),
    }
    assert top_k == {"top_k must be at least 1, got 0"}
    method = {
        raised_message(lambda: ImputeConfig(method="bogus")),
        raised_message(lambda: parse_methods("zeros,bogus")),
        raised_message(lambda: run_sweep(r, f, ["zeros", "bogus"], [5], [1], 0.2, 0)),
    }
    assert len(method) == 1
    assert method.pop().startswith("unknown method 'bogus'; expected one of zeros, random")


def invalid_parameter_templates():
    """Each `raise InvalidParameter(...)` message template in the package, with its places.

    An f-string's fields read as "{}", so the same rule checked in two
    places shows up as one template raised twice.
    """
    places = defaultdict(list)
    for path in sorted(Path(mmimpute.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "InvalidParameter" and call.args):
                continue
            message = call.args[0]
            if isinstance(message, ast.JoinedStr):
                template = "".join(
                    part.value if isinstance(part, ast.Constant) else "{}" for part in message.values
                )
            elif isinstance(message, ast.Constant):
                template = message.value
            else:
                continue
            places[template].append(f"{path.name}:{node.lineno}")
    return places


def test_each_invalid_parameter_template_is_raised_once():
    places = invalid_parameter_templates()
    assert "top_k must be at least 1, got {}" in places  # the walk sees f-strings
    assert {t: p for t, p in places.items() if len(p) > 1} == {}


def unused_imports():
    """`module.name` for each name a package module imports and never reads.

    A name listed in the module's `__all__` counts as read: that is how
    `__init__.py` re-exports.
    """
    unused = set()
    for path in sorted(Path(mmimpute.__file__).parent.glob("*.py")):
        imported, read = set(), set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                read.update(ast.literal_eval(node.value))
        unused.update(f"{path.stem}.{name}" for name in imported - read)
    return unused


def test_no_unused_import():
    # perfbench/tracer.py wraps imputers.ppr_exact by name; once it stops,
    # the import must go too
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    allowed = {"imputers.ppr_exact"} if '"ppr_exact"' in tracer.read_text(encoding="utf-8") else set()
    assert unused_imports() == allowed


@pytest.mark.parametrize("command", ["impute", "drop", "stats", "synth", "evaluate"])
def test_help_exits_zero(capsys, command):
    # argparse formats help text only when it is asked for: a stray '%' in
    # a help string would fail here and nowhere else
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: mmimpute {command}")


def test_cli_import_stays_light():
    # each of these costs about 130 ms of import time, which every
    # command would pay; none of them is needed on the default path
    heavy = ["scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.linalg"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = f"import sys, mmimpute.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
