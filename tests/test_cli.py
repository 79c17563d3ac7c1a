import json

import numpy as np
import pytest

from mmimpute import InvalidParameter
from mmimpute.cli import main, parse_dims, parse_features, parse_grid, parse_methods
from mmimpute.io import read_feature_matrix, write_feature_matrix


def test_parse_grid_matches_sweep_ranges():
    assert parse_grid("10:100:10") == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert parse_grid("1:20:1") == list(range(1, 21))
    assert parse_grid("7") == [7]


def test_parse_grid_rejects_junk():
    for bad in ("10:5:1", "0:10:2", "1:10:0", "a:b:c", "1:2:3:4"):
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
    """argv whose --out cannot be written, and the path the error names."""
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    if command == "synth":
        argv = SMALL_SYNTH
    elif command == "impute":
        argv = ["impute", *tiny_dataset(tmp_path), "--method", "zeros"]
    elif command == "evaluate":
        argv = ["evaluate", *tiny_dataset(tmp_path), "--hide-fraction", "0.5", "--methods", "zeros"]
    else:
        argv = [command, *tiny_dataset(tmp_path)]
    out = {"file": taken, "directory": tmp_path, "missing-parent": tmp_path / "no" / "r.json"}[where]
    return [*argv, "--out", str(out)], out


@pytest.mark.parametrize(
    "command, where",
    [
        ("impute", "file"),
        ("drop", "file"),
        ("synth", "file"),
        ("evaluate", "directory"),
        ("evaluate", "missing-parent"),
    ],
)
def test_unwritable_output_is_data_error(tmp_path, capsys, command, where):
    argv, out = unwritable_argv(tmp_path, command, where)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {out}: cannot write: ")
    assert "Traceback" not in err
