"""Command-line surface for the imputation pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from pathlib import Path

from .errors import DataError, InconsistentData, InvalidParameter, NumericalError, UsageError
from .evaluate import (
    check_hide_fraction,
    check_methods,
    check_synth_params,
    dataset_stats,
    drop_missing,
    run_sweep,
    synth_generate,
)
from .features import FALLBACKS, ImputeConfig, METHODS, check_modality_name, validate
from .imputers import impute
from .io import load_feature_set, read_interactions, write_dataset, write_feature_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _split_named(parts: list[str], form: str) -> list[tuple[str, str]]:
    """Split each "NAME=VALUE" part at its first '=', in order.

    Names must differ, and each must be a modality name that can be
    written (`check_modality_name`).
    """
    out: dict[str, str] = {}
    for part in parts:
        name, sep, value = part.partition("=")
        if not sep or not name or not value:
            raise InvalidParameter(f"expected {form}, got '{part}'")
        check_modality_name(name)
        if name in out:
            raise InvalidParameter(f"modality '{name}' given twice")
        out[name] = value
    return list(out.items())


def parse_features(specs: list[str]) -> list[tuple[str, str]]:
    """Parse repeated "modality=path" flags, preserving order."""
    return _split_named(specs, "modality=PATH")


def parse_dims(spec: str) -> list[tuple[str, int]]:
    """Parse "text=384,visual=512" into ordered (name, dim) pairs."""
    out: list[tuple[str, int]] = []
    for name, dim in _split_named(spec.split(","), "name=DIM"):
        try:
            out.append((name, int(dim)))
        except ValueError:
            raise InvalidParameter(f"bad dimension '{dim}' for modality '{name}'") from None
    return out


def parse_grid(spec: str) -> list[int]:
    """Expand "start:stop:step" inclusively; a bare integer N is "N:N:1"."""
    parts = spec.split(":") if ":" in spec else [spec, spec, "1"]
    try:
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (int(p) for p in parts)
    except ValueError:
        raise InvalidParameter(f"expected START:STOP:STEP or an integer, got '{spec}'") from None
    if step < 1 or start < 1 or stop < start:
        raise InvalidParameter(f"bad grid '{spec}': need 1 <= start <= stop and step >= 1")
    return list(range(start, stop + 1, step))


def parse_methods(spec: str) -> list[str]:
    """Parse "zeros,multihop" into its methods, in order; each must be known and given once."""
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    if not methods:
        raise InvalidParameter("no methods given")
    check_methods(methods)
    return methods


def _dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _check_writable(path):
    """Raise the OSError that writing `path` would, without creating or truncating it."""
    try:  # an existing path; O_NONBLOCK keeps a pipe with no reader from blocking
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
    except FileNotFoundError:  # a new file: its directory must exist and take it
        parent = os.path.dirname(os.path.abspath(path))
        if not os.access(parent, os.W_OK | os.X_OK):
            code = errno.EACCES if os.path.isdir(parent) else errno.ENOENT
            raise OSError(code, os.strerror(code), path) from None


def _check_writable_dir(path):
    """Raise the OSError that making directory `path` and writing in it would, creating nothing."""
    target = existing = os.path.abspath(path)
    while not os.path.lexists(existing):  # the nearest existing ancestor, or `path` itself
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        code = errno.EEXIST if existing == target else errno.ENOTDIR
    elif not os.access(existing, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _load_dataset(args):
    r = read_interactions(args.interactions)
    f = load_feature_set(args.features, r, getattr(args, "mask", None))
    report = validate(f, r)
    if not report.ok:
        raise InconsistentData("; ".join(report.problems))
    return r, f


def _cmd_impute(args) -> int:
    cfg = ImputeConfig(
        method=args.method,
        top_k=args.top_k,
        hops=args.hops,
        alpha=args.alpha,
        seed=args.seed,
        cold_fallback=args.fallback,
        iter_tolerance=args.iter_tolerance,
        clamp=not args.no_clamp,
    )
    _check_writable_dir(args.out)
    r, f = _load_dataset(args)
    imputed, report = impute(f, r, cfg)
    out = Path(args.out)
    report["outputs"] = write_feature_set(out, imputed)
    _dump_json(out / "report.json", report)
    total = sum(d["imputed_rows"] for d in report["modalities"].values())
    print(f"imputed {total} rows across {len(f.modalities)} modalities -> {out}")
    return EXIT_OK


def _cmd_drop(args) -> int:
    _check_writable_dir(args.out)
    r, f = _load_dataset(args)
    # the loaded interactions are freed here; the loaded features are the
    # only copy, and the kept rows are gathered from them as they are written
    r, items, before, after = drop_missing(r, f)
    out = Path(args.out)
    files = write_dataset(out, r, f, items)
    _dump_json(out / "stats.json", {"before": before.as_dict(), "after": after.as_dict(), "files": files})
    print(
        f"dropped {before.n_items - after.n_items} items, "
        f"{before.n_users - after.n_users} users, "
        f"{before.n_interactions - after.n_interactions} interactions -> {out}"
    )
    return EXIT_OK


def _cmd_stats(args) -> int:
    r, f = _load_dataset(args)
    stats = dataset_stats(r, f)
    if args.json:
        print(json.dumps(stats.as_dict(), sort_keys=True, indent=2))
        return EXIT_OK
    labels = ["users", "items", "interactions"] + [f"missing {m}" for m in f.modalities]
    width = max(len(label) for label in labels) + 2
    values = [stats.n_users, stats.n_items, stats.n_interactions]
    values += [stats.missing[m] for m in f.modalities]
    for label, value in zip(labels, values):
        print(f"{label:<{width}}{value}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    params = (
        args.users,
        args.items,
        args.communities,
        args.p_in,
        args.p_out,
        parse_dims(args.dims),
        args.noise_sigma,
        args.seed,
    )
    check_synth_params(*params)
    _check_writable_dir(args.out)
    r, f = synth_generate(*params)
    files = write_dataset(args.out, r, f)
    _dump_json(
        Path(args.out) / "stats.json",
        {"stats": dataset_stats(r, f).as_dict(), "files": files},
    )
    print(f"generated {r.n_users} users, {r.n_items} items, {r.n_interactions} interactions -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    started = time.perf_counter()
    # every flag, then the report path, is checked before anything is read
    methods = parse_methods(args.methods)
    top_k_grid, hops_grid = parse_grid(args.top_k_grid), parse_grid(args.hops_grid)
    check_hide_fraction(args.hide_fraction)
    # the sweep's shared flags; parse_methods has checked every method
    ImputeConfig(
        method=methods[0], alpha=args.alpha, seed=args.seed,
        cold_fallback=args.fallback, iter_tolerance=args.iter_tolerance,
    )
    _check_writable(args.out)
    r, f = _load_dataset(args)
    rows = run_sweep(
        r,
        f,
        methods,
        top_k_grid,
        hops_grid,
        args.hide_fraction,
        args.seed,
        alpha=args.alpha,
        cold_fallback=args.fallback,
        iter_tolerance=args.iter_tolerance,
    )
    payload = {
        "dataset": dataset_stats(r, f).as_dict(),
        "hide_fraction": args.hide_fraction,
        "seed": args.seed,
        "rows": rows,
        "timing": {"wall_s": time.perf_counter() - started},
    }
    _dump_json(args.out, payload)
    best: dict[str, tuple[float, dict]] = {}
    for row in rows:
        cosines = [v["mean_cosine"] for v in row["metrics"].values() if v["mean_cosine"] is not None]
        if not cosines:
            continue
        score = sum(cosines) / len(cosines)
        if row["method"] not in best or score > best[row["method"]][0]:
            best[row["method"]] = (score, row)
    print(f"evaluated {len(rows)} configurations -> {args.out}")
    for method, (score, row) in best.items():
        knobs = ", ".join(
            f"{k}={row[k]}" for k in ("top_k", "hops") if row[k] is not None
        )
        print(f"  {method:<14} best mean cosine {score:.4f}" + (f"  ({knobs})" if knobs else ""))
    return EXIT_OK


def _add_dataset_flags(parser, mask_required=False):
    parser.add_argument("--interactions", required=True, help="user/item pair file")
    parser.add_argument(
        "--features",
        action="append",
        required=True,
        metavar="MODALITY=PATH",
        help="feature matrix per modality; repeatable",
    )
    parser.add_argument(
        "--mask",
        required=mask_required,
        default=None,
        help="item/modality missing list",
    )


def _add_config_flags(parser):
    parser.add_argument("--alpha", type=float, default=ImputeConfig.alpha,
                        help="teleport probability")
    parser.add_argument("--seed", type=int, default=ImputeConfig.seed)
    parser.add_argument("--fallback", choices=FALLBACKS, default=ImputeConfig.cold_fallback,
                        help="filling for items with no graph neighbors")
    parser.add_argument("--iter-tolerance", type=float, default=ImputeConfig.iter_tolerance,
                        help="fixed-point stopping residual, relative to the largest |input|")


def build_parser() -> _Parser:
    parser = _Parser(prog="mmimpute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("impute", help="fill missing feature rows")
    _add_dataset_flags(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--top-k", type=int, default=ImputeConfig.top_k, help="sparsification strength")
    p.add_argument("--hops", type=int, default=ImputeConfig.hops, help="propagation depth T")
    _add_config_flags(p)
    p.add_argument("--ppr-mode", choices=("iterative",), default="iterative",
                   help="accepted for existing scripts; the fixed point is the only solver")
    p.add_argument("--no-clamp", action="store_true",
                   help="do not re-pin observed rows between hops (study toggle)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_impute)

    p = sub.add_parser("drop", help="remove items with missing modalities")
    _add_dataset_flags(p, mask_required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_drop)

    p = sub.add_parser("stats", help="print dataset statistics")
    _add_dataset_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("synth", help="generate a community-structured dataset")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--communities", type=int, required=True)
    p.add_argument("--p-in", type=float, required=True)
    p.add_argument("--p-out", type=float, required=True)
    p.add_argument("--dims", required=True, metavar="NAME=DIM[,NAME=DIM...]")
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("evaluate", help="mask-and-recover sweep over methods")
    _add_dataset_flags(p)
    p.add_argument("--hide-fraction", type=float, required=True)
    p.add_argument("--methods", required=True, help="comma-separated method list")
    p.add_argument("--top-k-grid", default="10:100:10", metavar="START:STOP:STEP")
    p.add_argument("--hops-grid", default="1:20:1", metavar="START:STOP:STEP")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="report file (JSON)")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "features", None) is not None:  # before a command reads or writes
            args.features = parse_features(args.features)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # every read converts its own; this is an output
        where = "output" if exc.filename is None else exc.filename
        print(f"data error: {where}: cannot write: {exc.strerror}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
