"""Benchmark of the mmimpute command line on seeded paper-scale datasets.

Run from the repository root:

    python3 perfbench/run.py --workload beauty-multihop --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Each workload generates its inputs from the seed (`gen.py`), then runs
one `mmimpute` command again and again, each time in a fresh process, for
`--seconds` seconds, checking every output. With `--trace 0` it reports
the end-to-end metrics; with `--trace 1` it alternates plain and traced
runs (`tracer.py`) and reports per-layer metrics. The last line of
standard output is a JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. The exit code is 1 when an output check fails and
2 when the benchmark cannot run (for example outside a checkout that has
`src/mmimpute`). See README.md in this directory for every metric.
"""

from __future__ import annotations

import os

# Thread pools are capped at the cores this process may use. The variables
# are set before numpy loads and are inherited by every process started.
THREADS = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CHILD_TIME_LIMIT_S = 150.0
LAYERS = ("io", "features", "graph", "imputers", "evaluate")
ENTRY = "import sys; from mmimpute.cli import main; sys.exit(main())"
# Typical wall time of calib.py on the two-core machine the bounds were set on.
# A time t measured in an invocation whose runs of calib.py took c seconds
# (median) is reported as t * (CALIB_NOMINAL_S / c) ** CALIB_ELASTICITY. The
# commands' times moved about half as much as c when the machine's speed
# changed; the exponent is the least-squares slope of log t on log c over
# 37 invocations of the three listed workloads (0.4-0.7 per workload).
CALIB_NOMINAL_S = 1.1
CALIB_ELASTICITY = 0.5


@dataclass(frozen=True)
class Workload:
    scale: str
    command: str
    flags: tuple[str, ...]


# Why each workload exists, and the layer shares measured for it, are
# recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "beauty-multihop": Workload(
        "beauty", "impute", ("--method", "multihop", "--top-k", "20", "--hops", "10")
    ),
    "office-ppr": Workload(
        "office", "impute",
        ("--method", "pers-pagerank", "--ppr-mode", "iterative", "--hops", "10", "--alpha", "0.85"),
    ),
    "office-sweep": Workload(
        "office", "evaluate",
        ("--hide-fraction", "0.2", "--methods", "zeros,global-mean,neigh-mean,multihop",
         "--top-k-grid", "10:30:10", "--hops-grid", "1:10:1"),
    ),
    "beauty-drop": Workload("beauty", "drop", ()),
}
SWEEP_CONFIGS = {"zeros": 1, "global-mean": 1, "neigh-mean": 3, "multihop": 30}

# Spans whose total self time is reported as `<name>.s`.
SELF_TIMED = (
    "graph.topk_sparsify", "graph.cooccurrence", "graph.operator",
    "io.read_interactions", "io.load_feature_set", "io.write_feature_set", "io.write_dataset",
    "features.validate", "evaluate.drop_missing", "evaluate.mask_features",
    "evaluate.reconstruction_metrics", "imputers.spmm",
)
COUNTS = (
    "imputers.hops", "imputers.fixed_point_steps", "imputers.spmm_flops",
    "graph.topk_sparsify.calls", "graph.edges", "graph.max_degree", "evaluate.configs",
)


@dataclass
class Check:
    """Outcome of checking one run's outputs."""

    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------- checks


def _cosine_rows(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Cosine per row pair; a pair with a zero row scores 0."""
    got, want = got.astype(np.float64), want.astype(np.float64)
    norms = np.linalg.norm(got, axis=1) * np.linalg.norm(want, axis=1)
    dots = np.sum(got * want, axis=1)
    return np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)


def output_digest(out: Path) -> str:
    """Hash of every output file, leaving out the `timing` block of report.json."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        if p.name == "report.json":
            report = json.loads(data)
            report.pop("timing", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(p.name.encode() + b"\0" + data)
    return h.hexdigest()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def check_impute(ds: gen.Dataset, out: Path) -> Check:
    c = Check()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    cosines, sq_err, n_err = [], 0.0, 0
    for m, truth in ds.features.items():
        mask = ds.masks[m]
        got = gen.read_fmat(out / f"{m}.fmat")
        if got.shape != truth.shape:
            c.problems.append(f"{m}.fmat has shape {got.shape}, expected {truth.shape}")
            continue
        if not np.isfinite(got).all():
            c.problems.append(f"{m}.fmat holds non-finite values")
        if not _same_bits(got[~mask], truth[~mask]):
            c.problems.append(f"{m}.fmat: observed rows differ from the input")
        if report["modalities"][m]["imputed_rows"] != int(mask.sum()):
            c.problems.append(f"report.json: wrong imputed_rows for {m}")
        err = got[mask].astype(np.float64) - truth[mask]
        sq_err += float(np.sum(err * err))
        n_err += err.size
        cosine = _cosine_rows(got[mask], truth[mask])
        cosines.append(cosine)
        # a useful imputation beats filling the mean of the observed rows
        if mask.any():
            mean = np.broadcast_to(truth[~mask].mean(axis=0), truth[mask].shape)
            if cosine.mean() <= _cosine_rows(mean, truth[mask]).mean():
                c.problems.append(f"{m}: imputed rows are no closer to the truth than the mean")
    c.quality = {
        "recon_cosine": float(np.concatenate(cosines).mean()),
        "recon_rmse": float(np.sqrt(sq_err / n_err)),
    }
    return c


def check_sweep(ds: gen.Dataset, out: Path) -> Check:
    c = Check()
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rows = payload["rows"]
    expected = sum(SWEEP_CONFIGS.values())
    if len(rows) != expected:
        c.problems.append(f"sweep wrote {len(rows)} rows, expected {expected}")
    per_method = {m: sum(r["method"] == m for r in rows) for m in SWEEP_CONFIGS}
    if per_method != SWEEP_CONFIGS:
        c.problems.append(f"sweep configurations per method {per_method}, expected {SWEEP_CONFIGS}")
    cos, rmse = [], []
    for row in rows:
        for m, v in row["metrics"].items():
            if not np.isfinite(v["rmse"]):
                c.problems.append(f"row {row['grid_index']} {m}: rmse is not finite")
            rmse.append(v["rmse"])
            if v["mean_cosine"] is None:
                if row["method"] != "zeros":  # zero rows have no cosine, by contract
                    c.problems.append(f"row {row['grid_index']} {m}: no cosine")
            elif not np.isfinite(v["mean_cosine"]):
                c.problems.append(f"row {row['grid_index']} {m}: cosine is not finite")
            else:
                cos.append(v["mean_cosine"])
    c.quality = {"recon_cosine": float(np.mean(cos)), "recon_rmse": float(np.mean(rmse))}
    return c


def check_drop(ds: gen.Dataset, out: Path) -> Check:
    c = Check()
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    before, after = stats["before"], stats["after"]
    dropped = np.zeros(ds.n_items, dtype=bool)
    for mask in ds.masks.values():
        dropped |= mask
    kept_lines = ~dropped[ds.items]
    if (before["n_items"], before["n_interactions"]) != (ds.n_items, ds.items.size):
        c.problems.append("stats.json: wrong counts before the drop")
    if after["n_items"] != before["n_items"] - int(dropped.sum()):
        c.problems.append("stats.json: items_after != items_before - items_missing_any")
    if after["n_interactions"] != int(kept_lines.sum()):
        c.problems.append("stats.json: wrong interaction count after the drop")
    tokens = (out / "interactions.tsv").read_text(encoding="utf-8").split()
    users = np.array([int(u[1:]) for u in tokens[0::2]])
    items = np.array([int(i[1:]) for i in tokens[1::2]])
    want = np.unique(ds.users[kept_lines] * ds.n_items + ds.items[kept_lines])
    if not np.array_equal(np.unique(users * ds.n_items + items), want):
        c.problems.append("interactions.tsv is not the input minus the dropped items")
    _, first = np.unique(items, return_index=True)
    order = items[np.sort(first)]  # input row of each output row
    for m, x in ds.features.items():
        got = gen.read_fmat(out / f"{m}.fmat")
        if not np.isfinite(got).all():
            c.problems.append(f"{m}.fmat holds non-finite values")
        if not _same_bits(got, x[order]):
            c.problems.append(f"{m}.fmat: rows differ from the input rows of the kept items")
    return c


CHECKS = {"impute": check_impute, "evaluate": check_sweep, "drop": check_drop}
QUALITY_SOURCE = {
    "impute": "imputed masked rows against the generator's truth",
    "evaluate": "mean over the sweep's rows and modalities",
}


# ------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Spawner:
    """Runs measured commands through `spawn.py`, started while this process is small."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], log: Path, env: dict) -> tuple[int, float, float]:
        """Returns (exit code, wall seconds, peak RSS in MB) of one command."""
        request = {"cmd": cmd, "log": str(log), "env": env, "limit_s": CHILD_TIME_LIMIT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["wall_s"], reply["peak_rss_mb"]

    def calibrate(self, log: Path, env: dict) -> float:
        """Wall seconds of one run of calib.py."""
        code, wall, _ = self.run([sys.executable, str(HERE / "calib.py")], log, env)
        if code != 0:
            raise RuntimeError("calib.py failed: " + log.read_text(errors="replace")[-2000:])
        return wall

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli_argv(w: Workload, inputs: dict, out: Path) -> list[str]:
    argv = [w.command, "--interactions", str(inputs["interactions"])]
    for name, _, _ in gen.SCALES[w.scale].modalities:
        argv += ["--features", f"{name}={inputs[name]}"]
    argv += ["--mask", str(inputs["mask"]), *w.flags]
    return argv + ["--out", str(out / "report.json" if w.command == "evaluate" else out)]


# ---------------------------------------------------------------- traces


def self_times(spans: list) -> dict[str, tuple[int, float]]:
    """Calls and total self time per span name."""
    child_time = [0.0] * len(spans)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    table: dict[str, tuple[int, float]] = {}
    for sid, _, name, start, end in spans:
        calls, total = table.get(name, (0, 0.0))
        table[name] = (calls + 1, total + (end - start) - child_time[sid])
    return table


def span_metrics(spans: list, counts: dict, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose process took `wall` seconds."""
    self_by_name = {name: s for name, (_, s) in self_times(spans).items()}
    out = {f"{layer}.self.s": 0.0 for layer in LAYERS}
    for name, s in self_by_name.items():
        layer = name.split(".")[0]
        if layer in LAYERS:
            out[f"{layer}.self.s"] += s
    out["cli.self.s"] = wall - sum(out.values())
    main = next(s for s in spans if s[2] == "cli.main")
    out["cli.startup.s"] = wall - (main[4] - main[3])
    for name in SELF_TIMED:
        out[f"{name}.s"] = self_by_name.get(name, 0.0)
    hops = [end - start for _, _, name, start, end in spans if name == "imputers.hop"]
    out["imputers.hop.s"] = statistics.median(hops) if hops else 0.0
    out["imputers.fixed_point.s"] = sum(
        (end - start for _, _, name, start, end in spans if name == "imputers.fixed_point"), 0.0
    )
    for name in COUNTS:
        out[name] = float(counts.get(name, 0))
    computed = counts.get("imputers.rows_computed", 0)
    useful = counts.get("imputers.rows_useful", 0)
    out["imputers.useful_row_ratio"] = useful / computed if computed else 0.0
    out["trace.wall_s"] = wall
    return out


# ------------------------------------------------------------- workloads


def setup(w: Workload, seed: int, data: Path, env: dict) -> tuple[gen.Dataset, dict, list[float]]:
    """Generate and write the inputs and warm up imports, several times."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        ds = gen.generate(gen.SCALES[w.scale], seed)
        inputs = gen.write(ds, data)
        warm = subprocess.run([sys.executable, "-c", "import mmimpute.cli"], env=env,
                              capture_output=True, timeout=CHILD_TIME_LIMIT_S)
        if warm.returncode != 0:
            raise RuntimeError("cannot import mmimpute: " + warm.stderr.decode(errors="replace"))
        times.append(time.perf_counter() - started)
    return ds, inputs, times


def _fmt_wall(samples: list[float]) -> str:
    n = len(samples)
    if not n:
        return "no successful run"
    beyond = [p for p in (99, 95, 90, 75, 50) if n * (100 - p) / 100 >= 10]
    tail = "none (n < 20)"
    if beyond:
        p = beyond[0]
        tail = f"p{p} = {np.percentile(samples, p):.4f} s"
    return (f"median of n={n}, range {min(samples):.4f}..{max(samples):.4f} s; "
            f"highest percentile with >= 10 samples beyond it: {tail}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, root: Path,
                 spawner: Spawner) -> dict:
    work = root / f"{name}-{os.getpid()}"
    try:
        return _run_workload(name, seed, seconds, trace, work, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name: str, seed: int, seconds: int, trace: bool, work: Path,
                  spawner: Spawner) -> dict:
    w = WORKLOADS[name]
    env = child_env()
    ds, inputs, setup_times = setup(w, seed, work / "data", env)
    edges, max_degree = gen.graph_shape(ds, 20)
    masked = ", ".join(f"{m} {int(k.sum())}/{ds.n_items}" for m, k in ds.masks.items())
    print(f"[{name}] seed {seed}: {ds.n_users} users, {ds.n_items} items, "
          f"{ds.items.size} interactions; masked {masked}; top-20 graph {edges} edges, "
          f"max degree {max_degree}")
    print(f"[{name}] threads capped at {THREADS} (BLAS/OpenMP via environment) "
          f"on a machine with {os.cpu_count()} cores")

    argv = cli_argv(w, inputs, work / "out")
    bytes_read = sum(Path(p).stat().st_size for p in inputs.values())
    plain_cmd = [sys.executable, "-c", ENTRY, *argv]
    spans_path = work / "spans.json"
    traced_cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *argv]

    checked: dict[str, Check] = {}  # by output digest; reruns must match
    walls, rss, layer_samples, cycles = [], [], [], []
    calib_log = work / "calib.txt"
    calibs = [spawner.calibrate(calib_log, env)]
    attempted = failed = 0
    started = time.perf_counter()
    # A run starts only if, at the usual length of a run and its calibration,
    # it would end nearer the deadline than half such a cycle past it.
    while (attempted < (2 if trace else 1)
           or time.perf_counter() - started + statistics.median(cycles) / 2 < seconds):
        traced = trace and attempted % 2 == 1
        cycle_started = time.perf_counter()
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        code, wall, peak = spawner.run(traced_cmd if traced else plain_cmd, work / "log.txt", env)
        attempted += 1
        calibs.append(spawner.calibrate(calib_log, env))
        cycles.append(time.perf_counter() - cycle_started)
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            try:
                digest = output_digest(out)
                if digest not in checked:
                    checked[digest] = CHECKS[w.command](ds, out)
                problems += checked[digest].problems
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            if len(checked) > 1:
                problems.append("outputs differ between identical runs")
        if problems:
            failed += 1
            log_tail = (work / "log.txt").read_text(errors="replace")[-2000:]
            print(f"[{name}] run {attempted} failed: {'; '.join(problems)}\n{log_tail}",
                  file=sys.stderr)
            continue
        if traced:
            trace_log = json.loads(spans_path.read_text())
            spans = trace_log["spans"]
            sample = span_metrics(spans, trace_log["counts"], wall)
            if min(v for k, v in sample.items() if k.endswith(".self.s")) < 0:
                failed += 1  # spans overlap or outlast the process: the trace is wrong
                print(f"[{name}] run {attempted} failed: negative self time in the trace",
                      file=sys.stderr)
                continue
            sample["io.bytes_read"] = float(bytes_read)
            sample["io.bytes_written"] = float(sum(p.stat().st_size for p in out.rglob("*")))
            layer_samples.append(sample)
        else:
            walls.append(wall)
            rss.append(peak)

    quality = next(iter(checked.values())).quality if checked else {}
    print(f"[{name}] calibrations (s): " + " ".join(f"{c:.3f}" for c in calibs))
    print(f"[{name}] plain walls (s):  " + " ".join(f"{t:.3f}" for t in walls))
    speed = (CALIB_NOMINAL_S / statistics.median(calibs)) ** CALIB_ELASTICITY
    scaled = [t * speed for t in walls]
    setup_scaled = statistics.median(setup_times) * speed
    print(f"[{name}] calibration  median {statistics.median(calibs):.4f} s, range "
          f"{min(calibs):.4f}..{max(calibs):.4f} s over {len(calibs)} runs of calib.py; "
          f"times below are scaled by ({CALIB_NOMINAL_S} s / median) ** {CALIB_ELASTICITY} "
          f"= {speed:.4f}")
    print(f"[{name}] scaled_wall_s {statistics.median(scaled) if scaled else float('nan'):.4f} s"
          f"  ({_fmt_wall(scaled)})")
    print(f"[{name}] wall_s       {statistics.median(walls) if walls else float('nan'):.4f} s  "
          f"({_fmt_wall(walls)}; as measured)")
    print(f"[{name}] setup_s      {setup_scaled:.4f} s  "
          f"(median of {len(setup_times)} set-ups scaled to nominal speed; as measured "
          f"{statistics.median(setup_times):.4f} s)")
    print(f"[{name}] peak_rss_mb  {statistics.median(rss) if rss else float('nan'):.1f} MB  "
          f"(median over runs)")
    print(f"[{name}] fail_ratio   {failed}/{attempted} = {failed / attempted:.3f}")
    for key, value in quality.items():
        print(f"[{name}] {key:<12} {value:.6f}  ({QUALITY_SOURCE[w.command]})")

    if trace:
        metrics = {}
        if layer_samples:
            for key in layer_samples[0]:
                metrics[key] = statistics.median(s[key] for s in layer_samples)
            plain = statistics.median(walls) if walls else metrics["trace.wall_s"]
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain
            for key in sorted(metrics):
                print(f"[{name}] {key:<36} {metrics[key]:.6g}")
            print(f"[{name}] spans of the last traced run: name, calls, self time")
            for span, (calls, total) in sorted(self_times(spans).items()):
                print(f"[{name}]   {span:<34} {calls:>6} {total:.6f} s")
        result_metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        result_metrics = {
            "scaled_wall_s": {"value": statistics.median(scaled) if scaled else 0.0, "unit": "s"},
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss) if rss else 0.0, "unit": "MB"},
        }
    return {
        "correct": failed == 0 and bool(walls or layer_samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }


def unit_of(metric: str) -> str:
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric.startswith("io.bytes"):
        return "bytes"
    if metric.endswith("ratio"):
        return "ratio"
    if metric == "imputers.spmm_flops":
        return "flop"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not Path("src/mmimpute/cli.py").is_file():
        print("error: run from the root of an mmimpute checkout (src/mmimpute is missing)",
              file=sys.stderr)
        return 2
    root = Path(".perfbench_work")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    spawner = Spawner()
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), root,
                                         spawner)
            print(json.dumps(results[name]))
    finally:
        spawner.close()
        try:
            root.rmdir()
        except OSError:  # another invocation is still using it
            pass
    if len(names) > 1:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
        print(json.dumps(combined))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
