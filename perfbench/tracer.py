"""Run `mmimpute.cli.main` with spans recorded around calls into each module.

Usage: python3 perfbench/tracer.py SPANS.json CLI_ARG...

Public functions are wrapped at the names their callers bind (for
example `mmimpute.imputers.topk_sparsify` and `mmimpute.evaluate.impute`),
so nothing inside the package changes. Span names are `<module>.<name>`;
the module part is the layer a span's self time is charged to. Operator
matrices are replaced by a stand-in that records one `imputers.spmm` span
per product, multihop hops are closed through the public `on_iteration`
hook, and fixed-point solves are grouped from the step counts each
`impute` report carries. Spans stay in memory and are written to
SPANS.json when `main` returns, as `{"spans": [[id, parent, name, start,
end], ...], "counts": {...}}` with times from `time.perf_counter`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter

import scipy.sparse as sp

import mmimpute.cli
import mmimpute.evaluate
import mmimpute.imputers
import mmimpute.io


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.unclaimed_spmm: list[int] = []  # products not yet inside a hop

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][4] = time.perf_counter()
        self.stack.pop()

    def adopt(self, name: str, children: list[int], end: float | None = None) -> int:
        """Add a span covering `children` (already closed) and re-parent them."""
        first = self.spans[children[0]]
        sid = len(self.spans)
        end = self.spans[children[-1]][4] if end is None else end
        self.spans.append([sid, first[1], name, first[3], end])
        for c in children:
            self.spans[c][1] = sid
        return sid

    def wrap(self, module, attr: str, name: str, post=None):
        """Replace `module.attr` with a spanned call; `post` may replace the result."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(sid)
            return result if post is None else post(sid, args, result)

        setattr(module, attr, wrapper)


class TimedOperator:
    """Stands in for an operator matrix; each product `op @ x` is one span."""

    def __init__(self, tracer: Tracer, matrix):
        self._tracer = tracer
        self._matrix = matrix

    def __matmul__(self, x):
        sid = self._tracer.open("imputers.spmm")
        try:
            out = self._matrix @ x
        finally:
            self._tracer.close(sid)
        nnz = self._matrix.nnz if sp.issparse(self._matrix) else self._matrix.size
        cols = x.shape[1] if x.ndim == 2 else 1
        self._tracer.counts["imputers.spmm_flops"] += 2 * nnz * cols
        self._tracer.counts["imputers.rows_computed"] += out.shape[0]
        self._tracer.unclaimed_spmm.append(sid)
        return out

    dot = __matmul__

    def __getitem__(self, key):
        return TimedOperator(self._tracer, self._matrix[key])

    def __getattr__(self, name):
        return getattr(self._matrix, name)


def install(t: Tracer):
    def timed_operator(sid, args, op):
        return dataclasses.replace(op, matrix=TimedOperator(t, op.matrix))

    def graph_counts(sid, args, g):
        t.counts["graph.topk_sparsify.calls"] += 1
        t.counts["graph.edges"] = max(t.counts["graph.edges"], g.adjacency.nnz // 2)
        top = int(g.degrees.max()) if g.degrees.size else 0
        t.counts["graph.max_degree"] = max(t.counts["graph.max_degree"], top)
        return g

    def fixed_points(sid, args, result):
        # the iterative PPR solver reports its steps per hop; its products
        # ran in that order directly under this `impute` span
        f, report = args[0], result[1]
        products = [s for s in t.unclaimed_spmm if t.spans[s][1] == sid]
        t.unclaimed_spmm = [s for s in t.unclaimed_spmm if t.spans[s][1] != sid]
        for m in f.modalities:
            for steps in report["modalities"][m].get("fixed_point_steps", []):
                if len(products) < steps:
                    return result
                t.adopt("imputers.fixed_point", products[:steps])
                products = products[steps:]
                t.counts["imputers.hops"] += 1
                t.counts["imputers.fixed_point_steps"] += steps
                t.counts["imputers.rows_useful"] += steps * int(f.masks[m].sum())
        return result

    def sweep_counts(sid, args, rows):
        t.counts["evaluate.configs"] += len(rows)
        return rows

    cli, ev, imp, io = mmimpute.cli, mmimpute.evaluate, mmimpute.imputers, mmimpute.io
    for attr in ("read_interactions", "load_feature_set", "write_feature_set", "write_dataset"):
        t.wrap(cli, attr, f"io.{attr}")
    t.wrap(io, "write_feature_set", "io.write_feature_set")
    t.wrap(cli, "validate", "features.validate")
    for module in (cli, ev):
        t.wrap(module, "impute", "imputers.impute", fixed_points)
        t.wrap(module, "dataset_stats", "evaluate.dataset_stats")
    t.wrap(cli, "drop_missing", "evaluate.drop_missing")
    t.wrap(cli, "run_sweep", "evaluate.run_sweep", sweep_counts)
    t.wrap(ev, "mask_features", "evaluate.mask_features")
    t.wrap(ev, "reconstruction_metrics", "evaluate.reconstruction_metrics")
    for module in (ev, imp):
        t.wrap(module, "cooccurrence", "graph.cooccurrence")
    t.wrap(imp, "topk_sparsify", "graph.topk_sparsify", graph_counts)
    for attr in ("sym_norm_adjacency", "ppr_iterative", "ppr_exact"):
        t.wrap(imp, attr, "graph.operator", timed_operator)
    for attr in ("impute_zeros", "impute_random", "impute_global_mean", "impute_neigh_mean"):
        t.wrap(imp, attr, f"imputers.{attr}")

    multihop = imp.impute_multihop

    @functools.wraps(multihop)
    def traced_multihop(f, op, hops, clamp=True, on_iteration=None):
        def hook(m, step, x):
            # a hop runs from its first product to the hook, clamping included
            now = time.perf_counter()
            products, t.unclaimed_spmm = t.unclaimed_spmm, []
            if products:
                t.adopt("imputers.hop", products, end=now)
            t.counts["imputers.hops"] += 1
            t.counts["imputers.rows_useful"] += int(f.masks[m].sum())
            if on_iteration is not None:
                on_iteration(m, step, x)

        sid = t.open("imputers.impute_multihop")
        try:
            return multihop(f, op, hops, clamp=clamp, on_iteration=hook)
        finally:
            t.close(sid)

    imp.impute_multihop = traced_multihop


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t = Tracer()
    install(t)
    sid = t.open("cli.main")
    try:
        return mmimpute.cli.main(cli_args)
    finally:
        t.close(sid)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": t.spans, "counts": dict(t.counts)}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
