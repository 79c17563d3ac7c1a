"""Imputation strategies over feature sets.

All imputers are pure: they return a new FeatureSet with every mask
cleared and leave observed rows equal to their inputs. Outputs are
float64: each imputer widens its input once, into the working copy it
fills, so a float32 input gives the same bits as its exact float64
widening. Masked rows always enter the computation as zero
placeholders, so items whose neighbors are themselves missing
contribute nothing to a neighborhood average. The graph-aware
strategies consume structures from `graph`. Because observed rows never
change under clamping, the graph methods compute only masked rows:
neighbor means and clamped hops multiply the operator's masked rows,
never the whole matrix. `_fallback_rows` computes the row given to items
no hop reaches (zeros or the observed mean) once per call, before any hop.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .errors import DivergentDiffusion, InconsistentData, InvalidParameter, NoObservedFeatures
from .features import (
    FeatureSet,
    ImputeConfig,
    check_cold_fallback,
    check_hops,
    check_iter_tolerance,
    check_row_count,
)
from .graph import (
    MODE_SYM,
    InteractionMatrix,
    ItemGraph,
    NormalizedOperator,
    _block_count,
    _run_blocks,
    cooccurrence,
    ppr_exact,  # noqa: F401 -- unused; perfbench/tracer.py wraps imputers.ppr_exact by name
    ppr_iterative,
    sym_norm_adjacency,
    topk_sparsify,
)

# Fixed-point applications that fail to converge within this many steps
# raise DivergentDiffusion.
FIXED_POINT_STEP_CAP = 500

IterationHook = Callable[[str, int, np.ndarray], None]
# (modality, rows) -> step mapping the current matrix to its `rows` after
# one hop; `rows` is the masked row indices, or slice(None) for every row
RowStep = Callable[[str, np.ndarray | slice], Callable[[np.ndarray], np.ndarray]]


def _cleared(f: FeatureSet, matrices: dict[str, np.ndarray]) -> FeatureSet:
    masks = {m: np.zeros(f.n_items, dtype=bool) for m in f.modalities}
    return FeatureSet(f.modalities, matrices, masks)


def _zero_init(f: FeatureSet, modality: str) -> np.ndarray:
    """The float64 working copy of a matrix, with masked rows zeroed."""
    x = f.matrices[modality].astype(np.float64)
    x[f.masks[modality]] = 0.0
    return x


def _fallback_rows(f: FeatureSet, rows: dict[str, np.ndarray], fallback: str) -> dict:
    """Each modality's row for its boolean `rows`: 0.0, or the mean of its observed rows."""
    fill = dict.fromkeys(rows, 0.0)
    for m, to_fill in rows.items():
        if fallback == "global-mean" and to_fill.any():
            if f.masks[m].all():
                raise NoObservedFeatures(f"modality '{m}' has no observed rows")
            fill[m] = f.matrices[m][~f.masks[m]].astype(np.float64).mean(axis=0)
    return fill


def _cold_rows(f: FeatureSet, g: ItemGraph) -> dict[str, np.ndarray]:
    """Each modality's masked rows with no neighbor, which no hop reaches."""
    isolated = g.degrees == 0
    return {m: isolated & f.masks[m] for m in f.modalities}


def _check_graph(f: FeatureSet, n_items: int):
    if n_items != f.n_items:
        raise InconsistentData(
            f"item graph has {n_items} items but features have {f.n_items} rows"
        )


def impute_zeros(f: FeatureSet) -> FeatureSet:
    """Replace missing rows with zero vectors."""
    return _cleared(f, {m: _zero_init(f, m) for m in f.modalities})


def impute_random(f: FeatureSet, seed: int) -> FeatureSet:
    """Fill missing rows with uniform [0, 1) draws from one seeded stream.

    The draw order is fixed (modalities in declared order, masked items by
    ascending index, then columns), so the output does not depend on how
    rows are traversed.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for m in f.modalities:
        x = f.matrices[m].astype(np.float64)
        idx = np.flatnonzero(f.masks[m])
        if idx.size:
            x[idx] = rng.random((idx.size, f.dim(m)))
        out[m] = x
    return _cleared(f, out)


def impute_global_mean(f: FeatureSet) -> FeatureSet:
    """Replace missing rows with the column-wise mean of observed rows."""
    fill = _fallback_rows(f, f.masks, "global-mean")
    out = {m: _zero_init(f, m) for m in f.modalities}
    for m, x in out.items():
        x[f.masks[m]] = fill[m]
    return _cleared(f, out)


def impute_neigh_mean(
    f: FeatureSet, g: ItemGraph, fallback: str = ImputeConfig.cold_fallback
) -> FeatureSet:
    """Replace each missing row with the mean of its one-hop neighbor rows.

    Neighbors that are themselves missing contribute their zero
    placeholder and still count toward the divisor. Items with no
    neighbors use the configured fallback.
    """
    check_cold_fallback(fallback)
    _check_graph(f, g.n_items)
    cold = _cold_rows(f, g)
    fill = _fallback_rows(f, cold, fallback)

    def row_step(m, rows):
        # one hop reads placeholders, not results. CSR products sum each
        # row in ascending neighbor order, a left fold that is part of
        # the determinism contract
        a_rows, deg = g.adjacency[rows], np.maximum(g.degrees[rows], 1)[:, None]
        return lambda x: (a_rows @ x) / deg

    out = _propagate(f, 1, row_step, clamp=True, on_iteration=None)
    for m, x in out.items():
        x[cold[m]] = fill[m]
    return _cleared(f, out)


def _propagate(
    f: FeatureSet,
    hops: int,
    row_step: RowStep,
    clamp: bool,
    on_iteration: IterationHook | None,
) -> dict[str, np.ndarray]:
    """Shared hop loop that computes only the rows each hop must produce.

    Every hop is `x[rows] = step(x)`. With `clamp` on, observed rows never
    change, so `rows` is the masked rows; with `clamp` off, `rows` is
    `slice(None)`, each hop recomputes every row, and the observed rows
    are restored after the last hop. `row_step(m, rows)` builds the step
    once per modality, so an operator is sliced to `rows` once, not once
    per hop. A modality with no masked rows is copied through with no hops
    and no `on_iteration` calls. The hook sees the whole matrix, which
    later hops update in place.
    """
    check_hops(hops)
    out = {}
    for m in f.modalities:
        mask = f.masks[m]
        x = _zero_init(f, m)
        if mask.any():
            rows = np.flatnonzero(mask) if clamp else slice(None)
            step = row_step(m, rows)
            for t in range(1, hops + 1):
                x[rows] = step(x)
                if on_iteration is not None:
                    on_iteration(m, t, x)
            if not clamp:  # unclamped hops moved them; outputs keep the inputs
                x[~mask] = f.matrices[m][~mask]
        out[m] = x
    return out


def impute_multihop(
    f: FeatureSet,
    op: NormalizedOperator,
    hops: int,
    clamp: bool = True,
    on_iteration: IterationHook | None = None,
) -> FeatureSet:
    """Propagate features over the symmetric-normalized graph for `hops` steps.

    Missing rows start from zero and observed rows stay pinned to their
    original values (unless `clamp` is disabled), so information always
    flows outward from observed items. Clamped hops compute only the
    masked rows, with the operator sliced to them once per modality.
    """
    if op.mode != MODE_SYM:
        raise InvalidParameter("multihop requires a sym-laplacian operator")
    _check_graph(f, op.matrix.shape[0])
    s = op.matrix

    def row_step(m, rows):
        s_rows = s[rows]
        return lambda x: s_rows @ x

    out = _propagate(f, hops, row_step, clamp, on_iteration)
    return _cleared(f, out)


def _relax_rows(
    x_next: np.ndarray, x: np.ndarray, target: np.ndarray, keep: float, lo: int, hi: int
) -> float:
    """Turn rows lo:hi of `x_next = A_sl @ x` into the next iterate; their largest change.

    The change is measured in place in the rows of `x`, the iterate the
    step leaves dead.
    """
    new, old = x_next[lo:hi], x[lo:hi]
    new *= keep
    new += target[lo:hi]
    np.subtract(new, old, out=old)
    return float(np.abs(old, out=old).max()) if old.size else 0.0


def _ppr_fixed_point(
    a_sl, alpha: float, x0: np.ndarray, tolerance: float
) -> tuple[np.ndarray, int, float]:
    """Fixed point of x = alpha * x0 + (1 - alpha) * A_sl @ x.

    Converges to alpha * B^-1 @ x0 when (1 - alpha) * rho(A_sl) < 1;
    otherwise the residual stalls and the step cap trips. `tolerance` is
    relative: iteration stops once the largest change of a step is at
    most `tolerance * max|x0|`, so the outcome does not depend on the
    scale of the features, and an all-zero `x0` stops after one step.

    A step is one product `a_sl @ x`, the only array it allocates, which
    `RowBlockedCSR` splits over the usable cores. The product is then
    scaled and shifted in place, and the change is measured in the dead
    previous iterate; this pass runs over as many row blocks as the
    product, on the same pool. Only `target`, `x` and the product are
    alive at once. The largest change over the blocks is exact, so the
    iterate, step count and residual have the same bits at any core count.
    """
    bound = tolerance * (float(np.max(np.abs(x0))) if x0.size else 0.0)
    target = alpha * x0
    x = x0.astype(np.float64)
    # as many blocks as the product, but each row costs this pass the same
    n_blocks = _block_count(a_sl, x.shape[1])
    blocks = np.linspace(0, x.shape[0], n_blocks + 1).astype(np.int64).tolist()
    residual = 0.0
    for step in range(1, FIXED_POINT_STEP_CAP + 1):
        x_next = a_sl @ x
        changes = _run_blocks(_relax_rows, blocks, x_next, x, target, 1.0 - alpha)
        # np.max, not max: a NaN change must stall the iteration
        residual = changes[0] if n_blocks == 1 else float(np.max(changes))
        x = x_next
        if residual <= bound:
            return x, step, residual
    raise DivergentDiffusion(
        f"personalized-PageRank fixed point did not reach residual {bound:.3e} "
        f"({tolerance} relative to max |x0|) within {FIXED_POINT_STEP_CAP} steps "
        f"at alpha={alpha} (last residual {residual:.3e})"
    )


def _pers_pagerank(
    f: FeatureSet,
    g: ItemGraph,
    alpha: float,
    hops: int,
    iter_tolerance: float,
    clamp: bool = True,
    on_iteration: IterationHook | None = None,
) -> tuple[FeatureSet, dict[str, dict]]:
    check_iter_tolerance(iter_tolerance)
    _check_graph(f, g.n_items)
    a_sl = ppr_iterative(g, alpha).matrix
    cold = _cold_rows(f, g)
    steps: dict[str, list[int]] = {m: [] for m in f.modalities}
    residuals: dict[str, list[float]] = {m: [] for m in f.modalities}

    def row_step(m, rows):
        def step(x):
            # the fixed point couples every row; only `rows` are kept
            x[cold[m]] = 0.0  # x0 holds cold rows as placeholders, not a hook's fill
            try:
                result, n_steps, residual = _ppr_fixed_point(a_sl, alpha, x, iter_tolerance)
            except DivergentDiffusion as exc:
                raise DivergentDiffusion(f"modality '{m}': {exc}") from None
            steps[m].append(n_steps)
            residuals[m].append(residual)
            return result[rows]

        return step

    out = _propagate(f, hops, row_step, clamp, on_iteration)
    stats = {
        m: {"fixed_point_steps": steps[m], "fixed_point_residuals": residuals[m]}
        for m in f.modalities
    }
    return _cleared(f, out), stats


def impute_pers_pagerank(
    f: FeatureSet,
    g: ItemGraph,
    alpha: float,
    hops: int,
    iter_tolerance: float = ImputeConfig.iter_tolerance,
    clamp: bool = True,
    on_iteration: IterationHook | None = None,
) -> FeatureSet:
    """Propagate with the personalized-PageRank operator for `hops` steps.

    Each application of alpha * B^-1 is realized as the fixed point of
    x = alpha * x0 + (1 - alpha) * A_sl @ x over the self-loop normalized
    adjacency, so no dense matrix is formed; it matches the dense operator
    wherever the series converges. Observed rows stay pinned between
    applications, so clamped hops keep only the masked rows of each
    application. A modality with nothing masked is returned unchanged
    without solving anything.
    """
    out, _ = _pers_pagerank(
        f, g, alpha, hops,
        iter_tolerance=iter_tolerance, clamp=clamp, on_iteration=on_iteration,
    )
    return out


def impute(
    f: FeatureSet,
    r: InteractionMatrix,
    cfg: ImputeConfig,
    counts_graph: ItemGraph | None = None,
    on_iteration: IterationHook | None = None,
) -> tuple[FeatureSet, dict]:
    """Dispatch to the configured method, building graph artifacts on demand.

    Returns the imputed feature set and a JSON-ready run report with the
    configuration echo, per-modality counts and diffusion diagnostics.
    The graph methods build the co-interaction counts unless
    `counts_graph` is given, and drop the graph they built once it is
    sparsified to top-k, so it is not held through the hops. A graph
    passed as `counts_graph` stays the caller's, unchanged, and lets
    sweeps reuse the counts.
    `on_iteration(modality, hop, x)` runs after each multihop and
    personalized-PageRank hop; in a clamped run `x` is then the matrix
    this call would return with `hops` set to that hop.
    """
    check_row_count(f, r)
    started = time.perf_counter()
    details: dict[str, dict] = {
        m: {"imputed_rows": int(f.masks[m].sum()), "dim": f.dim(m)} for m in f.modalities
    }
    method = cfg.method
    if method == "zeros":
        out = impute_zeros(f)
    elif method == "random":
        out = impute_random(f, cfg.seed)
    elif method == "global-mean":
        out = impute_global_mean(f)
    else:
        counts = counts_graph if counts_graph is not None else cooccurrence(r)
        _check_graph(f, counts.n_items)
        g = topk_sparsify(counts, cfg.top_k)
        del counts  # only the top-k graph is read from here; a caller's graph stays theirs
        cold = _cold_rows(f, g)
        for m in f.modalities:
            details[m]["cold_items"] = int(cold[m].sum())
        if method == "neigh-mean":
            out = impute_neigh_mean(f, g, cfg.cold_fallback)
        else:
            fill = _fallback_rows(f, cold, cfg.cold_fallback)

            def hook(m, t, x):
                x[cold[m]] = fill[m]  # no multihop hop reads it; the PPR step zeroes it
                if on_iteration is not None:
                    on_iteration(m, t, x)

            if method == "multihop":
                op = sym_norm_adjacency(g)
                out = impute_multihop(f, op, cfg.hops, clamp=cfg.clamp, on_iteration=hook)
            else:
                out, stats = _pers_pagerank(
                    f, g, cfg.alpha, cfg.hops,
                    iter_tolerance=cfg.iter_tolerance, clamp=cfg.clamp, on_iteration=hook,
                )
                for m in f.modalities:
                    details[m].update(stats[m])
    report = {
        "method": method,
        "config": cfg.as_dict(),
        "modalities": details,
        "timing": {"wall_s": time.perf_counter() - started},
    }
    return out, report
