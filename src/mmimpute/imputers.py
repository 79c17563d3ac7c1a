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
never the whole matrix. A clamped hop after the first is affine in the
masked rows, x_M <- K x_M + b, so multihop and personalized PageRank
compute it from the operator's masked block K and the first hop's
result b. `_fallback_rows` computes the row given to items no hop
reaches (zeros or the observed mean) once per call, before any hop.
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
    RowBlockedCSR,
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

# Columns of x_M a multihop hop after the first multiplies at a time, so
# that it holds b and a narrow block rather than all of x_M and K x_M.
MULTIHOP_COLUMNS = 32

# Terms of each entry a dense masked-block product sums per matrix product.
# OpenBLAS splits a product of this many terms (a power of two, no larger
# than its K block) over threads without reordering any entry's sum, but
# not every longer one.
DENSE_TERMS = 256

IterationHook = Callable[[str, int, np.ndarray], None]
# (modality, rows) -> step writing one hop's `rows` into the current
# matrix; `rows` is the masked row indices, or slice(None) for every row
RowStep = Callable[[str, np.ndarray | slice], Callable[[np.ndarray], None]]


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

        def step(x):
            x[rows] = (a_rows @ x) / deg

        return step

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

    Every hop is `step(x)`, which writes `x[rows]`. With `clamp` on, observed rows never
    change, so `rows` is the masked rows; with `clamp` off, `rows` is
    `slice(None)`, each hop recomputes every row, and the observed rows
    are restored after the last hop. `row_step(m, rows)` builds the step
    once per modality, so an operator is sliced to `rows` once, not once
    per hop, and the step is dropped, with whatever it holds, before the
    next modality's working copy is made. A modality with no masked rows
    is copied through with no hops and no `on_iteration` calls. The hook
    sees the whole matrix, which later hops update in place.
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
                step(x)
                if on_iteration is not None:
                    on_iteration(m, t, x)
            del step
            if not clamp:  # unclamped hops moved them; outputs keep the inputs
                x[~mask] = f.matrices[m][~mask]
        out[m] = x
    return out


def _masked_block_hops(
    first_hop: Callable[[np.ndarray], None],
    block: Callable[[], Callable[[np.ndarray], np.ndarray]],
    rows: np.ndarray,
    cold: np.ndarray | None = None,
    width: int | None = None,
) -> Callable[[np.ndarray], None]:
    """The clamped step `x_M <- K x_M + b` on the masked rows `rows`.

    Clamped diffusion is affine on the masked block: a hop maps the
    masked rows x_M to K x_M + b, with K the operator's block on the
    masked rows and columns and b what the pinned observed rows add,
    which no hop changes. Hop 1 is `first_hop(x)`, run on the zero
    placeholders, so the masked rows it writes are b. `block()` builds K,
    as the function `x_M -> K x_M`, when hop 2 first needs it, so a
    one-hop run never pays for it. `cold`, a flag per masked row, marks rows no hop reaches; they enter
    the product as zeros, whatever a hook left in them. With `width`, a
    hop runs over that many columns at a time, writing each block of
    columns before it gathers the next, so it holds only b and one block
    besides x; a K whose product sums each column on its own, as a CSR
    product does, gives the same bits at any width.
    """
    b = k = None

    def step(x):
        nonlocal b, k
        if b is None:
            first_hop(x)
            b = x[rows]
            return
        if k is None:
            k = block()
        n_cols = width or b.shape[1]
        for lo in range(0, b.shape[1], n_cols):
            x_m = x[rows, lo:lo + n_cols]
            if cold is not None:
                x_m[cold] = 0.0
            y = k(x_m)
            y += b[:, lo:lo + n_cols]
            x[rows, lo:lo + n_cols] = y

    return step


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
    masked rows M: hop 1 is S[M] @ x, and every later hop K x_M + b, with
    K = S[M][:, M] and b hop 1's result.
    """
    if op.mode != MODE_SYM:
        raise InvalidParameter("multihop requires a sym-laplacian operator")
    _check_graph(f, op.matrix.shape[0])
    s = op.matrix

    def row_step(m, rows):
        s_rows = s[rows]

        def hop(x):
            x[rows] = s_rows @ x

        if not clamp:
            return hop

        def block():
            k = s_rows[:, rows]  # stays sparse, a slice of the operator like s_rows
            return lambda x_m: k @ x_m

        return _masked_block_hops(hop, block, rows, width=MULTIHOP_COLUMNS)

    out = _propagate(f, hops, row_step, clamp, on_iteration)
    return _cleared(f, out)


def _relax_rows(
    x_next: np.ndarray, x: np.ndarray, target: np.ndarray, keep: float, lo: int, hi: int
) -> np.ndarray:
    """Turn rows lo:hi of `x_next = A_sl @ x` into the next iterate; each column's largest change.

    The change is measured in place in the rows of `x`, the iterate the
    step leaves dead.
    """
    new, old = x_next[lo:hi], x[lo:hi]
    new *= keep
    new += target[lo:hi]
    np.subtract(new, old, out=old)
    return np.abs(old, out=old).max(axis=0, initial=0.0)


def _ppr_solver(a_sl, alpha: float, x0: np.ndarray):
    """(first iterate, step) of the fixed point x = alpha * x0 + (1 - alpha) * A_sl @ x.

    The first iterate is a private C-ordered float64 copy of `x0`, which
    may be a view of the caller's matrix: each step overwrites its input.
    `step(x)` returns the next iterate and the largest change of each of
    its columns. A step is one product `a_sl @ x`, the only array it
    allocates, which `RowBlockedCSR` splits over the usable cores. The
    product is then scaled and shifted in place, and the change is
    measured in the dead previous iterate; this pass runs over as many
    row blocks as the product, on the same pool. Only `target`, the
    iterate and the product are alive at once. Each column's largest
    change over the blocks is exact, so iterates and changes have the same
    bits at any core count, and a column's bits do not depend on the
    other columns of `x0`.
    """
    target = alpha * x0
    # as many blocks as the product, but each row costs this pass the same
    n_blocks = _block_count(a_sl, x0.shape[1])
    blocks = np.linspace(0, x0.shape[0], n_blocks + 1).astype(np.int64).tolist()

    def step(x):
        x_next = a_sl @ x
        changes = _run_blocks(_relax_rows, blocks, x_next, x, target, 1.0 - alpha)
        # np.maximum, not max: a NaN change must stall the iteration
        return x_next, changes[0] if n_blocks == 1 else np.maximum.reduce(changes)

    return np.array(x0, dtype=np.float64, order="C"), step


def _solve_width(dim: int) -> int:
    """Columns a PPR solve of a d-column modality steps at a time: d/4, at least one."""
    return max(1, dim // 4)


def _ppr_columns(
    a_sl, alpha: float, x0: np.ndarray, rows: np.ndarray, tolerance: float, source: str
) -> tuple[np.ndarray, int, float]:
    """Rows `rows` of the fixed point of `_ppr_solver` from `x0`, column by column.

    Converges to alpha * B^-1 @ x0 when (1 - alpha) * rho(A_sl) < 1;
    otherwise the residual stalls and the step cap trips. `x0` is the
    n x c start, or c item indices standing for their unit columns,
    which are then built here so that no caller holds them through the
    solve. Each column keeps its `rows` from its own first step whose
    change is at most `tolerance`. The columns step together until the
    last one stops, but a column's bits depend on no other column, so any
    chunking of the columns gives the same bits. Returns the kept rows,
    the steps until the last column stopped and the largest change of a
    kept column. A column that never stops raises DivergentDiffusion
    with the first such column's last change; `source` tells where
    `tolerance` comes from and which solve this is.
    """
    if x0.ndim == 1:
        items, x0 = x0, np.zeros((a_sl.shape[0], x0.size))
        x0[items, np.arange(items.size)] = 1.0
    x, step = _ppr_solver(a_sl, alpha, x0)
    del x0
    kept = np.empty((rows.size, x.shape[1]))
    pending = np.ones(x.shape[1], dtype=bool)
    residual = 0.0
    for n_steps in range(1, FIXED_POINT_STEP_CAP + 1):
        x, changes = step(x)
        done = np.flatnonzero(pending & (changes <= tolerance))
        if done.size:
            kept[:, done] = x[np.ix_(rows, done)]
            residual = max(residual, float(changes[done].max()))
            pending[done] = False
            if not pending.any():
                return kept, n_steps, residual
    raise DivergentDiffusion(
        f"personalized-PageRank fixed point did not reach residual {tolerance:.3e} {source} "
        f"within {FIXED_POINT_STEP_CAP} steps at alpha={alpha} "
        f"(last residual {float(changes[pending][0]):.3e})"
    )


def _ppr_hop(
    a_sl, alpha: float, x: np.ndarray, rows: np.ndarray | slice, iter_tolerance: float, hop: int
) -> tuple[np.ndarray, int, float]:
    """One PPR hop in place: `x[rows]` becomes those rows of the fixed point from `x`.

    `iter_tolerance` is relative: each column stops at its own first step
    whose change is at most `iter_tolerance * max|x|`, the largest over
    the whole matrix, so the outcome does not depend on the scale of the
    features, and an all-zero `x` stops after one step. The solve runs in
    chunks of `_solve_width` columns, one after another, and each chunk
    writes its rows into `x` before the next chunk's columns are copied
    out, so besides `x` it holds three n x d/4 arrays and its kept rows.
    Returns `x`, the steps of the slowest chunk and the largest change of
    a kept column; `hop` only names the solve in a divergence.
    """
    # max|x| without an n x d temporary; `initial` keeps an empty x at 0
    scale = max(abs(float(x.max(initial=0.0))), abs(float(x.min(initial=0.0))))
    source = f"(iter_tolerance={iter_tolerance} times max |x0| = {scale:.3e}) in hop {hop}"
    rows = np.arange(x.shape[0])[rows]  # an unclamped run's slice(None) as indices
    width = _solve_width(x.shape[1])
    n_steps, residual = 0, 0.0
    for lo in range(0, x.shape[1], width):
        x[rows, lo:lo + width], steps, change = _ppr_columns(
            a_sl, alpha, x[:, lo:lo + width], rows, iter_tolerance * scale, source
        )
        n_steps, residual = max(n_steps, steps), max(residual, change)
    return x, n_steps, residual


def _dense_product(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`p @ x`, each entry summed `DENSE_TERMS` terms at a time, in ascending order.

    One product over all terms gets different bits from OpenBLAS on one
    thread and on two at some lengths (674 and 977 among them); these
    partial products do not.
    """
    y = p[:, :DENSE_TERMS] @ x[:DENSE_TERMS]
    for lo in range(DENSE_TERMS, p.shape[1], DENSE_TERMS):
        y += p[:, lo:lo + DENSE_TERMS] @ x[lo:lo + DENSE_TERMS]
    return y


def _masked_block_fits(n_items: int, n_masked: int, dim: int) -> bool:
    """Whether a modality's clamped PPR hops after the first run on the dense block P.

    P holds |M|^2 floats, at most 4 n d: four times the working copy,
    and about five times a hop solve's own 3/4 n d (three n x d/4 chunk
    arrays). Past that bound every hop solves over the whole matrix
    instead. The rule reads no hop count, so a hop's bits never depend on
    how many follow it.
    """
    return n_masked * n_masked <= 4 * n_items * dim


def _ppr_solves(f: FeatureSet, m: str, hops: int, clamp: bool, solves: list) -> list:
    """The entries of a deeper run's per-solve list `solves` that a run of `hops` makes.

    A run whose hops after the first use the masked block makes hop 1's
    solve, then, from hop 2 on, every unit-column solve; any other run
    makes one solve per hop.
    """
    if clamp and _masked_block_fits(f.n_items, int(f.masks[m].sum()), f.dim(m)):
        return solves[:1] if hops == 1 else solves
    return solves[:hops]


def _pers_pagerank(
    f: FeatureSet,
    a_sl: RowBlockedCSR,
    cold: dict[str, np.ndarray],
    alpha: float,
    hops: int,
    iter_tolerance: float,
    clamp: bool,
    on_iteration: IterationHook | None,
) -> tuple[FeatureSet, dict[str, dict]]:
    """`impute_pers_pagerank` over the operator `a_sl` of `ppr_iterative`.

    `cold` holds `_cold_rows`. Returns the imputed set and, per modality,
    the steps and residual of each solve, in the order they ran.
    """
    steps: dict[str, list[int]] = {m: [] for m in f.modalities}
    residuals: dict[str, list[float]] = {m: [] for m in f.modalities}

    def solved(m, solve, *args):
        try:
            x, n_steps, residual = solve(*args)
        except DivergentDiffusion as exc:
            raise DivergentDiffusion(f"modality '{m}': {exc}") from None
        steps[m].append(n_steps)
        residuals[m].append(residual)
        return x

    def row_step(m, rows):
        hop_count = 0

        def hop(x):
            nonlocal hop_count
            hop_count += 1
            # the fixed point couples every row; only `rows` are kept
            x[cold[m]] = 0.0  # x0 holds cold rows as placeholders, not a hook's fill
            solved(m, _ppr_hop, a_sl, alpha, x, rows, iter_tolerance, hop_count)

        if not (clamp and _masked_block_fits(f.n_items, rows.size, f.dim(m))):
            return hop
        cold_rows = cold[m][rows]

        def block():
            # P's cold columns stay zero. A row of P @ x_M sums |M| terms,
            # so each unit column is solved to iter_tolerance / |M|
            p = np.zeros((rows.size, rows.size))
            warm = np.flatnonzero(~cold_rows)
            n_chunks = -(-warm.size // _solve_width(f.dim(m)))
            source = (
                f"(iter_tolerance={iter_tolerance} over |M| = {rows.size} masked rows) "
                "in the masked block P"
            )
            for cols in np.array_split(warm, n_chunks) if n_chunks else []:
                p[:, cols] = solved(
                    m, _ppr_columns, a_sl, alpha, rows[cols], rows, iter_tolerance / rows.size, source
                )
            return lambda x_m: _dense_product(p, x_m)

        return _masked_block_hops(hop, block, rows, cold_rows)

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
    adjacency, so no n x n matrix is formed; it matches the dense operator
    wherever the series converges. Observed rows stay pinned between
    applications, so clamped hops keep only the masked rows M. Every
    solve treats each column on its own: a column stops at its own first
    step within its bound, and the columns run in chunks of at most d/4,
    one after another. Hop 1 is one solve over the whole matrix, bound
    `iter_tolerance * max|x0|`, whose masked rows are b; every later hop
    is x_M <- P x_M + b with the dense P = [alpha * B^-1]_{M,M}. P's
    column for a masked item with neighbors is the solve from its unit
    column, bound `iter_tolerance / |M|`; these solves run when hop 2
    first needs P. A modality whose P would hold more than 4 n d floats,
    and every unclamped run, solves over the whole matrix at every hop
    instead. A modality with nothing masked is returned unchanged without
    solving anything.
    """
    check_iter_tolerance(iter_tolerance)
    _check_graph(f, g.n_items)
    a_sl = ppr_iterative(g, alpha).matrix
    out, _ = _pers_pagerank(
        f, a_sl, _cold_rows(f, g), alpha, hops, iter_tolerance, clamp, on_iteration
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
    sparsified to top-k, so it is not held through the hops; multihop and
    personalized PageRank drop the top-k graph too once their operator is
    built. A graph passed as `counts_graph` stays the caller's, unchanged,
    and lets sweeps reuse the counts.
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

            # the hops read only the operator, so the graph goes before the first
            if method == "multihop":
                op = sym_norm_adjacency(g)
                del g
                out = impute_multihop(f, op, cfg.hops, clamp=cfg.clamp, on_iteration=hook)
            else:
                a_sl = ppr_iterative(g, cfg.alpha).matrix
                del g
                out, stats = _pers_pagerank(
                    f, a_sl, cold, cfg.alpha, cfg.hops, cfg.iter_tolerance, cfg.clamp, hook
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
