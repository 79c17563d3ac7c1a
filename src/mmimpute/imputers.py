"""Imputation strategies over feature sets.

All imputers are pure: they return a new FeatureSet with every mask
cleared and leave observed rows equal to their inputs. Each output is
held at its input's precision: a float32 catalog comes back float32,
each row an imputer writes rounded once by numpy's cast, the rounding
the `.fmat` writer applies to float64 rows. Only the rows an imputer
writes are computed in float64, so a float32 input gives its float64
widening's outputs rounded to float32. Masked rows always enter the
computation as zero placeholders, whatever the input holds in them, so
items whose neighbors are themselves missing contribute nothing to a
neighborhood average. The graph-aware strategies consume structures
from `graph`. Because observed rows never change under clamping, the
graph methods compute only masked rows: neighbor means and clamped hops
multiply the operator's masked rows, never the whole matrix, and keep
the masked rows x_M in float64 as their only state: an array of their
own for a float32 input, the output's own masked rows for a float64 one. A clamped hop after the
first is affine in the masked rows, x_M <- K x_M + b, so multihop and
personalized PageRank compute it from the operator's masked block K and
the first hop's result b. `_fallback_rows` computes the row given to
items no hop reaches (zeros or the observed mean) once per call, before
any hop.
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
    check_seed,
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

# Columns a multihop or neigh-mean product takes at a time, so that hop 1
# widens a narrow block of the input rather than the whole modality, and
# a later hop holds b and a narrow block rather than all of x_M and K x_M.
MULTIHOP_COLUMNS = 32

# Terms of each entry a dense masked-block product sums per matrix product.
# OpenBLAS splits a product of this many terms (a power of two, no larger
# than its K block) over threads without reordering any entry's sum, but
# not every longer one.
DENSE_TERMS = 256

IterationHook = Callable[[str, int, np.ndarray], None]
# step(state, t) writes hop t's rows into the float64 state, see `_propagate`
Step = Callable[["_State", int], None]
# (modality, rows) -> (step, block), see `_propagate`
RowStep = Callable[[str, np.ndarray | slice], tuple[Step, Callable[[np.ndarray], Step] | None]]


def _cleared(f: FeatureSet, matrices: dict[str, np.ndarray]) -> FeatureSet:
    masks = {m: np.zeros(f.n_items, dtype=bool) for m in f.modalities}
    return FeatureSet(f.modalities, matrices, masks)


def _filled(f: FeatureSet, fill: dict) -> FeatureSet:
    """Each modality's matrix, copied at its precision, with its masked rows set to `fill[m]`."""
    out = {}
    for m in f.modalities:
        y = f.matrices[m].copy()
        y[f.masks[m]] = fill[m]
        out[m] = y
    return _cleared(f, out)


def _fallback_rows(f: FeatureSet, rows: dict[str, np.ndarray], fallback: str) -> dict:
    """Each modality's row for its boolean `rows`: 0.0, or the mean of its observed rows."""
    fill = dict.fromkeys(rows, 0.0)
    for m, to_fill in rows.items():
        if fallback == "global-mean" and to_fill.any():
            if f.masks[m].all():
                raise NoObservedFeatures(f"modality '{m}' has no observed rows")
            # summed in float64 without a float64 copy of the observed rows
            fill[m] = np.mean(f.matrices[m][~f.masks[m]], axis=0, dtype=np.float64)
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
    return _filled(f, dict.fromkeys(f.modalities, 0.0))


def impute_random(f: FeatureSet, seed: int) -> FeatureSet:
    """Fill missing rows with uniform [0, 1) draws from one seeded stream.

    The draw order is fixed (modalities in declared order, masked items by
    ascending index, then columns), so the output does not depend on how
    rows are traversed. `seed` must pass `features.check_seed`.
    """
    rng = np.random.default_rng(check_seed(seed))
    return _filled(f, {m: rng.random((int(f.masks[m].sum()), f.dim(m))) for m in f.modalities})


def impute_global_mean(f: FeatureSet) -> FeatureSet:
    """Replace missing rows with the column-wise mean of observed rows."""
    return _filled(f, _fallback_rows(f, f.masks, "global-mean"))


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

        def step(state, t):
            for cols in _columns(state.dim, MULTIHOP_COLUMNS):
                state[cols] = (a_rows @ state.columns(cols)) / deg

        return step, None

    out = _propagate(f, 1, row_step, clamp=True, on_iteration=None)
    for m, x in out.items():
        x[cold[m]] = fill[m]
    return _cleared(f, out)


def _columns(dim: int, width: int):
    """Slices of `width` columns covering `dim`."""
    return (slice(lo, lo + width) for lo in range(0, dim, width))


class _State:
    """A run's float64 state: rows `rows` of the current matrix, which its hops compute.

    When `x` is `base`, the state lies in place, `x[rows]`, and `x` is the
    current matrix: a float64 input's clamped output, whose masked rows
    are x_M, or an unclamped run's whole matrix (`rows` is `slice(None)`).
    Otherwise `x` holds the state alone, a float32 input's clamped x_M
    (|M| x d), and the current matrix is the input `base` with `x` over
    its rows `rows`, every masked row. `columns` is the only reader of
    the current matrix, so a float32 input's masked rows are never read.
    """

    def __init__(self, base: np.ndarray, x: np.ndarray, rows: np.ndarray | slice):
        self.base, self.x, self.rows = base, x, rows
        self.at = rows if x is base else slice(None)  # the state's rows of `x`
        self.dim = base.shape[1]

    def columns(self, cols: slice) -> np.ndarray:
        """Columns `cols` of the current matrix, as a new C-contiguous float64 array.

        They are widened from `base`, so no state value is read rounded.
        """
        v = np.array(self.base[:, cols], dtype=np.float64, order="C")
        if self.x is not self.base:
            v[self.rows] = self.x[:, cols]
        return v

    def __getitem__(self, cols: slice) -> np.ndarray:
        """Columns `cols` of the state, C-contiguous."""
        return np.ascontiguousarray(self.x[self.at, cols])

    def __setitem__(self, cols: slice, values: np.ndarray):
        self.x[self.at, cols] = values

    def copy(self) -> np.ndarray:
        """The state as a new array."""
        return self.x.copy() if isinstance(self.at, slice) else self.x[self.at]


def _propagate(
    f: FeatureSet,
    hops: int,
    row_step: RowStep,
    clamp: bool,
    on_iteration: IterationHook | None,
) -> dict[str, np.ndarray]:
    """Shared hop loop that computes only the rows each hop must produce.

    Hop t is `step(state, t)`, which writes the float64 `_State`: the
    masked rows x_M with `clamp` on, as observed rows never change, or
    the whole matrix with it off (`rows` is then `slice(None)`), when
    the observed rows are restored after the last hop. A step reads the
    current matrix only a block of columns at a time (`state.columns`),
    so a clamped run of a float32 input holds no n x d float64 array and
    reads none of its masked rows. The state starts from the zero
    placeholders. `row_step(m, rows)` returns `(step, block)` once per
    modality, so an operator is sliced once, not once per hop. A clamped
    hop is affine in the masked rows, x_M <- K x_M + b, with K the
    operator's masked block and b what the pinned observed rows add, so
    hop 1, run on the zero placeholders, writes b. A clamped run of more
    than one hop takes b before hop 1's hook and after it swaps in
    `block(b)`, the step that applies K, so no other run builds K.

    The output has the input's precision. A float64 input's output is
    its working copy, whose masked rows are a clamped run's state. A
    float32 input's is a copy made after hop 1, into which a clamped run
    stores x_M after every hop, rounded, before the hook. An unclamped
    run casts its state to the input's precision after the last hop (a
    float64 state is its own cast) and restores the observed rows from
    the input. A clamped run's hook sees the output, an unclamped run's
    the state. A modality's steps are dropped before the next modality
    starts; a modality with no masked rows is copied through with no
    hops and no `on_iteration` calls.
    """
    check_hops(hops)
    out = {}
    for m in f.modalities:
        mask, src = f.masks[m], f.matrices[m]
        if not mask.any():
            out[m] = src.copy()
            continue
        rows = np.flatnonzero(mask) if clamp else slice(None)
        if clamp and src.dtype != np.float64:
            y = None
            state = _State(src, np.zeros((rows.size, src.shape[1])), rows)
        else:
            x = src.astype(np.float64)
            x[mask] = 0.0
            y = x if clamp else None
            state = _State(x, x, rows)
            del x
        step, block = row_step(m, rows)
        swap = clamp and hops > 1 and block is not None
        for t in range(1, hops + 1):
            step(state, t)
            if swap and t == 1:
                b = state.copy()  # before the hook, which may write a float64 run's state
            if clamp and state.x is not y:  # a float32 run stores x_M, rounded
                if y is None:  # after hop 1, whose solve may hold three n x d/4 float64 arrays
                    y = src.copy()
                # a value beyond float32's range becomes an infinity without
                # a warning; the `.fmat` writer refuses it
                with np.errstate(over="ignore"):
                    y[rows] = state.x
            if on_iteration is not None:
                on_iteration(m, t, y if clamp else state.x)
            if swap and t == 1:
                step = block(b)
                del b  # the block step holds it
        del step, block
        if not clamp:  # unclamped hops moved the observed rows; outputs keep the inputs
            with np.errstate(over="ignore"):  # as a clamped run's store, above
                y = state.x.astype(src.dtype, copy=False)  # a float64 run's own state
            np.copyto(y, src, where=~mask[:, None])
        del state
        out[m] = y
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
    masked rows M, held in float64: hop 1 is S[M] @ x, and every later
    hop K x_M + b, with K = S[M][:, M] and b hop 1's result. Every
    product takes `MULTIHOP_COLUMNS` columns at a time, hop 1's widened
    from the input (a CSR product sums each column on its own, so no bit
    moves). The output keeps the input's precision.
    """
    if op.mode != MODE_SYM:
        raise InvalidParameter("multihop requires a sym-laplacian operator")
    _check_graph(f, op.matrix.shape[0])
    s = op.matrix

    def row_step(m, rows):
        s_rows = s[rows]

        def hop(state, t):
            for cols in _columns(state.dim, MULTIHOP_COLUMNS):
                state[cols] = s_rows @ state.columns(cols)

        def block(b):
            k = s_rows[:, rows]  # stays sparse, a slice of the operator like s_rows

            def step(state, t):
                for cols in _columns(state.dim, MULTIHOP_COLUMNS):
                    y = k @ state[cols]
                    y += b[:, cols]
                    state[cols] = y

            return step

        return hop, block

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


def _solve_width(dim: int) -> int:
    """Columns a PPR solve of a d-column modality steps at a time: d/4, at least one."""
    return max(1, dim // 4)


def _ppr_columns(
    a_sl, alpha: float, x0: np.ndarray, rows: np.ndarray, tolerance: float, source: str
) -> tuple[np.ndarray, int, float]:
    """Rows `rows` of the fixed point x = alpha * x0 + (1 - alpha) * A_sl @ x, column by column.

    Converges to alpha * B^-1 @ x0 when (1 - alpha) * rho(A_sl) < 1;
    otherwise the residual stalls and the step cap trips. `x0` is the
    n x c float64 start, a C-contiguous array the solve takes over as
    its first iterate and overwrites, or c item indices standing for
    their unit columns, built here so that no caller holds them through
    the solve. A step is one product `a_sl @ x`, the only array it
    allocates, which `RowBlockedCSR` splits over the usable cores;
    `_relax_rows` then turns it into the next iterate over as many row
    blocks, on the same pool. Only `target`, the iterate and the product
    are alive at once. Each column keeps its `rows` from its own first
    step whose change is at most `tolerance`; the columns step together
    until the last one stops. A column's largest change over the blocks
    is exact and its bits depend on no other column, so any core count
    and any chunking of the columns give the same bits. Returns the kept
    rows, the steps until the last column stopped and the largest change
    of a kept column. A column that never stops raises DivergentDiffusion
    with the first such column's last change; `source` tells where
    `tolerance` comes from and which solve this is.
    """
    if x0.ndim == 1:
        items, x0 = x0, np.zeros((a_sl.shape[0], x0.size))
        x0[items, np.arange(items.size)] = 1.0
    x = x0  # each step overwrites its input
    del x0
    target = alpha * x
    # as many blocks as the product, but each row costs the relax pass the same
    n_blocks = _block_count(a_sl, x.shape[1])
    blocks = np.linspace(0, x.shape[0], n_blocks + 1).astype(np.int64).tolist()
    kept = np.empty((rows.size, x.shape[1]))
    pending = np.ones(x.shape[1], dtype=bool)
    residual = 0.0
    for n_steps in range(1, FIXED_POINT_STEP_CAP + 1):
        x_next = a_sl @ x
        changes = _run_blocks(_relax_rows, blocks, x_next, x, target, 1.0 - alpha)
        # np.maximum, not max: a NaN change must stall the iteration
        changes = changes[0] if n_blocks == 1 else np.maximum.reduce(changes)
        x = x_next
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
    a_sl, alpha: float, state: _State, cold: np.ndarray, iter_tolerance: float, hop: int
) -> tuple[_State, int, float]:
    """One PPR hop in place: the state becomes its rows of the fixed point.

    The start x0 is the current matrix with the rows where the boolean
    `cold` is set zeroed, so a hook's fill in a cold row is never read.
    `iter_tolerance` is relative: each column stops at its own first
    step whose change is at most `iter_tolerance * max|x0|`, the largest
    over the whole of x0, so the outcome does not depend on the scale of
    the features, and an all-zero x0 stops after one step. The solve
    runs in chunks of `_solve_width` columns, one after another. Each
    chunk's x0 is built from the current matrix (`state.columns`) twice:
    once for max|x0|, a pass over every chunk before any is solved, and
    once for its solve, which writes its rows into the state before the
    next chunk's columns are read. So besides the state and its matrix a
    hop holds three n x d/4 float64 arrays and its kept rows. Returns
    `state`, the steps of the slowest chunk and the largest change of a
    kept column; `hop` only names the solve in a divergence.
    """
    def x0(cols):
        v = state.columns(cols)
        v[cold] = 0.0
        return v

    chunks = list(_columns(state.dim, _solve_width(state.dim)))
    # np.max, not max: a NaN in any chunk must give a NaN scale
    scale = float(np.max([np.abs(x0(c)).max(initial=0.0) for c in chunks], initial=0.0))
    source = f"(iter_tolerance={iter_tolerance} times max |x0| = {scale:.3e}) in hop {hop}"
    kept = np.arange(state.base.shape[0])[state.rows]  # an unclamped run's slice(None) as indices
    n_steps, residual = 0, 0.0
    for cols in chunks:
        state[cols], steps, change = _ppr_columns(
            a_sl, alpha, x0(cols), kept, iter_tolerance * scale, source
        )
        n_steps, residual = max(n_steps, steps), max(residual, change)
    return state, n_steps, residual


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


def _masked_block_fits(f: FeatureSet, m: str) -> bool:
    """Whether modality m's clamped PPR hops after the first run on the dense block P.

    P holds |M|^2 floats, at most 4 n d: four times a float64 copy of
    the modality, and about five times a hop solve's own 3/4 n d (three
    n x d/4 chunk arrays). Past that bound every hop solves over the
    whole matrix instead. The rule reads no hop count, so a hop's bits
    never depend on how many follow it.
    """
    n_masked = int(f.masks[m].sum())
    return n_masked * n_masked <= 4 * f.n_items * f.dim(m)


def _ppr_solves(f: FeatureSet, m: str, hops: int, clamp: bool, solves: list) -> list:
    """The entries of a deeper run's per-solve list `solves` that a run of `hops` makes.

    A run whose hops after the first use the masked block makes hop 1's
    solve, then, from hop 2 on, every unit-column solve; any other run
    makes one solve per hop.
    """
    if clamp and _masked_block_fits(f, m):
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
        def hop(state, t):
            # the fixed point couples every row; only `rows` are kept
            solved(m, _ppr_hop, a_sl, alpha, state, cold[m], iter_tolerance, t)

        if not _masked_block_fits(f, m):
            return hop, None

        def block(b):
            # P's cold columns stay zero, as do x_M's cold rows. A row of
            # P @ x_M sums |M| terms, so each unit column is solved to
            # iter_tolerance / |M|
            p = np.zeros((rows.size, rows.size))
            warm = np.flatnonzero(~cold[m][rows])
            n_chunks = -(-warm.size // _solve_width(f.dim(m)))
            source = (
                f"(iter_tolerance={iter_tolerance} over |M| = {rows.size} masked rows) "
                "in the masked block P"
            )
            for cols in np.array_split(warm, n_chunks) if n_chunks else []:
                p[:, cols] = solved(
                    m, _ppr_columns, a_sl, alpha, rows[cols], rows, iter_tolerance / rows.size, source
                )

            def step(state, t):
                y = _dense_product(p, state[:])
                y += b
                state[:] = y

            return step

        return hop, block

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
    applications, so clamped hops keep only the masked rows M, in
    float64, and the output keeps the input's precision. Every
    solve treats each column on its own: a column stops at its own first
    step within its bound, and the columns run in chunks of at most d/4,
    one after another. Hop 1 is one solve over the whole matrix, bound
    `iter_tolerance * max|x0|`, whose masked rows are b; every later hop
    is x_M <- P x_M + b with the dense P = [alpha * B^-1]_{M,M}. P's
    column for a masked item with neighbors is the solve from its unit
    column, bound `iter_tolerance / |M|`; these solves run after hop 1's
    `on_iteration` call, and only if hop 2 follows. A modality whose P
    would hold more than 4 n d floats, and every unclamped run, solves
    over the whole matrix at every hop instead. A modality with nothing
    masked is returned unchanged without solving anything.
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
                # `x` is a clamped run's output, whose masked rows are a
                # float64 run's state, or an unclamped run's state; S has
                # no cold column and each PPR hop zeroes the cold rows of
                # the x0 it builds, so no hop reads the fill
                x[cold[m]] = fill[m]
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
