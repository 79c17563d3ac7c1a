"""Dataset pruning, statistics, synthetic data and mask-and-recover scoring.

The "drop" pipeline removes items with any missing modality (then
dangling interactions and orphaned users), which is the baseline the
imputers are an alternative to; the survivors come out in the canonical
item order of `graph.first_appearance_order`, except that a dataset
with nothing to drop comes back as it was. The mask-and-recover
harness hides a fraction of observed rows, imputes them, and scores
reconstruction fidelity per modality.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDataset, InvalidParameter, MmImputeError
from .features import (
    ALPHA_METHODS, FeatureSet, GRAPH_METHODS, ImputeConfig, check_row_count, check_seed, row_blocks,
)
from .graph import InteractionMatrix, ItemGraph, check_integer, cooccurrence, first_appearance_order
from .imputers import _ppr_solves, impute


@dataclass(frozen=True)
class DatasetStats:
    """Interaction counts plus per-modality missing-item counts."""

    n_users: int
    n_items: int
    n_interactions: int
    missing: dict[str, int]

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class ModalityMetrics:
    rmse: float
    mean_cosine: float | None
    n_evaluated: int
    n_cosine_excluded: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Reconstruction metrics per modality."""

    per_modality: dict[str, ModalityMetrics]

    def as_dict(self) -> dict:
        return {m: v.as_dict() for m, v in self.per_modality.items()}


@dataclass(frozen=True, eq=False)
class HiddenRows:
    """Held-out ground truth: per modality, hidden row indices and values."""

    indices: dict[str, np.ndarray]
    values: dict[str, np.ndarray]


def dataset_stats(r: InteractionMatrix, f: FeatureSet) -> DatasetStats:
    """Exact counts of users, items, interactions and missing rows."""
    check_row_count(f, r)
    return DatasetStats(r.n_users, r.n_items, r.n_interactions, f.missing_counts())


def drop_missing(
    r: InteractionMatrix, f: FeatureSet
) -> tuple[InteractionMatrix, np.ndarray, DatasetStats, DatasetStats]:
    """Remove items with any missing modality, then cascade-prune.

    Interactions touching removed items are dropped, then users left with
    zero interactions. Surviving items are put in canonical order
    (`graph.first_appearance_order`), so a pruned dataset
    written to disk re-reads with identical indexing; items that had no
    interactions to begin with keep their relative order at the end.
    When nothing is dropped, `r` itself comes back with `items` equal to
    `arange(r.n_items)`, in `r`'s order, which need not be canonical
    (`io.write_dataset` still writes it in canonical order).
    Returns the pruned interactions, `items` (the index in `r` and `f` of
    each surviving item, in the new order) and before/after stats. No
    feature row is copied: `f.select(items)` is the pruned feature set,
    and `io.write_dataset(directory, matrix, f, items)` writes it.
    """
    before = dataset_stats(r, f)
    dropped = np.zeros(f.n_items, dtype=bool)
    for m in f.modalities:
        dropped |= f.masks[m]
    if dropped.all():
        raise EmptyDataset("every item has a missing modality")
    if not dropped.any():
        return r, np.arange(r.n_items), before, before

    kept_items = np.flatnonzero(~dropped)
    columns = r.matrix[:, kept_items]  # users left without entries add nothing to the stream
    kept_users = np.flatnonzero(np.diff(columns.indptr))
    if kept_users.size == 0:
        raise EmptyDataset("no interactions survive the drop")
    items = kept_items[first_appearance_order(columns)]
    matrix = r.select(kept_users, items)
    # every surviving item has all its modalities
    after = DatasetStats(
        matrix.n_users, matrix.n_items, matrix.n_interactions, dict.fromkeys(f.modalities, 0)
    )
    return matrix, items, before, after


def check_methods(methods: Sequence[str]):
    """Raise InvalidParameter at the first method that is unknown or given twice."""
    for k, method in enumerate(methods):
        ImputeConfig(method=method)  # rejects an unknown method
        if method in methods[:k]:
            raise InvalidParameter(f"method '{method}' given twice")


def check_hide_fraction(fraction: float):
    """Raise InvalidParameter unless 0 < fraction < 1."""
    if not (0.0 < fraction < 1.0):
        raise InvalidParameter(f"hide fraction must be in (0, 1), got {fraction}")


def mask_features(f: FeatureSet, fraction: float, seed: int) -> tuple[FeatureSet, HiddenRows]:
    """Hide floor(fraction * observed) rows per modality, without replacement.

    The hidden rows become zero placeholders in the returned copy, which
    keeps the input's precision; their original values are handed back
    as float64 ground truth, so scores are computed in float64.
    """
    check_hide_fraction(fraction)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    matrices = {}
    masks = {}
    indices = {}
    values = {}
    for m in f.modalities:
        observed = np.flatnonzero(~f.masks[m])
        n_hide = int(np.floor(fraction * observed.size))
        if n_hide == 0:
            raise InvalidParameter(
                f"hide fraction {fraction} selects zero rows for modality '{m}'"
            )
        chosen = np.sort(rng.choice(observed, size=n_hide, replace=False))
        mat = f.matrices[m].copy()
        values[m] = mat[chosen].astype(np.float64)
        indices[m] = chosen
        mat[chosen] = 0.0
        mask = f.masks[m].copy()
        mask[chosen] = True
        matrices[m] = mat
        masks[m] = mask
    return FeatureSet(f.modalities, matrices, masks), HiddenRows(indices, values)


def reconstruction_metrics(imputed: FeatureSet, truth: HiddenRows) -> EvalReport:
    """Score imputed rows against held-out originals.

    RMSE pools all hidden entries of a modality. Cosine is averaged per
    row; rows where either side has zero norm are excluded from the mean
    and counted separately.
    """
    per_modality = {}
    for m, idx in truth.indices.items():
        if m not in imputed.matrices:
            raise InvalidParameter(f"imputed features lack modality '{m}'")
        per_modality[m] = _modality_metrics(m, imputed.matrices[m][idx], truth.values[m])
    return EvalReport(per_modality)


def _modality_metrics(m: str, got: np.ndarray, want: np.ndarray) -> ModalityMetrics:
    if got.shape != want.shape:
        raise InvalidParameter(f"modality '{m}': hidden row shapes do not match")
    err = got - want
    rmse = float(np.sqrt(np.mean(err * err))) if err.size else 0.0
    got_norm = np.linalg.norm(got, axis=1)
    want_norm = np.linalg.norm(want, axis=1)
    ok = (got_norm > 0.0) & (want_norm > 0.0)
    excluded = int(len(got) - ok.sum())
    if ok.any():
        cosine = np.sum(got[ok] * want[ok], axis=1) / (got_norm[ok] * want_norm[ok])
        mean_cosine = float(np.mean(cosine))
    else:
        mean_cosine = None
    return ModalityMetrics(rmse, mean_cosine, len(got), excluded)


def check_synth_params(
    n_users: int,
    n_items: int,
    n_communities: int,
    p_in: float,
    p_out: float,
    dims: Sequence[tuple[str, int]],
    noise_sigma: float,
    seed: int,
):
    """Raise InvalidParameter unless `synth_generate` accepts these arguments.

    The sizes, the community count and each dimension must be integers
    (`graph.check_integer`).
    """
    for value, name in ((n_users, "n_users"), (n_items, "n_items"),
                        (n_communities, "n_communities")):
        check_integer(value, name)
    for name, dim in dims:
        check_integer(dim, f"modality '{name}': dimension")
    if n_users < 1 or n_items < 1:
        raise InvalidParameter("n_users and n_items must be positive")
    if n_communities < 1:
        raise InvalidParameter("n_communities must be at least 1")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise InvalidParameter(f"need 0 <= p_out < p_in <= 1, got p_in={p_in} p_out={p_out}")
    if not (0.0 <= noise_sigma < np.inf):
        raise InvalidParameter("noise_sigma must be finite and nonnegative")
    if not dims:
        raise InvalidParameter("at least one modality dimension is required")
    check_seed(seed)
    for name, dim in dims:
        if dim < 1:
            raise InvalidParameter(f"modality '{name}': dimension must be positive")


def _partners(nodes: np.ndarray, n_communities: int, n_other: int) -> np.ndarray:
    """For each node, a node of the other side in its community, or else `node % n_other`.

    Both sides are assigned round-robin, so community c holds nodes c, c + C, ...
    of each; the j-th node of c is paired with the (j mod size)-th of the other side.
    """
    community = nodes % n_communities
    size = (n_other - community + n_communities - 1) // n_communities
    member = community + n_communities * (nodes // n_communities % np.maximum(size, 1))
    return np.where(size > 0, member, nodes % n_other)


def synth_generate(
    n_users: int,
    n_items: int,
    n_communities: int,
    p_in: float,
    p_out: float,
    dims: Sequence[tuple[str, int]],
    noise_sigma: float,
    seed: int,
) -> tuple[InteractionMatrix, FeatureSet]:
    """Community-structured dataset where co-interacted items share features.

    Users and items are assigned round-robin to communities; an edge is
    sampled with probability p_in inside a community and p_out across.
    Item features are the community centroid (standard normal per
    modality) plus gaussian noise. The draw order is fixed: edge uniforms
    first, one per (user, item) in row-major order, then per modality
    centroids and noise, so a seed pins the whole dataset. The uniforms
    are drawn a `features.row_blocks` block of user rows at a time, which
    takes the same values from the stream as one users x items draw.

    If any edge is sampled, every item and user gets one, so the dataset
    can be written: an item that drew no edge is given one to a user of
    its community (or user `i % n_users` if the community has none), and
    then a user left without one an edge to an item of its community (or
    item `u % n_items`). These edges draw nothing from the stream, so a
    dataset in which every item and user drew an edge is unchanged.
    """
    check_synth_params(n_users, n_items, n_communities, p_in, p_out, dims, noise_sigma, seed)
    rng = np.random.default_rng(seed)
    community_u = np.arange(n_users) % n_communities
    community_i = np.arange(n_items) % n_communities
    rows, cols = [], []
    for users in row_blocks(n_users, n_items):
        prob = np.where(community_u[users, None] == community_i[None, :], p_in, p_out)
        block_rows, block_cols = np.nonzero(rng.random(prob.shape) < prob)
        rows.append(block_rows + users.start)
        cols.append(block_cols)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if rows.size == 0:
        raise EmptyDataset("no interactions were sampled; raise p_in/p_out or the sizes")
    lone = np.flatnonzero(np.bincount(cols, minlength=n_items) == 0)
    rows, cols = np.append(rows, _partners(lone, n_communities, n_users)), np.append(cols, lone)
    lone = np.flatnonzero(np.bincount(rows, minlength=n_users) == 0)
    rows, cols = np.append(rows, lone), np.append(cols, _partners(lone, n_communities, n_items))
    r = InteractionMatrix.from_pairs(np.column_stack((rows, cols)), n_users, n_items)
    matrices = []
    for name, dim in dims:
        centroids = rng.standard_normal((n_communities, dim))
        noise = rng.standard_normal((n_items, dim)) * noise_sigma
        matrices.append((name, centroids[community_i] + noise))
    return r, FeatureSet.create(matrices)


def _grid_seed(base_seed: int, grid_index: int) -> int:
    return int(np.random.SeedSequence([base_seed, grid_index]).generate_state(1)[0])


def _score_configs(
    masked: FeatureSet, r: InteractionMatrix, hidden: HiddenRows,
    counts: ItemGraph | None, cfgs: list[ImputeConfig],
) -> list[tuple[dict, dict]]:
    """(metrics, run details) of configurations that differ only in `hops`.

    One run at the deepest hop count serves all: `on_iteration` scores the
    shallower ones as it passes them (a clamped hop ignores the hops after
    it), and the output, equal to the hook's last view, scores the deepest.
    """
    deepest = max(cfgs, key=lambda cfg: cfg.hops)
    scores: dict[int, dict] = {cfg.hops: {} for cfg in cfgs if cfg.hops < deepest.hops}

    def score(m, t, x):
        if t in scores:
            scores[t][m] = _modality_metrics(m, x[hidden.indices[m]], hidden.values[m]).as_dict()

    out, report = impute(masked, r, deepest, counts_graph=counts, on_iteration=score)
    scores[deepest.hops] = reconstruction_metrics(out, hidden).as_dict()
    return [  # the per-solve lists of the deep run, cut to the solves of each configuration
        ({m: scores[cfg.hops][m] for m in hidden.indices},
         {m: {key: _ppr_solves(masked, m, cfg.hops, cfg.clamp, v) if isinstance(v, list) else v
              for key, v in d.items()}
          for m, d in report["modalities"].items()})
        for cfg in cfgs
    ]


def run_sweep(
    r: InteractionMatrix,
    f: FeatureSet,
    methods: Sequence[str],
    top_k_grid: Sequence[int],
    hops_grid: Sequence[int],
    hide_fraction: float,
    seed: int,
    alpha: float = ImputeConfig.alpha,
    cold_fallback: str = ImputeConfig.cold_fallback,
    iter_tolerance: float = ImputeConfig.iter_tolerance,
) -> list[dict]:
    """Mask-and-recover comparison over a (method x hyper-parameter) grid.

    One hidden set (derived from `seed`) is shared by every configuration;
    each run gets its own seed derived from (base seed, grid index).
    Traditional methods ignore the grids and run once; neigh-mean sweeps
    top-k only; the propagating methods sweep top-k x hops, with one
    propagation per top-k that scores every hop count.
    """
    check_methods(methods)  # before any work
    masked, hidden = mask_features(f, hide_fraction, seed)
    counts = cooccurrence(r) if any(m in GRAPH_METHODS for m in methods) else None
    rows: list[dict] = []
    for method in methods:
        if method not in GRAPH_METHODS:
            groups: list[tuple[int | None, Sequence[int | None]]] = [(None, [None])]
        elif method == "neigh-mean":
            groups = [(k, [None]) for k in top_k_grid]
        else:
            groups = [(k, hops_grid) for k in top_k_grid if len(hops_grid)]
        for top_k, hop_values in groups:

            def config(j: int, hops: int | None) -> ImputeConfig:
                return ImputeConfig(
                    method=method, top_k=ImputeConfig.top_k if top_k is None else top_k,
                    hops=ImputeConfig.hops if hops is None else hops, alpha=alpha,
                    seed=_grid_seed(seed, len(rows) + j),
                    cold_fallback=cold_fallback, iter_tolerance=iter_tolerance,
                )

            try:
                cfgs = [config(j, hops) for j, hops in enumerate(hop_values)]
                scored = _score_configs(masked, r, hidden, counts, cfgs)
            except MmImputeError:  # one run per configuration names the first that fails
                for j, hops in enumerate(hop_values):
                    impute(masked, r, config(j, hops), counts_graph=counts)
                raise
            for hops, cfg, (metrics, details) in zip(hop_values, cfgs, scored):
                rows.append({
                    "grid_index": len(rows), "method": method,
                    "top_k": None if top_k is None else cfg.top_k,
                    "hops": None if hops is None else cfg.hops,
                    "alpha": alpha if method in ALPHA_METHODS else None, "run_seed": cfg.seed,
                    "metrics": metrics, "modalities": details,
                })
    return rows
