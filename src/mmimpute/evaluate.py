"""Dataset pruning, statistics, synthetic data and mask-and-recover scoring.

The "drop" pipeline removes items with any missing modality (then
dangling interactions and orphaned users), which is the baseline the
imputers are an alternative to. The mask-and-recover harness hides a
fraction of observed rows, imputes them, and scores reconstruction
fidelity per modality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDataset, InconsistentData, InvalidParameter
from .features import FeatureSet, GRAPH_METHODS, ImputeConfig, METHODS
from .graph import InteractionMatrix, cooccurrence
from .imputers import impute


@dataclass(frozen=True)
class DatasetStats:
    """Interaction counts plus per-modality missing-item counts."""

    n_users: int
    n_items: int
    n_interactions: int
    missing: dict[str, int]

    def as_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "n_interactions": self.n_interactions,
            "missing": dict(self.missing),
        }


@dataclass(frozen=True, eq=False)
class ModalityMetrics:
    rmse: float
    mean_cosine: float | None
    n_evaluated: int
    n_cosine_excluded: int

    def as_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "mean_cosine": self.mean_cosine,
            "n_evaluated": self.n_evaluated,
            "n_cosine_excluded": self.n_cosine_excluded,
        }


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


def _check_consistent(r: InteractionMatrix, f: FeatureSet):
    if f.n_items != r.n_items:
        raise InconsistentData(
            f"feature matrices have {f.n_items} rows but the dataset has {r.n_items} items"
        )


def dataset_stats(r: InteractionMatrix, f: FeatureSet) -> DatasetStats:
    """Exact counts of users, items, interactions and missing rows."""
    _check_consistent(r, f)
    return DatasetStats(r.n_users, r.n_items, r.n_interactions, f.missing_counts())


def drop_missing(
    r: InteractionMatrix, f: FeatureSet
) -> tuple[InteractionMatrix, FeatureSet, DatasetStats, DatasetStats]:
    """Remove items with any missing modality, then cascade-prune.

    Interactions touching removed items are dropped, then users left with
    zero interactions. Surviving indices are reassigned by first
    appearance in the row-major traversal of the surviving entries, so a
    pruned dataset written to disk re-reads with identical indexing.
    Items that had no interactions to begin with keep their relative
    order at the end. Returns the pruned dataset plus before/after stats.
    """
    _check_consistent(r, f)
    before = dataset_stats(r, f)
    dropped = np.zeros(f.n_items, dtype=bool)
    for m in f.modalities:
        dropped |= f.masks[m]
    if dropped.all():
        raise EmptyDataset("every item has a missing modality")
    if not dropped.any():
        return r, f, before, before

    coo = r.matrix.tocoo()
    keep = ~dropped[coo.col]
    rows, cols = coo.row[keep], coo.col[keep]
    if rows.size == 0:
        raise EmptyDataset("no interactions survive the drop")

    kept_users = np.unique(rows)  # ascending: preserves user order
    user_new = np.full(r.n_users, -1, dtype=np.int64)
    user_new[kept_users] = np.arange(kept_users.size)

    order = np.lexsort((cols, rows))  # row-major traversal
    traversal_cols = cols[order]
    _, first_pos = np.unique(traversal_cols, return_index=True)
    appearance = traversal_cols[np.sort(first_pos)]
    item_new = np.full(r.n_items, -1, dtype=np.int64)
    item_new[appearance] = np.arange(appearance.size)
    # kept items that never appear in an interaction go last, in old order
    unseen = np.flatnonzero(~dropped & (item_new < 0))
    item_new[unseen] = np.arange(appearance.size, appearance.size + unseen.size)
    n_items_after = appearance.size + unseen.size

    matrix = InteractionMatrix.from_pairs(
        zip(user_new[rows], item_new[cols]),
        kept_users.size,
        n_items_after,
        user_ids=tuple(r.user_ids[u] for u in kept_users),
        item_ids=_reordered_ids(r.item_ids, item_new),
    )
    old_of_new = np.empty(n_items_after, dtype=np.int64)
    kept_items = np.flatnonzero(item_new >= 0)
    old_of_new[item_new[kept_items]] = kept_items
    matrices = {m: f.matrices[m][old_of_new] for m in f.modalities}
    pruned = FeatureSet.create([(m, matrices[m]) for m in f.modalities])
    after = dataset_stats(matrix, pruned)
    return matrix, pruned, before, after


def _reordered_ids(ids: Sequence[str], new_index: np.ndarray) -> tuple[str, ...]:
    kept = np.flatnonzero(new_index >= 0)
    out = [""] * kept.size
    for old in kept:
        out[new_index[old]] = ids[old]
    return tuple(out)


def mask_features(f: FeatureSet, fraction: float, seed: int) -> tuple[FeatureSet, HiddenRows]:
    """Hide floor(fraction * observed) rows per modality, without replacement.

    The hidden rows become zero placeholders in the returned copy; their
    original values are handed back as ground truth.
    """
    if not (0.0 < fraction < 1.0):
        raise InvalidParameter(f"hide fraction must be in (0, 1), got {fraction}")
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
        values[m] = mat[chosen].copy()
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
        got = imputed.matrices[m][idx]
        want = truth.values[m]
        if got.shape != want.shape:
            raise InvalidParameter(f"modality '{m}': hidden row shapes do not match")
        err = got - want
        rmse = float(np.sqrt(np.mean(err * err))) if err.size else 0.0
        got_norm = np.linalg.norm(got, axis=1)
        want_norm = np.linalg.norm(want, axis=1)
        ok = (got_norm > 0.0) & (want_norm > 0.0)
        excluded = int(idx.size - ok.sum())
        if ok.any():
            cosine = np.sum(got[ok] * want[ok], axis=1) / (got_norm[ok] * want_norm[ok])
            mean_cosine = float(np.mean(cosine))
        else:
            mean_cosine = None
        per_modality[m] = ModalityMetrics(rmse, mean_cosine, int(idx.size), excluded)
    return EvalReport(per_modality)


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
    first, then per modality centroids and noise, so a seed pins the
    whole dataset.
    """
    if n_users < 1 or n_items < 1:
        raise InvalidParameter("n_users and n_items must be positive")
    if n_communities < 1:
        raise InvalidParameter("n_communities must be at least 1")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise InvalidParameter(f"need 0 <= p_out < p_in <= 1, got p_in={p_in} p_out={p_out}")
    if noise_sigma < 0.0:
        raise InvalidParameter("noise_sigma must be nonnegative")
    if not dims:
        raise InvalidParameter("at least one modality dimension is required")
    rng = np.random.default_rng(seed)
    community_u = np.arange(n_users) % n_communities
    community_i = np.arange(n_items) % n_communities
    same = community_u[:, None] == community_i[None, :]
    prob = np.where(same, p_in, p_out)
    edges = rng.random((n_users, n_items)) < prob
    rows, cols = np.nonzero(edges)
    if rows.size == 0:
        raise EmptyDataset("no interactions were sampled; raise p_in/p_out or the sizes")
    r = InteractionMatrix.from_pairs(zip(rows, cols), n_users, n_items)
    matrices = []
    for name, dim in dims:
        if dim < 1:
            raise InvalidParameter(f"modality '{name}': dimension must be positive")
        centroids = rng.standard_normal((n_communities, dim))
        noise = rng.standard_normal((n_items, dim)) * noise_sigma
        matrices.append((name, centroids[community_i] + noise))
    return r, FeatureSet.create(matrices)


def _grid_seed(base_seed: int, grid_index: int) -> int:
    return int(np.random.SeedSequence([base_seed, grid_index]).generate_state(1)[0])


def run_sweep(
    r: InteractionMatrix,
    f: FeatureSet,
    methods: Sequence[str],
    top_k_grid: Sequence[int],
    hops_grid: Sequence[int],
    hide_fraction: float,
    seed: int,
    alpha: float = 0.85,
    cold_fallback: str = "global-mean",
    iter_tolerance: float = 1e-8,
) -> list[dict]:
    """Mask-and-recover comparison over a (method x hyper-parameter) grid.

    One hidden set (derived from `seed`) is shared by every configuration;
    each run gets its own seed derived from (base seed, grid index).
    Traditional methods ignore the grids and run once; neigh-mean sweeps
    top-k only; multihop and pers-pagerank sweep top-k x hops.
    """
    for method in methods:
        if method not in METHODS:
            raise InvalidParameter(f"unknown method '{method}'")
    masked, hidden = mask_features(f, hide_fraction, seed)
    counts = cooccurrence(r) if any(m in GRAPH_METHODS for m in methods) else None
    rows: list[dict] = []
    grid_index = 0
    for method in methods:
        if method not in GRAPH_METHODS:
            combos: list[tuple[int | None, int | None]] = [(None, None)]
        elif method == "neigh-mean":
            combos = [(k, None) for k in top_k_grid]
        else:
            combos = [(k, t) for k in top_k_grid for t in hops_grid]
        for top_k, hops in combos:
            run_seed = _grid_seed(seed, grid_index)
            cfg = ImputeConfig(
                method=method,
                top_k=top_k if top_k is not None else 20,
                hops=hops if hops is not None else 10,
                alpha=alpha,
                seed=run_seed,
                cold_fallback=cold_fallback,
                iter_tolerance=iter_tolerance,
            )
            imputed, run_report = impute(masked, r, cfg, counts_graph=counts)
            metrics = reconstruction_metrics(imputed, hidden)
            rows.append(
                {
                    "grid_index": grid_index,
                    "method": method,
                    "top_k": top_k,
                    "hops": hops,
                    "alpha": alpha if method == "pers-pagerank" else None,
                    "run_seed": run_seed,
                    "metrics": metrics.as_dict(),
                    "modalities": run_report["modalities"],
                }
            )
            grid_index += 1
    return rows
