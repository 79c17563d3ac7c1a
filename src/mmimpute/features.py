"""Per-modality item feature matrices with whole-vector missingness masks.

Matrices keep float32 when they arrive as float32, the precision of the
on-disk format, so loading, dropping, imputing and writing a catalog
never widens it; any other input is held as float64. Imputers compute
only the rows they write in float64, and return the input's precision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, asdict
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import InconsistentData, InvalidParameter
from .graph import InteractionMatrix, check_alpha, check_integer, check_top_k

METHODS = ("zeros", "random", "global-mean", "neigh-mean", "multihop", "pers-pagerank")
GRAPH_METHODS = ("neigh-mean", "multihop", "pers-pagerank")
ALPHA_METHODS = ("pers-pagerank",)  # the methods that read `alpha`
FALLBACKS = ("zeros", "global-mean")
# Matrix entries a row-blocked pass (`row_blocks`) takes at a time, which
# bounds its temporaries.
ROW_BLOCK_ENTRIES = 2**18


def row_blocks(n_rows: int, width: int):
    """Slices of `ROW_BLOCK_ENTRIES // width` rows (at least one) covering `n_rows`."""
    step = max(1, ROW_BLOCK_ENTRIES // max(width, 1))
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def row_extremes(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's least and greatest value, 0.0 included, read in place.

    A NaN makes both of its row's extremes NaN, so a row is finite when
    both are, and holds only zeros when both are zero.
    """
    return mat.min(axis=1, initial=0.0), mat.max(axis=1, initial=0.0)


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """Dense per-modality feature matrices over a shared item axis.

    `masks[m][i]` is True when item i's modality-m vector is missing; the
    corresponding matrix row is a zero placeholder until an imputer fills
    it. Modalities may have different dimensionalities. Matrices are held
    C-contiguous: float32 input stays float32, the precision of the
    on-disk format (see `io`), and any other input becomes float64.
    """

    modalities: tuple[str, ...]
    matrices: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.modalities:
            raise InvalidParameter("at least one modality is required")
        if len(set(self.modalities)) != len(self.modalities):
            raise InvalidParameter("duplicate modality names")
        if set(self.modalities) != set(self.matrices) or set(self.modalities) != set(self.masks):
            raise InvalidParameter("modalities, matrices and masks must use the same names")
        matrices = {}
        masks = {}
        n_items = None
        for m in self.modalities:
            mat = np.asarray(self.matrices[m])
            dtype = np.float32 if mat.dtype == np.float32 else np.float64
            mat = np.ascontiguousarray(mat, dtype=dtype)
            if mat.ndim != 2:
                raise InvalidParameter(f"modality '{m}': feature matrix must be 2-d")
            if n_items is None:
                n_items = mat.shape[0]
            elif mat.shape[0] != n_items:
                raise InvalidParameter(f"modality '{m}': row count differs across modalities")
            mask = np.asarray(self.masks[m], dtype=bool)
            if mask.shape != (mat.shape[0],):
                raise InvalidParameter(f"modality '{m}': mask must have one flag per item")
            matrices[m] = mat
            masks[m] = mask
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "masks", masks)

    @property
    def n_items(self) -> int:
        return self.matrices[self.modalities[0]].shape[0]

    def dim(self, modality: str) -> int:
        return self.matrices[modality].shape[1]

    def missing_counts(self) -> dict[str, int]:
        return {m: int(self.masks[m].sum()) for m in self.modalities}

    def select(self, items) -> "FeatureSet":
        """A new set whose item i is item `items[i]` of this one: rows and masks gathered."""
        return FeatureSet(
            self.modalities,
            {m: self.matrices[m][items] for m in self.modalities},
            {m: self.masks[m][items] for m in self.modalities},
        )

    @classmethod
    def create(
        cls,
        matrices: Mapping[str, np.ndarray] | Sequence[tuple[str, np.ndarray]],
        masks: Mapping[str, np.ndarray] | None = None,
    ) -> "FeatureSet":
        """Build from (name, matrix) pairs; masks default to all-observed.

        Matrix precision follows the constructor: float32 stays float32,
        anything else becomes float64. `masks` must name exactly the
        modalities of `matrices`.
        """
        items = list(matrices.items()) if isinstance(matrices, Mapping) else list(matrices)
        names = tuple(name for name, _ in items)
        mats = {name: np.asarray(mat) for name, mat in items}
        if masks is None:
            masks = {name: np.zeros(mat.shape[0], dtype=bool) for name, mat in mats.items()}
        return cls(names, mats, masks)


def check_row_count(f: FeatureSet, r: InteractionMatrix):
    """Raise InconsistentData unless `f` has one row per item of `r`."""
    if f.n_items != r.n_items:
        raise InconsistentData(
            f"feature matrices have {f.n_items} rows but the dataset has {r.n_items} items"
        )


def check_modality_name(name: str):
    """Raise InvalidParameter unless `name` can name a file in an output directory.

    Each modality is written to "<name>.fmat", so a name must be non-empty
    and hold no path separator or NUL.
    """
    if not name or any(c and c in name for c in ("/", os.sep, os.altsep, "\0")):
        raise InvalidParameter(
            f"bad modality name {name!r}: it must be non-empty and hold no path separator or NUL"
        )


def check_seed(seed: int) -> int:
    """`seed` as an int; InvalidParameter unless it fits an unsigned 64-bit integer."""
    seed = check_integer(seed, "seed")
    if not (0 <= seed < 2**64):
        raise InvalidParameter("seed must be an unsigned 64-bit integer")
    return seed


def check_hops(hops: int) -> int:
    """`hops` as an int; InvalidParameter unless it asks for at least one propagation step."""
    hops = check_integer(hops, "hops")
    if hops < 1:
        raise InvalidParameter(f"hops must be at least 1, got {hops}")
    return hops


def check_cold_fallback(fallback: str):
    """Raise InvalidParameter unless `fallback` is one of FALLBACKS."""
    if fallback not in FALLBACKS:
        raise InvalidParameter(f"unknown cold_fallback '{fallback}'")


def check_iter_tolerance(tolerance: float):
    """Raise InvalidParameter unless the fixed-point tolerance is positive and finite."""
    if not (0.0 < tolerance < np.inf):
        raise InvalidParameter("iter_tolerance must be positive and finite")


@dataclass(frozen=True)
class ImputeConfig:
    """Method selector plus hyper-parameters for the dispatcher.

    `top_k` controls graph sparsification, `hops` the propagation depth,
    `alpha` the teleport probability, `cold_fallback` how degree-0 masked
    items are filled, `iter_tolerance` when a personalized-PageRank fixed
    point has converged, and `clamp` whether observed rows are re-pinned
    after every hop. The field defaults are the package's defaults: the
    command line, `run_sweep` and the imputers read them from here. The
    counts `top_k`, `hops` and `seed` must be integers, and are held as
    Python ints, so a numpy integer given for one serializes to JSON.
    """

    method: str
    top_k: int = 20
    hops: int = 10
    alpha: float = 0.85
    seed: int = 0
    cold_fallback: str = "global-mean"
    iter_tolerance: float = 1e-8
    clamp: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidParameter(
                f"unknown method '{self.method}'; expected one of {', '.join(METHODS)}"
            )
        object.__setattr__(self, "top_k", check_top_k(self.top_k))
        object.__setattr__(self, "hops", check_hops(self.hops))
        check_alpha(self.alpha)
        object.__setattr__(self, "seed", check_seed(self.seed))
        check_cold_fallback(self.cold_fallback)
        check_iter_tolerance(self.iter_tolerance)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of consistency checks between features and interactions.

    Immutable: `missing` is held as a read-only mapping and `problems`
    as a tuple, whatever the constructor is given.
    """

    missing: Mapping[str, int]
    problems: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "missing", MappingProxyType(dict(self.missing)))
        object.__setattr__(self, "problems", tuple(self.problems))

    @property
    def ok(self) -> bool:
        return not self.problems


def _format_indices(idx: np.ndarray, limit: int = 5) -> str:
    shown = ", ".join(str(i) for i in idx[:limit])
    more = f", ... ({idx.size} total)" if idx.size > limit else ""
    return shown + more


def validate(f: FeatureSet, r: InteractionMatrix) -> ValidationReport:
    """Report structural problems instead of raising.

    Checks row counts against the interaction matrix, finiteness of
    observed rows, and the all-zero placeholder contract of masked rows.
    Both row checks read `row_extremes`, so no temporary the size of a
    matrix is made.
    """
    problems: list[str] = []
    try:
        check_row_count(f, r)
    except InconsistentData as exc:
        problems.append(str(exc))
    for m in f.modalities:
        mask = f.masks[m]
        lo, hi = row_extremes(f.matrices[m])
        bad_finite = np.flatnonzero(~mask & ~(np.isfinite(lo) & np.isfinite(hi)))
        if bad_finite.size:
            problems.append(
                f"modality '{m}': non-finite values in observed rows {_format_indices(bad_finite)}"
            )
        bad_zero = np.flatnonzero(mask & ((lo != 0.0) | (hi != 0.0)))
        if bad_zero.size:
            problems.append(
                f"modality '{m}': masked rows are not zero placeholders: {_format_indices(bad_zero)}"
            )
    return ValidationReport(missing=f.missing_counts(), problems=problems)
