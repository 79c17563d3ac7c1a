"""Seeded synthetic datasets at the sizes of the paper's Office and Beauty sets.

The generator writes the three input files `mmimpute` reads (see the
README's "Command line" section) without importing the package, so the
benchmark inputs do not move when the package's own `synth` command
changes. One seed gives byte-identical files.

Shape of a dataset:
- user, item and interaction counts are exact (Amazon Office / Beauty);
- item popularity follows a power law with a random rank order, so the
  most popular items become hubs of the top-k co-interaction graph;
- users and items belong to communities and most interactions stay
  inside the user's community, so co-interacted items share features;
- features are a per-community centroid plus gaussian noise, stored as
  float32; masked rows are written as zeros, and the `Dataset` keeps
  their true values for scoring the imputed rows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

FEATURE_MAGIC = b"FMATv1\x00\x00"
HEADER = struct.Struct("<8sQQ")


@dataclass(frozen=True)
class Scale:
    tag: int  # mixed into the seed so scales draw independent streams
    users: int
    items: int
    interactions: int
    communities: int
    # (name, dim, masked rows); a modality's masked set is nested in the previous one's
    modalities: tuple[tuple[str, int, int], ...]


SCALES = {
    "office": Scale(1, 4905, 2420, 53258, 24, (("text", 384, 674), ("visual", 512, 0))),
    "beauty": Scale(2, 22363, 12101, 198502, 48, (("text", 384, 977), ("visual", 512, 7))),
}

POPULARITY_EXPONENT = 0.9
USER_ACTIVITY_EXPONENT = 0.6
IN_COMMUNITY = 0.8
NOISE_SIGMA = 0.6


@dataclass(frozen=True)
class Dataset:
    """Generated inputs in file order: row i of a matrix is the i-th distinct item."""

    users: np.ndarray  # user index per interaction line
    items: np.ndarray  # item index per interaction line, in file order
    features: dict[str, np.ndarray]  # float32, true values (masked rows included)
    masks: dict[str, np.ndarray]  # bool per item

    @property
    def n_users(self) -> int:
        return int(self.users.max()) + 1

    @property
    def n_items(self) -> int:
        return int(self.items.max()) + 1


def _pick(rng, cum: np.ndarray, pool: np.ndarray, n: int) -> np.ndarray:
    """Draw n members of `pool` with probability proportional to their weights."""
    return pool[np.searchsorted(cum, rng.random(n) * cum[-1], side="right")]


def generate(scale: Scale, seed: int) -> Dataset:
    """Draw a dataset of the given scale; one seed always gives the same dataset."""
    rng = np.random.default_rng([seed, scale.tag])
    n_u, n_i, c = scale.users, scale.items, scale.communities
    item_comm = rng.integers(c, size=n_i)
    user_comm = rng.integers(c, size=n_u)
    item_w = (1.0 + rng.permutation(n_i)) ** -POPULARITY_EXPONENT
    user_w = (1.0 + rng.permutation(n_u)) ** -USER_ACTIVITY_EXPONENT
    members = [np.flatnonzero(item_comm == k) for k in range(c)]
    cums = [np.cumsum(item_w[m]) for m in members]
    users_of = [np.flatnonzero(user_comm == k) for k in range(c)]
    all_items = np.arange(n_i)
    all_cum = np.cumsum(item_w)

    def sample_items(comm: np.ndarray) -> np.ndarray:
        out = np.empty(comm.size, dtype=np.int64)
        for k in range(c):
            sel = np.flatnonzero(comm == k)
            if sel.size:
                out[sel] = _pick(rng, cums[k], members[k], sel.size)
        return out

    # every user and every item gets at least one interaction
    forced_u = np.concatenate([np.arange(n_u), np.empty(n_i, dtype=np.int64)])
    for k in range(c):
        own = np.flatnonzero(item_comm == k)
        pool = users_of[k] if users_of[k].size else np.arange(n_u)
        forced_u[n_u + own] = rng.choice(pool, size=own.size)
    forced_i = np.concatenate([sample_items(user_comm), all_items])
    keys = forced_u * n_i + forced_i
    user_cum = np.cumsum(user_w)
    while True:
        _, first = np.unique(keys, return_index=True)
        missing = scale.interactions - first.size
        if missing <= 0:
            break
        n = int(missing * 1.2) + 16
        u = _pick(rng, user_cum, np.arange(n_u), n)
        inside = rng.random(n) < IN_COMMUNITY
        i = np.empty(n, dtype=np.int64)
        i[inside] = sample_items(user_comm[u[inside]])
        i[~inside] = _pick(rng, all_cum, all_items, int((~inside).sum()))
        keys = np.concatenate([keys, u * n_i + i])
    keys = keys[np.sort(first)[: scale.interactions]]
    keys = keys[np.argsort(keys // n_i, kind="stable")]  # lines grouped by user
    users, items = keys // n_i, keys % n_i

    # rows follow first appearance in the interactions file
    _, first_pos = np.unique(items, return_index=True)
    order = items[np.sort(first_pos)]
    new_of_old = np.empty(n_i, dtype=np.int64)
    new_of_old[order] = np.arange(n_i)

    features, masks = {}, {}
    masked = rng.permutation(n_i)
    for name, dim, n_masked in scale.modalities:
        centroids = rng.standard_normal((c, dim))
        x = centroids[item_comm] + NOISE_SIGMA * rng.standard_normal((n_i, dim))
        features[name] = x[order].astype(np.float32)
        masked = masked[:n_masked]
        mask = np.zeros(n_i, dtype=bool)
        mask[new_of_old[masked]] = True
        masks[name] = mask
    return Dataset(users, new_of_old[items], features, masks)


def write_fmat(path: Path, matrix: np.ndarray):
    with open(path, "wb") as handle:
        handle.write(HEADER.pack(FEATURE_MAGIC, *matrix.shape))
        handle.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def read_fmat(path: Path) -> np.ndarray:
    """Read a FMATv1 file as float32, refusing anything malformed."""
    data = Path(path).read_bytes()
    if len(data) < HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, rows, cols = HEADER.unpack_from(data)
    if magic != FEATURE_MAGIC or len(data) != HEADER.size + rows * cols * 4:
        raise ValueError(f"{path}: not a FMATv1 file of its declared shape")
    return np.frombuffer(data, dtype="<f4", offset=HEADER.size).reshape(rows, cols)


def write(ds: Dataset, directory: Path) -> dict[str, Path]:
    """Write interactions, one .fmat per modality and the mask."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"interactions": directory / "interactions.tsv", "mask": directory / "mask.tsv"}
    lines = [f"u{u}\ti{i}\n" for u, i in zip(ds.users.tolist(), ds.items.tolist())]
    paths["interactions"].write_text("".join(lines), encoding="utf-8")
    mask_lines = []
    for name, x in ds.features.items():
        placeholder = x.copy()
        placeholder[ds.masks[name]] = 0.0
        paths[name] = directory / f"{name}.fmat"
        write_fmat(paths[name], placeholder)
        mask_lines += [f"i{i}\t{name}\n" for i in np.flatnonzero(ds.masks[name]).tolist()]
    paths["mask"].write_text("".join(mask_lines), encoding="utf-8")
    return paths


def graph_shape(ds: Dataset, k: int) -> tuple[int, int]:
    """Edges and max degree of the top-k co-interaction graph.

    Same rule as the package: keep each row's k largest counts, ties to
    the lower index, and keep an edge if either endpoint selects it.
    """
    n = ds.n_items
    incidence = sp.csr_matrix(
        (np.ones(ds.items.size), (ds.users, ds.items)), shape=(ds.n_users, n)
    )
    gram = (incidence.T @ incidence).tocoo()
    off = gram.row != gram.col
    rows, cols, counts = gram.row[off], gram.col[off], gram.data[off]
    order = np.lexsort((cols, -counts, rows))
    rows, cols = rows[order], cols[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    keep = rank < k
    directed = sp.csr_matrix((np.ones(int(keep.sum())), (rows[keep], cols[keep])), shape=(n, n))
    sym = directed + directed.T
    degrees = np.diff(sym.tocsr().indptr)
    return sym.nnz // 2, int(degrees.max())
