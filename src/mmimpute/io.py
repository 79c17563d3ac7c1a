"""File formats and dataset round-tripping.

Interactions are UTF-8 text, one "user_id<TAB>item_id" per line; blank
lines, lines starting with '#' and a leading byte-order mark are ignored. Feature matrices use a
little-endian binary format: the 8-byte magic "FMATv1\\0\\0", two u64
dimensions (rows, columns), then the float32 row-major payload. They
load as float32 and stay float32 through dropping and reordering; a
float32 matrix is written without conversion. Masks are text, one
"item_id<TAB>modality_name" per line, resolved against the interaction
vocabulary.

Feature rows are keyed by item index, i.e. by first appearance of the
item id in the interactions file. `write_dataset` writes in the
canonical order owned by `graph.first_appearance_order`, so
a written dataset re-reads with identical indexing. An input that cannot
be read or is not UTF-8 raises ParseError (text) or FormatError (.fmat).
A feature set with a value that does not fit float32 is refused before
any of its files, or the interactions written with it, is created.
"""

from __future__ import annotations

import os
import stat
import struct
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    EmptyDataset,
    FormatError,
    InconsistentData,
    ParseError,
    UnknownItem,
    UnknownModality,
)
from .features import FeatureSet, check_row_count
from .graph import InteractionMatrix, first_appearance_order, interactions_from_ids

FEATURE_MAGIC = b"FMATv1\x00\x00"
_HEADER = struct.Struct("<8sQQ")
# The least magnitude that rounds to float32 infinity: halfway between the
# float32 maximum (2^128 - 2^104) and 2^128, where round-to-even goes up.
_FLOAT32_LIMIT = 2.0**128 - 2.0**103
# Payload bytes converted and written at a time by `_write_payload`.
_WRITE_CHUNK_BYTES = 2**20


def _read_records(path, what: str, known: dict[str, int] | None = None):
    """Both fields of every data line of a two-column text file.

    The file is read at once and split in bulk: lines are stripped, blank
    lines and lines starting with '#' are skipped, the rest are split at
    their one tab, and every field is stripped. Returns the list of first
    fields, looked up in `known` when it is given, and the list of second
    fields. The first bad line in file order raises, naming the line:
    undecodable bytes (ParseError), a line that is not two tab-separated
    fields (ParseError), or a first field not in `known` (UnknownItem).
    """
    try:
        # a leading byte-order mark is dropped; undecodable bytes become
        # lone surrogates, so the bad line is known
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from None
    lines = [line for line in map(str.strip, text.split("\n")) if line and line[0] != "#"]
    tabs = list(map(str.count, lines, repeat("\t")))
    n_good = len(lines)  # data lines before the first bad one
    if tabs.count(1) != n_good:
        n_good = next(k for k, n_tabs in enumerate(tabs) if n_tabs != 1)
    # a stripped line neither starts nor ends with its tab: no field is empty
    fields = list(map(str.strip, "\t".join(lines[:n_good]).split("\t"))) if n_good else []
    firsts, seconds = fields[0::2], fields[1::2]
    bad = []  # (line number, error), in order of precedence on one line
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            lineno = text.count("\n", 0, exc.start) + 1
            bad.append((lineno, ParseError(f"{path}:{lineno}: not UTF-8 text")))
    unknown = False
    if known is not None:
        firsts = list(map(known.get, firsts))
        if None in firsts:
            n_good, unknown = firsts.index(None), True
    if n_good < len(lines):
        numbers = enumerate(map(str.strip, text.split("\n")), start=1)
        lineno = [k for k, line in numbers if line and line[0] != "#"][n_good]
        if unknown:
            error = UnknownItem(f"{path}:{lineno}: unknown item id '{fields[2 * n_good]}'")
        else:
            error = ParseError(f"{path}:{lineno}: expected '{what}', got {lines[n_good]!r}")
        bad.append((lineno, error))
    if bad:
        raise min(bad, key=lambda b: b[0])[1]
    return firsts, seconds


def read_interactions(path) -> InteractionMatrix:
    """Load a user/item pair file, indexing ids by first appearance.

    The ids kept are compact copies of the parsed ones: the split makes one
    string per field, and the few that would survive it would keep most of
    the parse's memory from being returned (see
    `graph._index_by_first_appearance`).
    """
    users, items = _read_records(path, "user_id<TAB>item_id")
    if not users:
        raise EmptyDataset(f"{path}: no interactions")
    return interactions_from_ids(users, items)


def write_interactions(path, r: InteractionMatrix):
    """One "user_id<TAB>item_id" line per entry, in row-major order."""
    users = np.repeat(np.asarray(r.user_ids, dtype=object), np.diff(r.matrix.indptr))
    items = np.asarray(r.item_ids, dtype=object)[r.matrix.indices]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join((users + "\t" + items + "\n").tolist()))


def read_feature_matrix(path) -> np.ndarray:
    """Load one modality's matrix as float32, the precision it is stored at.

    The header and the file size are checked before the payload is
    allocated, so a header that claims more data than the file holds
    fails without allocating; the payload is then read straight into
    the returned array. The file must be a regular file, not a pipe,
    since its size is checked before it is read.
    """
    try:
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise FormatError(f"{path}: truncated header")
            magic, n_items, dim = _HEADER.unpack(header)
            if magic != FEATURE_MAGIC:
                raise FormatError(f"{path}: bad magic {magic!r}")
            st = os.fstat(handle.fileno())
            if not stat.S_ISREG(st.st_mode):  # only a regular file has a size to check
                raise FormatError(f"{path}: not a regular file")
            size = st.st_size - _HEADER.size
            if size != n_items * dim * 4:
                raise FormatError(
                    f"{path}: payload is {size} bytes, expected {n_items} x {dim} x 4"
                )
            matrix = np.empty((n_items, dim), dtype="<f4")
            read = handle.readinto(matrix)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None
    if read != size:  # the file shrank after its size was taken
        raise FormatError(f"{path}: payload is {read} bytes, expected {n_items} x {dim} x 4")
    return matrix.astype(np.float32, copy=False)


def write_feature_matrix(path, matrix: np.ndarray):
    """Store a matrix at single precision. Values must be finite at float32.

    Single-precision inputs are written as they are, bit-exactly; higher
    precision is rounded to float32 on write. A value that is not finite,
    or that is finite but beyond the float32 range, raises FormatError
    before the file is opened, so nothing is written.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise FormatError("feature matrix must be 2-d")
    _check_float32(path, arr)
    _write_payload(path, arr)


def _check_float32(path, matrix: np.ndarray):
    """Raise FormatError unless every value rounds to a finite float32.

    Only the extremes are compared, so no converted copy is made; a NaN
    makes an extreme NaN, which fails both comparisons.
    """
    if matrix.size and not (
        -_FLOAT32_LIMIT < float(matrix.min()) and float(matrix.max()) < _FLOAT32_LIMIT
    ):
        raise FormatError(f"{path}: refusing to write values that are not finite at float32")


def _write_payload(path, matrix: np.ndarray):
    """The header and the float32 payload of a checked 2-d matrix.

    Rows are converted and written `_WRITE_CHUNK_BYTES` of payload at a
    time, so a float64 matrix is never copied whole to float32.
    """
    n_rows, dim = matrix.shape
    step = max(1, _WRITE_CHUNK_BYTES // (4 * max(dim, 1)))
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(FEATURE_MAGIC, n_rows, dim))
        for lo in range(0, n_rows, step):
            handle.write(np.ascontiguousarray(matrix[lo:lo + step], dtype="<f4"))


def read_mask(path, r: InteractionMatrix) -> dict[str, set[int]]:
    """Load per-modality missing-item sets; duplicate lines collapse."""
    index = {item_id: i for i, item_id in enumerate(r.item_ids)}
    items, modalities = _read_records(path, "item_id<TAB>modality_name", index)
    out: dict[str, set[int]] = {}
    for item, modality in zip(items, modalities):
        out.setdefault(modality, set()).add(item)
    return out


def load_feature_set(
    modality_paths: Sequence[tuple[str, str]],
    r: InteractionMatrix,
    mask_path=None,
) -> FeatureSet:
    """Assemble a FeatureSet from per-modality files plus an optional mask."""
    matrices = []
    for name, path in modality_paths:
        mat = read_feature_matrix(path)
        if mat.shape[0] != r.n_items:
            raise InconsistentData(
                f"{path}: {mat.shape[0]} feature rows but the dataset has {r.n_items} items"
            )
        matrices.append((name, mat))
    names = [name for name, _ in matrices]
    masks = None
    if mask_path is not None:
        sets = read_mask(mask_path, r)
        unknown = set(sets) - set(names)
        if unknown:
            raise UnknownModality(
                f"{mask_path}: mask references unknown modalities: {', '.join(sorted(unknown))}"
            )
        masks = {}
        for name, _ in matrices:
            mask = np.zeros(r.n_items, dtype=bool)
            if name in sets:
                mask[sorted(sets[name])] = True
            masks[name] = mask
    return FeatureSet.create(matrices, masks)


def write_feature_set(directory, f: FeatureSet) -> dict[str, str]:
    """Write one .fmat file per modality; returns the file names used.

    Every matrix is checked before the directory or any file is created,
    so a refused matrix leaves nothing written. Payloads are converted
    one modality, and within it one chunk of rows, at a time.
    """
    directory = Path(directory)
    names = {m: f"{m}.fmat" for m in f.modalities}
    for m, name in names.items():
        _check_float32(directory / name, f.matrices[m])
    directory.mkdir(parents=True, exist_ok=True)
    for m, name in names.items():
        _write_payload(directory / name, f.matrices[m])
    return names


def canonicalize_dataset(
    r: InteractionMatrix, f: FeatureSet | None = None
) -> tuple[InteractionMatrix, FeatureSet | None]:
    """Reindex items into canonical order (`first_appearance_order`).

    A dataset in canonical order survives a write/read cycle with
    identical indexing and is returned as is. Items or users without
    interactions cannot be represented in the interaction file and are
    rejected.
    """
    counts_u = np.diff(r.matrix.indptr)
    if (counts_u == 0).any():
        bad = [r.user_ids[u] for u in np.flatnonzero(counts_u == 0)[:5]]
        raise InconsistentData(
            f"users without interactions cannot be serialized: {', '.join(bad)}"
        )
    seen = np.zeros(r.n_items, dtype=bool)
    seen[r.matrix.indices] = True
    if not seen.all():
        bad = [r.item_ids[i] for i in np.flatnonzero(~seen)[:5]]
        raise InconsistentData(
            f"items without interactions cannot be serialized: {', '.join(bad)}"
        )
    order = first_appearance_order(r.matrix)
    if (order == np.arange(r.n_items)).all():
        return r, f
    matrix = r.select(np.arange(r.n_users), order)
    if f is None:
        return matrix, None
    reordered = FeatureSet(
        f.modalities,
        {m: f.matrices[m][order] for m in f.modalities},
        {m: f.masks[m][order] for m in f.modalities},
    )
    return matrix, reordered


def write_dataset(directory, r: InteractionMatrix, f: FeatureSet) -> dict:
    """Write feature files plus interactions in canonical index order.

    The features go first, so a feature set that `write_feature_set`
    refuses leaves no file behind.
    """
    check_row_count(f, r)
    r2, f2 = canonicalize_dataset(r, f)
    feature_files = write_feature_set(directory, f2)
    write_interactions(Path(directory) / "interactions.tsv", r2)
    return {"interactions": "interactions.tsv", "features": feature_files}
