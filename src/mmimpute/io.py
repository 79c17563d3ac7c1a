"""File formats and dataset round-tripping.

Interactions are UTF-8 text, one "user_id<TAB>item_id" per line; blank
lines, lines starting with '#' and a leading byte-order mark are
ignored. Masks are text, one "item_id<TAB>modality_name" per line,
resolved against the interaction vocabulary; a comment line whose first
field is a known item id is refused, as that item's id starts with '#'.
Every parse error of a text file names its line, and the first bad line
in file order raises; within one line the checks run in this order:
bytes that are not UTF-8, a mask comment that names a known item, a line
that is not two tab-separated fields (all ParseError), then an unknown
item id (UnknownItem). Feature matrices use a little-endian binary
format: the 8-byte magic "FMATv1\\0\\0", two u64 dimensions (rows,
columns), then the float32 row-major payload. They load as float32 and
stay float32 through dropping and reordering; a float32 matrix is
written without conversion.

Feature rows are keyed by item index, i.e. by first appearance of the
item id in the interactions file. `write_dataset` writes in the
canonical order owned by `graph.first_appearance_order`, so a written
dataset re-reads with identical indexing. It is the only code that puts
a dataset in canonical order: it composes the order into the feature
rows it gathers as it writes, and no reordered copy is made. (To reorder
in memory, take `order = first_appearance_order(r.matrix)`, then
`r.select(np.arange(r.n_users), order)` and `f.select(order)`.)
Values are checked by each written row's `features.row_extremes`, and
payloads gathered and written one `features.row_blocks` block, 2^18
entries, at a time. An input that cannot be read raises
ParseError (text) or FormatError (.fmat). A feature set with a value
that does not fit float32 is refused before any of its files, or the
interactions written with it, is created, and so is an id that would
not read back as itself (`_check_ids`).
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
from .features import FeatureSet, check_modality_name, check_row_count, row_blocks, row_extremes
from .graph import InteractionMatrix, first_appearance_order, interactions_from_ids

FEATURE_MAGIC = b"FMATv1\x00\x00"
_HEADER = struct.Struct("<8sQQ")
# The least magnitude that rounds to float32 infinity: halfway between the
# float32 maximum (2^128 - 2^104) and 2^128, where round-to-even goes up.
_FLOAT32_LIMIT = 2.0**128 - 2.0**103
# Interaction lines formatted and written at a time by `write_interactions`.
_WRITE_CHUNK_LINES = 2**14


def _read_text(path) -> str:
    """A text file without its byte-order mark; bytes that are not UTF-8 become lone surrogates."""
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from None


def _records(path, text: str, what: str, known: dict[str, int] | None = None):
    """Yield (first field, or its value in `known`, second field) for each data line.

    Lines and fields are stripped, and blank and '#' lines skipped. The
    first bad line raises, in the order the module docstring gives.
    """
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not (raw.isascii() or _encodes(raw)):
            raise ParseError(f"{path}:{lineno}: not UTF-8 text")
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            item = line.split("\t", 1)[0].strip()
            if known is not None and item in known:
                raise ParseError(
                    f"{path}:{lineno}: item id '{item}' starts with '#', which marks a comment"
                )
            continue
        if line.count("\t") != 1:
            raise ParseError(f"{path}:{lineno}: expected '{what}', got {line!r}")
        # a stripped line neither starts nor ends with its tab: no field is empty
        first, second = map(str.strip, line.split("\t"))
        if known is not None and first not in known:
            raise UnknownItem(f"{path}:{lineno}: unknown item id '{first}'")
        yield (first if known is None else known[first]), second


def _split_interactions(path) -> tuple[list[str], list[str]]:
    """The user and item fields of an interactions file, split in bulk.

    The text and its lines are freed before the fields are made, so the
    three are never held at once. A text with a bad line is walked by
    `_records`, which raises at the first.
    """
    text = _read_text(path)
    lines = [line for line in map(str.strip, text.split("\n")) if line and line[0] != "#"]
    one_tab = list(map(str.count, lines, repeat("\t"))).count(1)
    if one_tab != len(lines) or not (text.isascii() or _encodes(text)):
        for _ in _records(path, text, "user_id<TAB>item_id"):
            pass
    joined = "\t".join(lines)
    del text, lines
    fields = list(map(str.strip, joined.split("\t"))) if joined else []
    return fields[0::2], fields[1::2]


def read_interactions(path) -> InteractionMatrix:
    """Load a user/item pair file, indexing ids by first appearance.

    The ids kept are compact copies of the parsed ones: the split makes one
    string per field, and the few that would survive it would keep most of
    the parse's memory from being returned (see
    `graph._index_by_first_appearance`).
    """
    users, items = _split_interactions(path)
    if not users:
        raise EmptyDataset(f"{path}: no interactions")
    return interactions_from_ids(users, items)


def _id_problem(ident: str, user: bool) -> str | None:
    """Why an id would not read back as itself from an interactions file, or None."""
    if not ident:
        return "is empty"
    # text mode reads a lone carriage return as a line end
    if "\t" in ident or "\n" in ident or "\r" in ident:
        return "holds a tab or a line break"
    if ident != ident.strip():
        return "starts or ends with whitespace"
    if user and ident[0] == "#":
        return "starts with '#'"
    if not (ident.isascii() or _encodes(ident)):
        return "cannot be encoded as UTF-8"
    return None


def _encodes(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_ids(r: InteractionMatrix):
    """Raise FormatError naming the first id that would not read back as itself.

    `read_interactions` strips fields, splits lines at tabs, skips lines
    that start with '#', reads UTF-8 and drops a byte-order mark that
    starts the file. So `_id_problem` refuses ids that are empty, hold a
    tab or a line break, start or end with whitespace or are not UTF-8,
    and user ids that start with '#'; the first user id, whose line
    starts the file, may not start with a byte-order mark either. Users
    are checked before items, each in index order.
    """
    if r.user_ids and r.user_ids[0].startswith("\ufeff"):
        raise FormatError(
            f"user id {r.user_ids[0]!r} starts with a byte-order mark, which is dropped "
            "at the start of a file, so it would not read back as itself"
        )
    for kind, ids in (("user", r.user_ids), ("item", r.item_ids)):
        for ident in ids:
            problem = _id_problem(ident, kind == "user")
            if problem is not None:
                raise FormatError(
                    f"{kind} id {ident!r} {problem}, so it would not read back as itself"
                )


def write_interactions(path, r: InteractionMatrix):
    """One "user_id<TAB>item_id" line per entry, in row-major order.

    The ids are written as they are; `write_dataset` checks them first.
    Lines are made and written `_WRITE_CHUNK_LINES` at a time.
    """
    indptr, indices = r.matrix.indptr, r.matrix.indices
    with open(path, "w", encoding="utf-8") as handle:
        for lo in range(0, indices.size, _WRITE_CHUNK_LINES):
            entries = np.arange(lo, min(lo + _WRITE_CHUNK_LINES, indices.size))
            users = np.searchsorted(indptr, entries, side="right") - 1
            handle.write("".join([
                f"{r.user_ids[u]}\t{r.item_ids[i]}\n"
                for u, i in zip(users.tolist(), indices[entries].tolist())
            ]))


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


def _check_float32(path, matrix: np.ndarray, rows=None):
    """Raise FormatError unless every value written rounds to a finite float32.

    Only the rows written, all or `rows`, are checked, by their
    `features.row_extremes`, so no row is gathered or converted; a NaN
    makes an extreme NaN, which fails both comparisons.
    """
    lo, hi = row_extremes(matrix)
    if rows is not None:
        lo, hi = lo[rows], hi[rows]
    # float() first: the limit cast to a float32 extreme's type would overflow
    if not (-_FLOAT32_LIMIT < float(lo.min(initial=0.0))
            and float(hi.max(initial=0.0)) < _FLOAT32_LIMIT):
        raise FormatError(f"{path}: refusing to write values that are not finite at float32")


def _write_payload(path, matrix: np.ndarray, rows=None):
    """The header and the float32 payload of the checked rows written, all or `rows`.

    Rows are gathered, converted and written one `features.row_blocks`
    block at a time, so a float64 matrix is never copied whole to
    float32, nor a selection of rows gathered whole.
    """
    n_rows = matrix.shape[0] if rows is None else len(rows)
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(FEATURE_MAGIC, n_rows, matrix.shape[1]))
        for block in row_blocks(n_rows, matrix.shape[1]):
            index = block if rows is None else rows[block]
            handle.write(np.ascontiguousarray(matrix[index], dtype="<f4"))


def read_mask(path, r: InteractionMatrix) -> dict[str, set[int]]:
    """Load per-modality missing-item sets; duplicate lines collapse."""
    index = {item_id: i for i, item_id in enumerate(r.item_ids)}
    out: dict[str, set[int]] = {}
    for item, modality in _records(path, _read_text(path), "item_id<TAB>modality_name", index):
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


def write_feature_set(directory, f: FeatureSet, rows=None) -> dict[str, str]:
    """Write one .fmat file per modality; returns the file names used.

    With `rows`, file row i holds row `rows[i]` of each matrix, gathered
    as it is written, and only those rows are checked. Every modality
    name (`check_modality_name`), then every matrix, is checked before
    the directory or any file is created, so a refused name or matrix
    leaves nothing written, and no file lands outside `directory`.
    Payloads are converted one modality, and within it one chunk of
    rows, at a time.
    """
    for m in f.modalities:
        check_modality_name(m)
    directory = Path(directory)
    names = {m: f"{m}.fmat" for m in f.modalities}
    for m, name in names.items():
        _check_float32(directory / name, f.matrices[m], rows)
    directory.mkdir(parents=True, exist_ok=True)
    for m, name in names.items():
        _write_payload(directory / name, f.matrices[m], rows)
    return names


def _canonical_order(r: InteractionMatrix) -> np.ndarray | None:
    """The old index of each item in canonical order, or None if `r` is canonical already.

    Items or users without interactions cannot be represented in the
    interaction file and are rejected.
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
    return None if (order == np.arange(r.n_items)).all() else order


def write_dataset(directory, r: InteractionMatrix, f: FeatureSet, rows=None) -> dict:
    """Write feature files plus interactions in canonical index order.

    `rows[i]`, when given, is the row of `f` that holds item i of `r`
    (the `items` that `evaluate.drop_missing` returns); `rows` must be
    integers, one in-range row per item. Without it, row i does. This is
    the one place a dataset is put in canonical order: the order is
    composed into the rows gathered as they are written, so no reordered
    copy of the features is made. The ids (`_check_ids`)
    are checked first and the features written next, so ids or a
    feature set that `write_feature_set` refuses leave no file behind.
    """
    if rows is None:
        check_row_count(f, r)
    else:
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu" or rows.shape != (r.n_items,) or rows.size and not (
            0 <= rows.min() and rows.max() < f.n_items
        ):
            raise InconsistentData(
                f"rows must name one of the {f.n_items} feature rows for each of {r.n_items} items"
            )
    _check_ids(r)
    order = _canonical_order(r)
    if order is not None:
        r = r.select(np.arange(r.n_users), order)
        rows = order if rows is None else rows[order]
    feature_files = write_feature_set(directory, f, rows)
    write_interactions(Path(directory) / "interactions.tsv", r)
    return {"interactions": "interactions.tsv", "features": feature_files}
