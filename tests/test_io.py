import inspect
import os
import re
import tracemalloc

import numpy as np
import pytest

from mmimpute import (
    EmptyDataset,
    FeatureSet,
    FormatError,
    InconsistentData,
    InvalidParameter,
    ParseError,
    UnknownItem,
    UnknownModality,
    build_interaction_matrix,
)
from mmimpute import features, graph, io
from mmimpute.features import ROW_BLOCK_ENTRIES
from mmimpute.graph import InteractionMatrix
from mmimpute.io import (
    FEATURE_MAGIC,
    _HEADER,
    load_feature_set,
    read_feature_matrix,
    read_interactions,
    read_mask,
    write_dataset,
    write_feature_matrix,
    write_feature_set,
    write_interactions,
)

from helpers import feature_set, per_line_read_interactions, per_line_read_mask


def test_read_interactions_basic(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ta\nu1\tb\n")
    r = read_interactions(path)
    assert (r.n_users, r.n_items) == (1, 2)


def test_read_interactions_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("# comment\n\nu1\ta\n")
    r = read_interactions(path)
    assert (r.n_users, r.n_items, r.n_interactions) == (1, 1, 1)


def test_read_interactions_space_is_parse_error(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1 a\n")
    with pytest.raises(ParseError) as excinfo:
        read_interactions(path)
    assert ":1:" in str(excinfo.value)


def test_read_interactions_extra_field_is_parse_error(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ta\nu1\ta\tb\n")
    with pytest.raises(ParseError) as excinfo:
        read_interactions(path)
    assert ":2:" in str(excinfo.value)


def test_read_interactions_empty(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("# nothing\n")
    with pytest.raises(EmptyDataset):
        read_interactions(path)


def test_feature_matrix_round_trip(tmp_path):
    path = tmp_path / "m.fmat"
    rng = np.random.default_rng(1)
    # single-precision values round-trip bit-exactly
    matrix = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
    write_feature_matrix(path, matrix)
    again = read_feature_matrix(path)
    assert again.dtype == np.float32
    assert again.astype(np.float64).tobytes() == matrix.tobytes()
    # and the byte stream is a fixed point of write(read(...))
    first = path.read_bytes()
    write_feature_matrix(path, again)
    assert path.read_bytes() == first


def test_feature_matrix_empty_rows(tmp_path):
    path = tmp_path / "m.fmat"
    write_feature_matrix(path, np.zeros((0, 4)))
    assert read_feature_matrix(path).shape == (0, 4)


def test_feature_matrix_truncated(tmp_path):
    # every cut, inside the header and inside the payload, is refused
    path = tmp_path / "m.fmat"
    write_feature_matrix(path, np.ones((3, 2)))
    data = path.read_bytes()
    for size in range(len(data)):
        path.write_bytes(data[:size])
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
            read_feature_matrix(path)


def test_feature_matrix_bad_magic(tmp_path):
    path = tmp_path / "m.fmat"
    write_feature_matrix(path, np.ones((1, 1)))
    data = bytearray(path.read_bytes())
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_feature_matrix(path)


def test_feature_matrix_rejects_nonfinite(tmp_path):
    with pytest.raises(FormatError):
        write_feature_matrix(tmp_path / "m.fmat", np.array([[np.inf]]))


def test_feature_matrix_rejects_float32_overflow(tmp_path):
    # 1e39 is finite in float64 but rounds to inf in float32
    path = tmp_path / "m.fmat"
    with pytest.raises(FormatError, match="not finite at float32"):
        write_feature_matrix(path, np.array([[1e39]]))
    assert not path.exists()


def test_feature_matrix_float32_range_boundary(tmp_path):
    # halfway between the float32 maximum and 2^128, which rounds to inf
    limit = 2.0**128 - 2.0**103
    below = np.nextafter(limit, 0.0)
    path = tmp_path / "m.fmat"
    write_feature_matrix(path, np.array([[below, -below]]))
    top = np.finfo(np.float32).max
    assert read_feature_matrix(path).tolist() == [[top, -top]]
    for bad in (limit, -limit, np.nan):
        with pytest.raises(FormatError, match="not finite at float32"):
            write_feature_matrix(tmp_path / "bad.fmat", np.array([[0.0, bad]]))
    assert not (tmp_path / "bad.fmat").exists()


@pytest.mark.parametrize("writer", ["write_feature_set", "write_dataset"])
def test_refused_modality_writes_no_file(tmp_path, writer):
    # the good modality comes first, so writing as it goes would leave it behind
    r = InteractionMatrix.from_pairs([(0, 0), (0, 1)], 1, 2)
    f = FeatureSet.create([("good", np.ones((2, 2))), ("bad", np.full((2, 2), 1e39))])
    out = tmp_path / "out"
    with pytest.raises(FormatError, match=r"bad\.fmat: refusing to write values"):
        if writer == "write_feature_set":
            write_feature_set(out, f)
        else:
            write_dataset(out, r, f)
    assert not out.exists()


def read_interactions_text(tmp_path, text):
    path = tmp_path / "r.tsv"
    path.write_text(text, encoding="utf-8")
    return read_interactions(path)


def interactions_abc(tmp_path):
    return read_interactions_text(tmp_path, "u1\ta\nu1\tb\nu2\tc\n")


def test_read_mask_resolves_ids(tmp_path):
    r = interactions_abc(tmp_path)
    mask_path = tmp_path / "mask.tsv"
    mask_path.write_text("a\ttext\na\ttext\nc\tvisual\n")
    sets = read_mask(mask_path, r)
    assert sets == {"text": {0}, "visual": {2}}


def test_read_mask_unknown_item(tmp_path):
    r = interactions_abc(tmp_path)
    mask_path = tmp_path / "mask.tsv"
    mask_path.write_text("zzz\ttext\n")
    with pytest.raises(UnknownItem) as excinfo:
        read_mask(mask_path, r)
    assert ":1:" in str(excinfo.value)


def test_load_feature_set_applies_mask_and_checks(tmp_path):
    r = interactions_abc(tmp_path)
    fpath = tmp_path / "text.fmat"
    write_feature_matrix(fpath, np.arange(6, dtype=float).reshape(3, 2))
    mask_path = tmp_path / "mask.tsv"
    mask_path.write_text("b\ttext\n")
    f = load_feature_set([("text", fpath)], r, mask_path)
    assert f.masks["text"].tolist() == [False, True, False]

    bad = tmp_path / "short.fmat"
    write_feature_matrix(bad, np.zeros((2, 2)))
    with pytest.raises(InconsistentData):
        load_feature_set([("text", bad)], r)

    mask_path.write_text("b\taudio\n")
    with pytest.raises(UnknownModality):
        load_feature_set([("text", fpath)], r, mask_path)


def test_write_dataset_round_trip(tmp_path):
    # an entry order whose first appearances disagree with index order
    r = InteractionMatrix.from_pairs([(0, 2), (0, 0), (1, 1), (1, 2)], 2, 3)
    f = feature_set(np.arange(12, dtype=np.float32).reshape(3, 4), [False] * 3)
    out = tmp_path / "ds"
    write_dataset(out, r, f)
    r2 = read_interactions(out / "interactions.tsv")
    m2 = read_feature_matrix(out / "m.fmat")
    # re-read indexing matches the written feature rows: the row for an
    # item id must equal the original row for that id
    for new_idx, item_id in enumerate(r2.item_ids):
        old_idx = r.item_ids.index(item_id)
        assert np.array_equal(m2[new_idx], f.matrices["m"][old_idx])
    # row-major traversal visits u0's items in index order, so the
    # first-appearance order is i0, i2, i1
    assert r2.item_ids == ("i0", "i2", "i1")
    assert np.array_equal(r2.matrix.toarray(), r.matrix.toarray()[:, [0, 2, 1]])


@pytest.mark.parametrize("chunk_bytes", [40, 4 * ROW_BLOCK_ENTRIES])
def test_write_dataset_of_rows_writes_what_a_selected_set_writes(tmp_path, monkeypatch, chunk_bytes):
    # rows are gathered a chunk of float32 payload at a time, composed with the canonical order
    monkeypatch.setattr(features, "ROW_BLOCK_ENTRIES", chunk_bytes // 4)
    rng = np.random.default_rng(23)
    users = rng.integers(0, 8, 60)
    r = InteractionMatrix.from_pairs(zip(users, np.arange(60) % 25), 8, 25)
    assert io._canonical_order(r) is not None  # the rows must be reordered
    f = FeatureSet.create(
        [("t", rng.standard_normal((40, 3)).astype(np.float32)), ("v", rng.standard_normal((40, 5)))],
        {"t": rng.random(40) < 0.3, "v": np.zeros(40, dtype=bool)},
    )
    rows = rng.permutation(40)[:25]
    files = write_dataset(tmp_path / "rows", r, f, rows)
    assert write_dataset(tmp_path / "set", r, f.select(rows)) == files
    for name in ["interactions.tsv", *files["features"].values()]:
        assert (tmp_path / "rows" / name).read_bytes() == (tmp_path / "set" / name).read_bytes()


def test_write_dataset_checks_only_the_rows_it_writes(tmp_path):
    # canonical order is items 0, 2, 1; row 3 holds a value beyond float32
    r = InteractionMatrix.from_pairs([(0, 2), (0, 0), (1, 1)], 2, 3)
    matrix = np.arange(8.0).reshape(4, 2)
    matrix[3, 1] = 1e39
    f = feature_set(matrix, [False] * 4)
    write_dataset(tmp_path / "ok", r, f, [2, 0, 1])
    assert read_feature_matrix(tmp_path / "ok" / "m.fmat").tolist() == matrix[[2, 1, 0]].tolist()
    with pytest.raises(FormatError, match=r"m\.fmat: refusing to write values"):
        write_dataset(tmp_path / "bad", r, f, [2, 0, 3])
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("dtype, bad", [(np.float32, np.inf), (np.float64, 1e39)])
def test_refused_write_gathers_no_rows(tmp_path, dtype, bad):
    # the value beyond float32 is in the last row written; one gathered row
    # block (1,024 rows of 256 values) would take 1 MiB (float32) or 2 MiB
    r = InteractionMatrix.from_pairs([(i, i) for i in range(8000)], 8000, 8000)
    matrix = np.ones((8001, 256), dtype=dtype)
    matrix[8000, 5] = bad
    f = FeatureSet.create([("m", matrix)])
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"m\.fmat: refusing to write values"):
            write_dataset(tmp_path / "out", r, f, np.arange(1, 8001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19, peak
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rows",
    [[0, 1], [0, 1, 2, 0], [[0, 1, 2]], [0, -1, 2], [0, 1, 4], [True, False, True], [0.0, 1.0, 2.0]],
)
def test_write_dataset_refuses_rows_that_do_not_name_a_row_per_item(tmp_path, rows):
    r = InteractionMatrix.from_pairs([(0, 2), (0, 0), (1, 1)], 2, 3)
    f = feature_set(np.ones((4, 2)), [False] * 4)
    with pytest.raises(InconsistentData, match="name one of the 4 feature rows for each of 3 items"):
        write_dataset(tmp_path / "ds", r, f, rows)
    assert not (tmp_path / "ds").exists()


def test_write_dataset_rejects_isolated_items(tmp_path):
    r = InteractionMatrix.from_pairs([(0, 0)], 1, 2)
    f = feature_set(np.ones((2, 2)), [False, False])
    with pytest.raises(InconsistentData):
        write_dataset(tmp_path / "ds", r, f)


def test_canonicalize_identity_for_file_data(tmp_path):
    r = interactions_abc(tmp_path)
    assert io._canonical_order(r) is None


def test_write_interactions_round_trip(tmp_path):
    r = interactions_abc(tmp_path)
    out = tmp_path / "again.tsv"
    write_interactions(out, r)
    r2 = read_interactions(out)
    assert r2.user_ids == r.user_ids
    assert r2.item_ids == r.item_ids
    assert np.array_equal(r2.matrix.toarray(), r.matrix.toarray())


def test_read_interactions_strips_byte_order_mark(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_bytes(b"\xef\xbb\xbfu1\ta\nu1\tb\nu2\tc\n")
    r = read_interactions(path)
    assert r.user_ids == ("u1", "u2")
    assert r.item_ids == ("a", "b", "c")


def test_mask_line_of_an_item_id_starting_with_hash_is_refused(tmp_path):
    # read as a comment, the line would leave item '#a' observed with its zero placeholder
    r = read_interactions_text(tmp_path, "u1\t#a\nu1\tb\nu2\tb\nu2\tc\n")
    write_feature_matrix(tmp_path / "text.fmat", np.zeros((3, 2)))
    mask_path = tmp_path / "mask.tsv"
    mask_path.write_text("# masked items\n#a\ttext\nc\ttext\nzzz\ttext\n")
    with pytest.raises(ParseError, match=r"mask\.tsv:2: item id '#a' starts with '#'"):
        load_feature_set([("text", tmp_path / "text.fmat")], r, mask_path)
    mask_path.write_text("zzz\ttext\n #a\n")  # the first bad line wins
    with pytest.raises(UnknownItem, match=r"mask\.tsv:1:"):
        read_mask(mask_path, r)
    mask_path.write_text("#b\ttext\n# c\ttext\nc\ttext\n")  # comments that name no item
    assert read_mask(mask_path, r) == {"text": {2}}


@pytest.mark.parametrize(
    "reader, data, error, message",
    [
        ("interactions", b"u1\ta\nu1\tb\xff\tc\n", ParseError, ":2: not UTF-8 text"),
        ("mask", b"b\ttext\n#a\ttext\t\xff\n", ParseError, ":2: not UTF-8 text"),
        (
            "mask", b"b\ttext\n#a\ttext\tx\n", ParseError,
            ":2: item id '#a' starts with '#', which marks a comment",
        ),
        (
            "mask", b"zzz\ttext\tx\n", ParseError,
            ":1: expected 'item_id<TAB>modality_name', got 'zzz\\ttext\\tx'",
        ),
        ("mask", b"zzz\ttext\n#a\ttext\n\xff\n", UnknownItem, ":1: unknown item id 'zzz'"),
        (
            "interactions", b"u1 a\nu1\tb\xff\n", ParseError,
            ":1: expected 'user_id<TAB>item_id', got 'u1 a'",
        ),
    ],
    ids=[
        "bad-byte-before-fields", "bad-byte-before-comment", "comment-before-fields",
        "fields-before-unknown", "first-line-wins-mask", "first-line-wins-interactions",
    ],
)
def test_parse_errors_follow_line_order_then_check_order(tmp_path, reader, data, error, message):
    r = read_interactions_text(tmp_path, "u1\t#a\nu1\tb\n")
    path = tmp_path / "data.tsv"
    path.write_bytes(data)
    with pytest.raises(error) as excinfo:
        read_interactions(path) if reader == "interactions" else read_mask(path, r)
    assert str(excinfo.value) == f"{path}{message}"


def test_a_good_interactions_file_is_split_without_the_line_walker(tmp_path, monkeypatch):
    # the walker is for bad files only: large good ones stay on the bulk split
    def walker(*args):
        raise AssertionError("the line walker was reached")

    monkeypatch.setattr("mmimpute.io._records", walker)
    path = tmp_path / "r.tsv"
    path.write_bytes(
        b"\xef\xbb\xbf# users\tand items\r\n\r\n u1\ta \r\nu1\t\xc3\xa9\r\n  # indented\r\nu2\ta\r\n"
    )
    r = read_interactions(path)
    assert (r.user_ids, r.item_ids) == (("u1", "u2"), ("a", "é"))
    assert r.matrix.toarray().tolist() == [[1, 1], [1, 0]]
    path.write_bytes(b"u1\ta\tb\n")  # a bad file does reach it
    with pytest.raises(AssertionError, match="walker was reached"):
        read_interactions(path)


def test_read_mask_strips_byte_order_mark(tmp_path):
    r = interactions_abc(tmp_path)
    mask_path = tmp_path / "mask.tsv"
    mask_path.write_bytes(b"\xef\xbb\xbfb\ttext\n")
    assert read_mask(mask_path, r) == {"text": {1}}


IDS = ["u1", "u2", "a", "b", "c", "item-7", "é", "日本", "x y", "q\x85r", "s t"]
PADDING = ["", " ", "  ", "\x0b", "\x0c", "\u3000", "\x1c", "\x85"]
FILLER = ["", " ", "\t", "#", "# comment", "  # indented\tcomment", "#\xe9t\xe9"]
BAD_BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82", b"\x80abc"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def random_text_file(rng, first_ids, second_ids):
    """Two-column text with comments, blanks, padding and mixed line ends,
    corrupted about half the time."""
    lines = []
    for _ in range(int(rng.integers(0, 25))):
        if rng.random() < 0.25:
            lines.append(str(rng.choice(FILLER)))
            continue
        pad = [str(rng.choice(PADDING)) for _ in range(4)]
        first, second = str(rng.choice(first_ids)), str(rng.choice(second_ids))
        lines.append(f"{pad[0]}{first}{pad[1]}\t{pad[2]}{second}{pad[3]}")
        if rng.random() < 0.2:
            lines.append(lines[-1])  # duplicate line
    if lines and rng.random() < 0.5:
        k = int(rng.integers(0, len(lines)))
        corrupt = [
            lambda line: line + "\tz",  # an extra tab
            lambda line: line.split("\t")[0] + "\t",  # an empty field
            lambda line: "\t" + line.split("\t")[-1],  # an empty field
            lambda line: line.replace("\t", " "),  # no tab
        ]
        lines[k] = corrupt[int(rng.integers(0, len(corrupt)))](lines[k])
    encoded = [line.encode("utf-8") for line in lines]
    if encoded and rng.random() < 0.3:
        k = int(rng.integers(0, len(encoded)))
        cut = int(rng.integers(0, len(encoded[k]) + 1))
        encoded[k] = encoded[k][:cut] + rng.choice(BAD_BYTES) + encoded[k][cut:]
    ends = [str(rng.choice(LINE_ENDS)).encode() for _ in encoded]
    body = b"".join(line + end for line, end in zip(encoded, ends))
    if body and rng.random() < 0.3:
        body = body.rstrip(b"\r\n")  # no final line end
    return body


def read_outcome(read, *args):
    try:
        result = read(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, InteractionMatrix):
        m = result.matrix
        return result.user_ids, result.item_ids, [(a.dtype, a.tobytes()) for a in (m.indptr, m.indices, m.data)]
    return result


def test_bulk_reader_matches_per_line_oracle(tmp_path):
    rng = np.random.default_rng(31337)
    path = tmp_path / "data.tsv"
    # an item id starting with '#' makes its mask line read as a comment
    r = read_interactions_text(tmp_path, "".join(f"u1\t{i}\n" for i in IDS + ["#h"]))
    kinds = set()
    for case in range(300):
        path.write_bytes(random_text_file(rng, IDS, IDS))
        want = read_outcome(per_line_read_interactions, path)
        assert read_outcome(read_interactions, path) == want, case
        kinds.add(want[0] if isinstance(want[0], type) else "ok")
        path.write_bytes(random_text_file(rng, IDS + ["#h", "nope", "zzz"], ["text", "visual"]))
        want = read_outcome(per_line_read_mask, path, r)
        assert read_outcome(read_mask, path, r) == want, case
        kinds.add(want[0] if isinstance(want, tuple) else "ok mask")
        if isinstance(want, tuple) and "'#h'" in want[1]:
            kinds.add("#h")
    assert kinds == {"ok", "ok mask", "#h", ParseError, EmptyDataset, UnknownItem}


def test_read_ids_are_compact_copies(tmp_path):
    # the ids kept are copies made once they are de-duplicated, not strings
    # of the bulk split, so the parse's strings all die with its lists
    path = tmp_path / "data.tsv"
    path.write_text(
        "# ids\n" + "".join(f" {u}\t{i}\r\n" for u in IDS for i in reversed(IDS)), encoding="utf-8"
    )
    tracemalloc.start(1)
    try:
        r = read_interactions(path)
        # one-character latin-1 strings are shared singletons, allocated by no one
        frames = {tracemalloc.get_object_traceback(s)[0] for s in r.user_ids + r.item_ids if len(s) > 1}
    finally:
        tracemalloc.stop()
    assert (r.user_ids, r.item_ids) == (tuple(IDS), tuple(reversed(IDS)))
    assert read_outcome(read_interactions, path) == read_outcome(per_line_read_interactions, path)
    source, first = inspect.getsourcelines(graph._compact_copy)
    assert {(f.filename, first <= f.lineno < first + len(source)) for f in frames} == {
        (graph.__file__, True)
    }
    # ids built in memory may hold any character, the separators of the file format too
    users, items = ["u\t1", "u\n2", "#u3", "", "u\t1"], ["", "#", "a\tb\n", "#", "x y"]
    r = build_interaction_matrix(zip(users, items))
    assert r.user_ids == ("u\t1", "u\n2", "#u3", "")
    assert r.item_ids == ("", "#", "a\tb\n", "x y")
    assert r.matrix.toarray().tolist() == [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]]
    assert build_interaction_matrix([(1, 2), (3, 2)]).user_ids == (1, 3)  # not strings: kept as given


def test_feature_matrix_is_converted_a_chunk_at_a_time(tmp_path):
    # a float64 matrix is never copied whole to float32 on write
    path = tmp_path / "m.fmat"
    matrix = np.random.default_rng(2).standard_normal((4001, 300))  # 4.8 MB as float32
    tracemalloc.start()
    try:
        write_feature_matrix(path, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 4 * ROW_BLOCK_ENTRIES  # two blocks of float32 payload
    assert path.read_bytes() == _HEADER.pack(FEATURE_MAGIC, 4001, 300) + matrix.astype("<f4").tobytes()
    write_feature_matrix(path, np.zeros((3, 0)))
    assert read_feature_matrix(path).shape == (3, 0)


def test_feature_matrix_huge_header_fails_before_allocating(tmp_path):
    path = tmp_path / "m.fmat"
    path.write_bytes(_HEADER.pack(FEATURE_MAGIC, 2**62, 2**62) + b"\0" * 8)
    with pytest.raises(FormatError, match=f"payload is 8 bytes, expected {2**62} x {2**62} x 4"):
        read_feature_matrix(path)


def test_feature_matrix_keeps_float32_bits(tmp_path):
    path = tmp_path / "m.fmat"
    # every bit pattern survives, signed zeros and subnormals included
    bits = np.array([0, 0x80000000, 1, 0x7F7FFFFF, 0x3F800000, 0xC0490FDB], dtype=np.uint32)
    matrix = bits.view(np.float32).reshape(3, 2)
    write_feature_matrix(path, matrix)
    assert path.read_bytes()[_HEADER.size:] == bits.astype("<u4").tobytes()
    again = read_feature_matrix(path)
    assert again.dtype == np.float32 and again.tobytes() == matrix.tobytes()


def test_feature_matrix_pipe_is_format_error(tmp_path):
    # a pipe has no size to check before allocating
    path = tmp_path / "m.fmat"
    os.mkfifo(path)
    fd = os.open(path, os.O_RDWR | os.O_NONBLOCK)  # holds the pipe open, so reads do not block
    try:
        os.write(fd, _HEADER.pack(FEATURE_MAGIC, 1, 1) + b"\0" * 4)
        with pytest.raises(FormatError, match="not a regular file"):
            read_feature_matrix(path)
    finally:
        os.close(fd)


@pytest.mark.parametrize("name", ["", "../outside", "sub/dir", "nul\0byte"])
def test_write_feature_set_refuses_a_name_that_is_not_a_file_name(tmp_path, name):
    # the name is checked before the values: this matrix would be refused too
    f = FeatureSet.create([("ok", np.zeros((2, 1))), (name, np.full((2, 1), np.inf))])
    with pytest.raises(InvalidParameter, match=r"^bad modality name .*: it must be non-empty"):
        write_feature_set(tmp_path / "out", f)
    assert list(tmp_path.iterdir()) == []


def test_write_feature_matrix_refuses_a_1d_array(tmp_path):
    with pytest.raises(FormatError, match=r"^feature matrix must be 2-d$"):
        write_feature_matrix(tmp_path / "v.fmat", np.zeros(3))
    assert list(tmp_path.iterdir()) == []


def test_write_dataset_reorders_the_items(tmp_path):
    # item "b" appears first in the entry stream but has index 1
    r = InteractionMatrix.from_pairs([(0, 1), (1, 0)], 2, 2, item_ids=("a", "b"))
    assert io._canonical_order(r).tolist() == [1, 0]
    write_dataset(tmp_path, r, feature_set([[1.0], [2.0]], [False, False]))
    canonical = read_interactions(tmp_path / "interactions.tsv")
    assert canonical.item_ids == ("b", "a")
    assert canonical.user_ids == r.user_ids
    assert canonical.matrix.toarray().tolist() == [[1, 0], [0, 1]]
    assert read_feature_matrix(tmp_path / "m.fmat").tolist() == [[2.0], [1.0]]


@pytest.mark.parametrize(
    "pairs, message",
    [
        # read back as a comment: 3 interactions would become 2
        ([("#u1", "a"), ("#u1", "b"), ("u2", "c")], r"user id '#u1' starts with '#'"),
        # read back as the user "u1"
        ([(" u1", "a"), ("u1", "b"), ("u2", "c")], r"user id ' u1' starts or ends with whitespace"),
        ([("u1", "a"), ("u2", "b\t"), ("u2", "c")], r"item id 'b\\t' holds a tab"),
        ([("", "a"), ("u1", "b")], r"user id '' is empty"),
        ([("u1", "")], r"item id '' is empty"),
        ([("u\t1", "a")], r"user id 'u\\t1' holds a tab or a line break"),
        ([("u1", "a\nb")], r"item id 'a\\nb' holds a tab or a line break"),
        # text mode reads a lone carriage return as a line end
        ([("u1", "a\rb")], r"item id 'a\\rb' holds a tab or a line break"),
        # the first line's leading byte-order mark is dropped
        ([("\ufeffu1", "a"), ("u2", "b")], r"user id '\\ufeffu1' starts with a byte-order mark"),
        ([("u1", "a"), ("u\udc80", "b")], r"user id 'u\\udc80' cannot be encoded as UTF-8"),
        # the first bad id is named, users before items
        ([("u1", " a"), ("u2 ", "b"), ("#u3", "c")], r"user id 'u2 ' starts or ends"),
    ],
)
def test_write_dataset_refuses_ids_that_do_not_read_back(tmp_path, pairs, message):
    r = build_interaction_matrix(pairs)
    f = feature_set(np.ones((r.n_items, 2)), [False] * r.n_items)
    with pytest.raises(FormatError, match=rf"^{message}.*, so it would not read back as itself$"):
        write_dataset(tmp_path / "ds", r, f)
    assert list(tmp_path.iterdir()) == []


def test_write_dataset_keeps_ids_that_read_back(tmp_path):
    # an item id may start with '#', since a line starts with its user id,
    # and a user id after the first with a byte-order mark; inner spaces
    # and non-ASCII text stay
    pairs = [("u 1", "#a"), ("u 1", "\ufeffb"), ("\ufeffü", "ç c"), ("u\x00", "a\x0bb")]
    r = build_interaction_matrix(pairs)
    f = feature_set(np.ones((r.n_items, 1)), [False] * r.n_items)
    write_dataset(tmp_path, r, f)
    r2 = read_interactions(tmp_path / "interactions.tsv")
    assert r2.user_ids == r.user_ids and r2.item_ids == r.item_ids
    assert np.array_equal(r2.matrix.toarray(), r.matrix.toarray())
