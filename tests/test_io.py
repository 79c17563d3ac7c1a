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
    ParseError,
    UnknownItem,
    UnknownModality,
    build_interaction_matrix,
)
from mmimpute import graph
from mmimpute.graph import InteractionMatrix
from mmimpute.io import (
    _WRITE_CHUNK_BYTES,
    FEATURE_MAGIC,
    _HEADER,
    canonicalize_dataset,
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


def test_write_dataset_rejects_isolated_items(tmp_path):
    r = InteractionMatrix.from_pairs([(0, 0)], 1, 2)
    f = feature_set(np.ones((2, 2)), [False, False])
    with pytest.raises(InconsistentData):
        write_dataset(tmp_path / "ds", r, f)


def test_canonicalize_identity_for_file_data(tmp_path):
    r = interactions_abc(tmp_path)
    r2, _ = canonicalize_dataset(r)
    assert r2 is r


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
    r = read_interactions_text(tmp_path, "".join(f"u1\t{i}\n" for i in IDS))
    kinds = set()
    for case in range(300):
        path.write_bytes(random_text_file(rng, IDS, IDS))
        want = read_outcome(per_line_read_interactions, path)
        assert read_outcome(read_interactions, path) == want, case
        kinds.add(want[0] if isinstance(want[0], type) else "ok")
        path.write_bytes(random_text_file(rng, IDS + ["nope", "zzz"], ["text", "visual"]))
        want = read_outcome(per_line_read_mask, path, r)
        assert read_outcome(read_mask, path, r) == want, case
        kinds.add(want[0] if isinstance(want, tuple) else "ok mask")
    assert kinds == {"ok", "ok mask", ParseError, EmptyDataset, UnknownItem}


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
    assert peak < 2 * _WRITE_CHUNK_BYTES
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
