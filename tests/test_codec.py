"""Codec kernel tests — graft of the SIMD-vs-scalar distance tests
(/root/reference/include/flatnav/tests/test_distances.cpp:37-70) and the
FIXTURES.md §5 kernel fixtures."""

import numpy as np
import pytest

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from flatnav_ray.functions.codec import (
    BLOCK_SIZE,
    TF_CODEC,
    TF_CODEC_KEY,
    TF_WIDTHS,
    binary_views,
    decode_postings,
    decode_postings_rows,
    decode_varint,
    encode_segment_table,
    encode_varint,
    encode_varint_with_lens,
    packed_tf,
)


def scalar_varint_encode(vals):
    out = bytearray()
    for v in vals:
        v = int(v)
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    return bytes(out)


@pytest.mark.parametrize(
    "vals",
    [
        [],
        [0],
        [1],
        [127, 128, 129],
        [2**63 - 1, 0, 2**62],
        list(range(1000)),
    ],
)
def test_varint_round_trip_and_scalar_parity(vals):
    arr = np.array(vals, dtype=np.uint64)
    blob = encode_varint(arr)
    assert blob == scalar_varint_encode(vals)
    assert np.array_equal(decode_varint(blob), arr)


def test_varint_random_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        vals = rng.integers(0, 2**63, size=2000).astype(np.uint64)
        assert np.array_equal(decode_varint(encode_varint(vals)), vals)


def encode_one(ids, tfs, block_size=BLOCK_SIZE):
    """One term's posting list through the segment encoder: its two blobs."""
    cols, tb, te = encode_segment_table(np.zeros(ids.size, np.int8), ids, tfs, block_size)
    assert cols["df"].to_pylist() == [ids.size] and tb.tolist() == [0] and te.tolist() == [ids.size]
    return cols["doc_blob"][0].as_py(), cols["tf_blob"][0].as_py()


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1000, 5000])
def test_postings_round_trip(n):
    # ids up to 2**62: the encoder's uint64 delta path
    rng = np.random.default_rng(n)
    ids = np.sort(rng.choice(2**62, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 100, n).astype(np.int64)
    d, t = decode_postings(*encode_one(ids, tfs))
    assert np.array_equal(d, ids)
    assert np.array_equal(t, tfs)


def test_dense_run_compression():
    """Dense doc_id runs should compress to ~1 byte per posting."""
    ids = np.arange(10_000, dtype=np.int64)
    tfs = np.ones(10_000, dtype=np.int64)
    doc_blob, _ = encode_one(ids, tfs)
    assert len(doc_blob) < 11_000


# ---- the bit-packed tf stream -------------------------------------------


def _segment(dfs, tfs, block_size=BLOCK_SIZE, seed=0):
    """A segment of one posting list per entry of `dfs` with tfs `tfs` laid
    end to end (random increasing docmap positions): (its encoded columns,
    the positions)."""
    rng = np.random.default_rng(seed)
    dfs = np.asarray(dfs, dtype=np.int64)
    pos = np.concatenate([np.sort(rng.choice(max(2 * d, 1000), d, replace=False)) for d in dfs])
    terms = np.repeat(np.arange(dfs.size), dfs)
    cols, tb, te = encode_segment_table(terms, pos, np.asarray(tfs, np.int64), block_size)
    assert np.array_equal(te - tb, dfs)
    return cols, pos


def _views(cols):
    dfs = cols["df"].to_numpy().astype(np.int64)
    return dfs, *binary_views(cols["doc_blob"]), *binary_views(cols["tf_blob"])


def _check_every_decode(cols, pos, tfs, block_size=BLOCK_SIZE, seed=0):
    """Every decode path returns the encoded lists: the whole segment, row
    subsets in any order, a gather over two members (this segment and a
    shifted copy of it) and each list alone."""
    tfs = np.asarray(tfs, np.int64)
    views = _views(cols)
    dfs = views[0]
    starts = np.cumsum(dfs) - dfs
    row_of, p, t = decode_postings_rows(*views, block_size=block_size)
    assert np.array_equal(p, pos) and np.array_equal(t, tfs)
    assert np.array_equal(row_of, np.repeat(np.arange(dfs.size), dfs))

    def want(rows):
        idx = np.concatenate([np.arange(starts[r], starts[r] + dfs[r]) for r in rows])
        return pos[idx], tfs[idx]

    rng = np.random.default_rng(seed)
    for rows in (np.arange(dfs.size)[::-1], rng.permutation(dfs.size)[: max(1, dfs.size // 2)],
                 np.array([dfs.size - 1])):
        _, p, t = decode_postings_rows(*views, rows, block_size)
        wp, wt = want(rows.tolist())
        assert np.array_equal(p, wp) and np.array_equal(t, wt)
    # two members: a second segment whose views are offset inside bigger
    # buffers, so a gather that ignores the member's offsets reads garbage
    other = [views[0]] + [(v + 3).astype(np.int32) if i % 2 == 0
                          else np.concatenate((np.full(3, 0xFF, np.uint8), v))
                          for i, v in enumerate(views[1:])]
    seqs = tuple([a, b] for a, b in zip(views, other))
    rows = rng.integers(0, dfs.size, 2 * dfs.size)
    members = rng.integers(0, 2, rows.size)
    _, p, t = decode_postings_rows(*seqs, rows, block_size, members=members)
    wp, wt = want(rows.tolist())
    assert np.array_equal(p, wp) and np.array_equal(t, wt)
    for r in range(dfs.size):
        d, t = decode_postings(cols["doc_blob"][r].as_py(), cols["tf_blob"][r].as_py(), block_size)
        wp, wt = want([r])
        assert np.array_equal(d, wp) and np.array_equal(t, wt)


def _width(bits: int) -> int:
    return min(w for w in TF_WIDTHS if w >= bits)


@pytest.mark.parametrize("bits", range(32))
def test_tf_every_width_round_trips(bits):
    """A list whose largest tf - 1 needs `bits` bits packs at the smallest
    width of TF_WIDTHS that holds it: one width byte, then df values."""
    rng = np.random.default_rng(bits)
    n = 300
    tfs = 1 + (rng.integers(0, 1 << bits, n) if bits else np.zeros(n, np.int64))
    if bits:
        tfs[n // 2] = 1 << bits  # tf - 1 = 2^bits - 1: every bit set
    cols, pos = _segment([n], tfs, block_size=16, seed=bits)
    blob = cols["tf_blob"][0].as_py()
    w = _width(bits)
    assert blob[0] == w and len(blob) == 1 + (n * w + 7) // 8
    _check_every_decode(cols, pos, tfs, block_size=16, seed=bits)


@pytest.mark.parametrize("tf", [1, 2, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 127, 128, 129, 70_000])
def test_tf_extremes_at_every_list_length(tf, n):
    """tf = 1 (a width-0 list is one byte) and tf = 2^31 - 1 (width 32)
    next to a tf-1 posting, at list lengths around a block and a long list."""
    tfs = np.full(n, tf, np.int64)
    tfs[::7] = 1
    cols, pos = _segment([n], tfs, seed=n)
    blob = cols["tf_blob"][0].as_py()
    if tf == 1:
        assert blob == b"\x00"
    else:
        assert blob[0] == _width(int(tfs.max() - 1).bit_length())
    _check_every_decode(cols, pos, tfs, seed=n)


def test_tf_mixed_widths_in_one_segment():
    """Rows of every width side by side, lengths 1..129, in one segment:
    one pack and one unpack serve them all."""
    rng = np.random.default_rng(7)
    dfs, tfs = [], []
    for k in range(70):
        bits = int(rng.choice([0, 0, 0, 1, 2, 3, 5, 8, 9, 16, 17, 31]))
        d = int(rng.choice([1, 2, 3, 7, 8, 9, 127, 128, 129]))
        dfs.append(d)
        tfs.append(1 + rng.integers(0, 1 << bits, d) if bits else np.ones(d, np.int64))
    tfs = np.concatenate(tfs)
    cols, pos = _segment(dfs, tfs, seed=7)
    widths = {b[0] for b in cols["tf_blob"].to_pylist()}
    assert widths == set(TF_WIDTHS)
    _check_every_decode(cols, pos, tfs, seed=7)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 300), st.integers(0, 31)), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_tf_property_round_trip(lists, seed):
    rng = np.random.default_rng(seed)
    dfs = [d for d, _ in lists]
    tfs = np.concatenate([1 + rng.integers(0, 1 << b, d) for d, b in lists])
    cols, pos = _segment(dfs, tfs, block_size=32, seed=seed)
    _check_every_decode(cols, pos, tfs, block_size=32, seed=seed)


def test_tf_out_of_range_raises():
    for bad in (0, -1, 2**32 + 1):
        with pytest.raises(ValueError, match="tf out of the codec's range"):
            encode_segment_table(np.zeros(3, np.int8), np.arange(3), np.array([1, bad, 1]))


def test_legacy_varint_tf_is_transcoded_and_unknown_tags_raise():
    """An untagged table holds one varint per posting in tf_blob: packed_tf
    rewrites it to the bytes the encoder writes, and tags it."""
    rng = np.random.default_rng(3)
    dfs = [1, 5, 128, 300, 2]
    tfs = 1 + rng.integers(0, 1 << 20, sum(dfs))
    cols, _ = _segment(dfs, tfs)
    blob, lens = encode_varint_with_lens(tfs.astype(np.uint64))
    ends = np.cumsum(lens.astype(np.int64))[np.cumsum(dfs) - 1]
    varint = pa.BinaryArray.from_buffers(
        pa.binary(), len(dfs),
        [None, pa.py_buffer(np.concatenate(([0], ends)).astype(np.int32)), pa.py_buffer(blob)],
    )
    legacy = pa.table({"df": cols["df"], "doc_blob": cols["doc_blob"], "tf_blob": varint})
    got = packed_tf(legacy)
    assert got.schema.metadata[TF_CODEC_KEY] == TF_CODEC
    assert got.column("tf_blob").equals(pa.chunked_array([cols["tf_blob"]]))
    assert packed_tf(got) is got
    with pytest.raises(ValueError, match="unknown tf codec"):
        packed_tf(got.replace_schema_metadata({TF_CODEC_KEY: b"zigzag"}))
    short = legacy.set_column(0, "df", pa.array([1, 5, 128, 300, 3], pa.int32()))
    with pytest.raises(ValueError, match="blob/df mismatch"):
        packed_tf(short)
