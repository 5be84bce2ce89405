"""Posting-list codec: varint doc deltas in 128-doc blocks, bit-packed tfs.

The analog of the reference's packed node-record layout
(/root/reference/include/flatnav/index/Index.h:61-63, 555-573: hand-packed
`[data | M links | label]` byte records addressed by offset): posting lists are
opaque binary blobs we encode/decode ourselves. A list is fully described by
its df and its two blobs. A segment row is exactly that: `term`, `df`,
`doc_blob` and `tf_blob` (`stages/build.POSTING_COLUMNS`); no per-block or
per-row metadata is written or read.

- `doc_blob`: doc-position deltas as LEB128 varints. Every block holds
  `block_size` postings but the list's last, and each block's first delta is
  absolute, so the block boundaries follow from df alone. (Bit-packing the
  deltas lost to varint under zstd.)
- `tf_blob`: one width byte `w` in `TF_WIDTHS` = (0, 1, 2, 4, 8, 16, 32),
  then the list's df values `tf - 1` packed LSB-first at `w` bits each (a
  frame of reference at 1, after PFor: Zukowski et al., ICDE 2006; Lemire &
  Boytsov, SP&E 2015). A list of all-ones tfs is the one byte `0`. Widths
  are powers of two, so no value straddles a byte and widths 16 and 32 are
  little-endian words.

Every segment file carries `TF_CODEC_KEY: TF_CODEC` in its Parquet key-value
metadata (the segment schemas hold it). A file without the key holds the
legacy varint tf stream (one varint per posting); `packed_tf` transcodes
such a table once when it is read, so every reader has one tf decoder, and
a tag it does not know raises.

All encode/decode paths are vectorized numpy (no per-value, per-row or
per-block Python loops): the role the SIMD distance kernels play in the
reference (/root/reference/include/flatnav/util/SquaredL2SimdExtensions.h).

A partition's posting lists are a few hundred bytes each, so per-call numpy
overhead, not bytes, sets the decode cost: `decode_postings_rows` decodes any subset of a
segment's rows in one pass (one gather per blob column, one varint decode of
the doc stream, one cumsum rebased per block, one bit-offset gather of the
tf stream). Serving decodes every uncached term of a call through it and
compaction decodes whole segments through it (`decode_segment_postings`).
`decode_postings` decodes one list.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128

_CONT = np.uint8(0x80)


def encode_varint_with_lens(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-style varint encoding of a non-negative int array, vectorized.

    Returns (blob, per-value byte lengths as uint8) — callers that need
    offsets (segment encoding) reuse the lengths instead of recomputing them.
    The whole pipeline stays in the narrowest width that fits (uint32 for
    position-encoded doc streams and tf streams): the merge phase is
    DRAM-bandwidth-bound, so every avoided 8-byte intermediate is wall time
    (BASELINE.md scaling notes)."""
    v0 = np.asarray(values)
    n = v0.size
    if n == 0:
        return b"", np.empty(0, dtype=np.uint8)
    mx = int(v0.max())
    if mx < 0x80:  # all 1-byte (most tf streams, dense-position deltas)
        return v0.astype(np.uint8).tobytes(), np.ones(n, dtype=np.uint8)
    maxb = 1
    while mx >= (1 << (7 * maxb)):
        maxb += 1
    if maxb <= 4:  # maxb <= 4 implies v < 2^28 < 2^32
        v = v0.astype(np.uint32, copy=False)
        dt = np.uint32
    else:
        v = v0.astype(np.uint64, copy=False)
        dt = np.uint64
    nbytes = np.ones(n, dtype=np.uint8)
    for k in range(1, maxb):
        nbytes += v >= dt(1 << (7 * k))
    # Subset-split scatter: 1-byte values (the vast majority of delta/tf
    # streams) store directly at their (monotone -> effectively sequential)
    # output offsets; only the multi-byte minority walks the per-byte-level
    # loop. ~3x faster than the dense (n, maxb) byte-matrix + boolean
    # compress this replaces, and it never materializes the n*maxb
    # intermediates — the merge phase is DRAM-bound, so the saved traffic is
    # wall time under concurrent merges (BASELINE.md scaling notes).
    offs = np.empty(n, dtype=np.int64)
    np.cumsum(nbytes, out=offs)
    total = int(offs[-1])
    offs -= nbytes
    out = np.empty(total, dtype=np.uint8)
    one = nbytes == 1
    out[offs[one]] = v[one]
    rest = np.flatnonzero(~one)
    if rest.size:
        vr = v[rest]
        nbr = nbytes[rest]
        offr = offs[rest]
        for k in range(maxb):
            if k:  # drop values fully emitted in earlier byte levels
                act = nbr > k
                vr, nbr, offr = vr[act], nbr[act], offr[act]
            cont = nbr > k + 1
            out[offr + k] = (vr & dt(0x7F)).astype(np.uint8) | (
                cont.view(np.uint8) << np.uint8(7)
            )
            vr = vr >> dt(7)
    return out.tobytes(), nbytes


def encode_varint(values: np.ndarray) -> bytes:
    return encode_varint_with_lens(values)[0]


def _as_bytes(buf) -> np.ndarray:
    if isinstance(buf, (bytes, bytearray, memoryview)):
        return np.frombuffer(buf, dtype=np.uint8)
    return buf


def decode_varint(buf: bytes | np.ndarray) -> np.ndarray:
    """Decode a varint byte buffer -> uint64 array, vectorized.

    Per-byte-position gather (sequential reads, bounded passes) — ~3x faster
    than the scatter-add formulation on multi-byte values."""
    b = _as_bytes(buf)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_last = b < _CONT
    if is_last.all():  # single-byte fast path (e.g. most tf streams)
        return b.astype(np.uint64)
    ends = np.flatnonzero(is_last)
    nvals = ends.size
    starts = np.empty(nvals, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    maxb = int(lens.max())
    out = (b[starts] & np.uint8(0x7F)).astype(np.uint64)
    for k in range(1, maxb):
        active = lens > k
        idx = starts[active] + k
        out[active] |= (b[idx] & np.uint8(0x7F)).astype(np.uint64) << np.uint64(7 * k)
    return out


def _check_blob_size(value_lens: np.ndarray) -> None:
    """Segment blobs are Arrow binary columns with int32 offsets."""
    if int(value_lens.sum(dtype=np.int64)) >= 2**31:
        raise ValueError("partition blob exceeds 2GB — lower docs per partition")


TF_CODEC_KEY = b"flatnav.tf_codec"
TF_CODEC = b"packed-pow2"
TF_WIDTHS = (0, 1, 2, 4, 8, 16, 32)
_W = np.array(TF_WIDTHS, dtype=np.int64)
# a row's width is the smallest w of TF_WIDTHS with 2^w above its largest
# value v: _W[searchsorted(_W_LIMITS, v, side="right")]
_W_LIMITS = np.array([1 << w for w in TF_WIDTHS[:-1]], dtype=np.int64)
_W_VALID = np.zeros(256, dtype=bool)  # by width byte
_W_VALID[list(TF_WIDTHS)] = True
# per width below 8, the shift of each value in its byte
_W_SHIFTS = {w: np.arange(0, 8, w, dtype=np.uint8) for w in (1, 2, 4)}


def _value_layout(row_start: np.ndarray, dfs: np.ndarray, w: np.ndarray):
    """Where the values of tf rows (starting at bytes `row_start`, `dfs`
    values each, widths `w`) sit, for the rows of nonzero width: per value
    (its width, its bit offset, its index among all the rows' values).
    Value i of a row sits at bit 8 * (row_start + 1) + i * w."""
    r = np.flatnonzero(w)
    d, wr = dfs[r], w[r].astype(np.int64)
    local = np.cumsum(d) - d  # each row's first value among these rows'
    at = np.arange(int(local[-1] + d[-1]))
    wp = np.repeat(wr, d)
    bit = np.repeat(8 * (row_start[r] + 1) - local * wr, d) + at * wp
    idx = at if r.size == w.size else np.repeat((np.cumsum(dfs) - dfs)[r] - local, d) + at
    return wp, bit, idx


def pack_tf_rows(tfs: np.ndarray, dfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tf_blob bytes of the lists of `dfs` (>= 1 each) postings laid end to
    end in `tfs`: per row its width byte and `tf - 1` at that width. Returns
    (the rows' bytes end to end, per-row byte lengths int64). Width-0 rows
    are their header only; every other value is shifted into place at once
    and each byte or-reduced from its run of values (a value of width <= 8
    never straddles a byte, and a byte's first value sits at bit 0); the
    rare 16- and 32-bit values are then written over their rows as
    little-endian words."""
    dfs = np.asarray(dfs, dtype=np.int64)
    if tfs.size and (int(tfs.min()) < 1 or int(tfs.max()) > 1 << 32):
        raise ValueError("tf out of the codec's range [1, 2^32]")
    if not tfs.size or int(tfs.max()) == 1:  # every list all ones: a zero byte per row
        return np.zeros(dfs.size, dtype=np.uint8), np.ones(dfs.size, dtype=np.int64)
    w = _W[np.searchsorted(_W_LIMITS, np.maximum.reduceat(tfs, np.cumsum(dfs) - dfs) - 1,
                           side="right")]
    row_len = 1 + (dfs * w + 7) // 8
    row_start = np.cumsum(row_len) - row_len
    out = np.empty(int(row_start[-1] + row_len[-1]), dtype=np.uint8)
    out[row_start] = w
    wp, bit, idx = _value_layout(row_start, dfs, w)
    v = tfs[idx] - 1
    sh = bit.astype(np.uint8) & np.uint8(7)
    first = np.flatnonzero(sh == 0)
    out[bit[first] >> 3] = np.bitwise_or.reduceat(v.astype(np.uint8) << sh, first)
    for wide, dt in ((16, "<u2"), (32, "<u4")):
        sel = wp == wide
        if sel.any():
            at = (bit[sel] >> 3)[:, None] + np.arange(wide // 8)
            out[at] = v[sel].astype(dt).view(np.uint8).reshape(-1, wide // 8)
    return out, row_len


def _unpack_one(data: np.ndarray, w: int, n: int) -> np.ndarray:
    """The n tfs of one list from its packed bytes `data` at width w."""
    if w == 0:
        return np.ones(n, dtype=np.int64)
    if w < 8:
        v = ((data[:, None] >> _W_SHIFTS[w]) & np.uint8((1 << w) - 1)).ravel()[:n]
    else:
        v = data.view({8: np.uint8, 16: "<u2", 32: "<u4"}[w])
    return np.add(v, 1, dtype=np.int64)


def unpack_tf_rows(
    buf: np.ndarray, row_start: np.ndarray, row_len: np.ndarray, dfs: np.ndarray
) -> np.ndarray:
    """tfs (int64) of the tf rows at bytes [row_start, row_start + row_len)
    of `buf` holding `dfs` (>= 1) postings each, in row order: the dual of
    pack_tf_rows. Width-0 rows are ones; every value of width 1..8 comes
    from one byte gather, shift and mask; 16- and 32-bit rows are words."""
    n = int(dfs.sum())
    w = buf[row_start]
    if w.size and not (_W_VALID[w].all() and int(dfs.min()) > 0
                       and ((dfs * w + 15) >> 3 == row_len).all()):
        raise ValueError(
            f"blob/df mismatch: df sums to {n}, tf_blob rows do not hold that many "
            "packed values"
        )
    if w.size == 1:  # one list: its values are the bytes after its header
        a = int(row_start[0]) + 1
        return _unpack_one(buf[a : a + int(row_len[0]) - 1], int(w[0]), n)
    if not w.any():
        return np.ones(n, dtype=np.int64)
    wp, bit, idx = _value_layout(row_start, dfs, w)
    byte = bit >> 3
    vals = np.add((buf[byte] >> (bit.astype(np.uint8) & np.uint8(7))) & ((1 << wp) - 1), 1)
    if int(w.max()) > 8:  # 16- and 32-bit values: little-endian words
        for wide in (16, 32):
            sel = wp == wide
            if sel.any():
                at = byte[sel]
                word = buf[at].astype(np.int64)
                for k in range(1, wide // 8):
                    word |= buf[at + k].astype(np.int64) << (8 * k)
                vals[sel] = word + 1
    if vals.size == n:  # no width-0 row: the values are in order
        return vals
    out = np.ones(n, dtype=np.int64)
    out[idx] = vals
    return out


def _blob_array(blob: np.ndarray | bytes, row_len: np.ndarray):
    """An Arrow binary array over `blob` split into rows of `row_len` bytes."""
    import pyarrow as pa

    _check_blob_size(row_len)
    off = np.zeros(row_len.size + 1, dtype=np.int32)
    np.cumsum(row_len, out=off[1:])
    return pa.BinaryArray.from_buffers(
        pa.binary(), row_len.size, [None, pa.py_buffer(off), pa.py_buffer(blob)]
    )


def packed_tf(table):
    """`table` (segment columns read from one file or one build) with its
    `tf_blob` in the packed codec: returned as is when tagged `TF_CODEC`;
    untagged (a legacy varint tf stream, one varint per posting) it is
    transcoded once and tagged; any other tag raises."""
    meta = table.schema.metadata or {}
    tag = meta.get(TF_CODEC_KEY)
    if tag == TF_CODEC:
        return table
    if tag is not None:
        raise ValueError(f"unknown tf codec {tag.decode(errors='replace')!r} in segment metadata")
    if "tf_blob" in table.column_names:
        table = table.combine_chunks()
        dfs = np.asarray(table.column("df").to_numpy(zero_copy_only=False), dtype=np.int64)
        offs, vals = binary_views(table.column("tf_blob"))
        tfs = decode_varint(vals[offs[0] : offs[-1]]) if len(offs) else np.empty(0, np.uint64)
        if tfs.size != int(dfs.sum()):
            raise ValueError(
                f"blob/df mismatch: df sums to {int(dfs.sum())}, varint tf_blob holds {tfs.size}"
            )
        blob, row_len = pack_tf_rows(tfs.astype(np.int64), dfs)
        table = table.set_column(
            table.column_names.index("tf_blob"), "tf_blob", _blob_array(blob, row_len)
        )
    return table.replace_schema_metadata({**meta, TF_CODEC_KEY: TF_CODEC})


def encode_segment_table(
    p_terms: np.ndarray,
    p_docs: np.ndarray,
    p_tfs: np.ndarray,
    block_size: int = BLOCK_SIZE,
):
    """Vectorized whole-partition segment encode: postings sorted by
    (term, doc_id) -> per-term segment-row arrays with NO per-term Python
    loop. One varint pass over the concatenated delta stream and one packing
    pass over the tf stream; per-term blobs are offset slices of the two
    shared buffers (Arrow BinaryArrays from offsets).

    Returns ({"df", "doc_blob", "tf_blob"} as pyarrow arrays, term start
    indices, term end indices): with the term column they are the segment
    row (stages.build.SEGMENT_SCHEMA).
    """
    import pyarrow as pa

    n = p_docs.size
    if n == 0:
        raise ValueError("encode_segment_table needs at least one posting")
    # term boundaries (p_terms sorted)
    tb = np.flatnonzero(np.concatenate(([True], p_terms[1:] != p_terms[:-1])))
    te = np.append(tb[1:], n)
    nterms = tb.size
    # block starts derived from per-term dfs on nblocks-sized arrays
    # (~n/block_size elements) — no n-sized arange/cumsum/repeat passes
    df = te - tb
    nb_t = -(-df // block_size)                        # ceil(df / block_size)
    cum_nb = np.zeros(nterms + 1, dtype=np.int64)
    np.cumsum(nb_t, out=cum_nb[1:])
    nblocks = int(cum_nb[-1])
    term_of_block = np.repeat(np.arange(nterms, dtype=np.int64), nb_t)
    within = np.arange(nblocks, dtype=np.int64) - cum_nb[term_of_block]
    block_starts = tb[term_of_block] + within * block_size

    # deltas: doc - prev doc within term; absolute at block starts. Narrowest
    # width that fits (uint32 for docmap-position streams — the merge is
    # DRAM-bound, 8-byte intermediates for 4-byte data were ~half its traffic)
    ddt = np.uint32 if p_docs.dtype.itemsize <= 4 or int(p_docs.max()) < (1 << 31) else np.uint64
    deltas = np.empty(n, dtype=ddt)
    # cross-term diffs may be negative: every term start is a block start, so
    # they are overwritten by the absolute value before encoding (the wrap in
    # the narrow dtype is never observed)
    deltas[1:] = (p_docs[1:] - p_docs[:-1]).astype(ddt)
    deltas[block_starts] = p_docs[block_starts].astype(ddt)

    # per-term doc blobs: Arrow BinaryArray slices of the one varint buffer of
    # the whole delta stream
    blob, lens = encode_varint_with_lens(deltas)
    doc_len = np.add.reduceat(lens, tb, dtype=np.int64)
    return {
        "df": pa.array(df.astype(np.int32), type=pa.int32()),
        "doc_blob": _blob_array(blob, doc_len),
        "tf_blob": _blob_array(*pack_tf_rows(p_tfs, df)),
    }, tb, te


def binary_views(col) -> tuple[np.ndarray, np.ndarray]:
    """(int32 offsets, uint8 values) over an Arrow binary column, zero-copy:
    row i's bytes are values[offsets[i]:offsets[i + 1]]."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
        col.offset : col.offset + len(col) + 1
    ]
    vals = col.buffers()[2]
    return offs, (np.frombuffer(vals, dtype=np.uint8) if vals is not None else np.empty(0, np.uint8))


def _gather_rows(vals, offs, rows: np.ndarray, members: np.ndarray | None = None):
    """Row r's bytes are vals[offs[r]:offs[r + 1]]; returns (rows `rows`'
    bytes end to end, their byte lengths int64). With `members`, `vals` and
    `offs` are sequences of per-segment views and row j is row rows[j] of
    segment members[j]. One slice copy per row: with rows of a few hundred
    bytes that beats a per-byte index gather from 2 rows to thousands."""
    if members is not None:
        parts = [
            vals[m][offs[m][r] : offs[m][r + 1]]
            for m, r in zip(members.tolist(), rows.tolist())
        ]
        return np.concatenate(parts), np.array([p.size for p in parts], dtype=np.int64)
    lens = (offs[rows + 1] - offs[rows]).astype(np.int64)
    if rows.size == 1:
        r = int(rows[0])
        return vals[offs[r] : offs[r + 1]], lens
    return np.concatenate(
        [vals[a:b] for a, b in zip(offs[rows].tolist(), offs[rows + 1].tolist())]
    ), lens


def _block_cumsum(deltas: np.ndarray, dfs: np.ndarray, block_size: int) -> np.ndarray:
    """Values of the delta streams of lists with `dfs` postings laid end to
    end, in blocks of `block_size` (the layout encode_segment_table writes):
    each block's first delta is absolute, so one cumsum over the whole
    stream, rebased per block."""
    d = deltas.astype(np.int64)
    c = np.cumsum(d)
    if dfs.size == 1 and c.size <= block_size:  # one block: nothing to rebase
        return c
    if int(dfs.max()) <= block_size:  # every list is one block
        lens = dfs
    else:  # every block holds block_size postings but each list's last
        nb_t = (dfs + (block_size - 1)) // block_size
        last_block = np.cumsum(nb_t) - 1
        lens = np.full(int(last_block[-1]) + 1, block_size, dtype=np.int64)
        lens[last_block] = dfs - (nb_t - 1) * block_size
    starts = np.cumsum(lens) - lens
    c -= np.repeat(c[starts] - d[starts], lens)
    return c


def decode_postings_rows(
    dfs: np.ndarray,
    doc_offs: np.ndarray,
    doc_vals: np.ndarray,
    tf_offs: np.ndarray,
    tf_vals: np.ndarray,
    rows: np.ndarray | None = None,
    block_size: int = BLOCK_SIZE,
    members: np.ndarray | None = None,
    with_tf: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Decode the posting lists of segment rows `rows` (every row when None)
    at once — the bulk-decode dual of encode_segment_table: one gather per
    blob column, one varint pass over the doc stream, one cumsum rebased per
    block, one unpack of the tf stream; no per-term Python.

    `dfs` (int64) and the (offsets, values) pairs of `binary_views` cover
    the whole segment. With `members` (one per entry of `rows`), `dfs` and
    the four views are sequences over several segments of one block size,
    and row j is row rows[j] of segment members[j]: the rows of all of them
    still decode as one stream per column. Returns (index into `rows` per
    posting, positions int64, tfs int64 or None without `with_tf`), in
    `rows` order, position-ascending within a row; positions are local to
    the row's segment. Callers that only count or locate postings (live
    df, match sets) skip the tf stream."""
    if rows is None:
        d_bytes = doc_vals[doc_offs[0] : doc_offs[-1]]
    else:
        if rows.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, (e if with_tf else None)
        if members is None:
            dfs = dfs[rows]
        else:
            dfs = np.array(
                [dfs[m][r] for m, r in zip(members.tolist(), rows.tolist())], dtype=np.int64
            )
        d_bytes = _gather_rows(doc_vals, doc_offs, rows, members)[0]
    deltas = decode_varint(d_bytes)
    n = deltas.size
    if dfs.size == 1:
        row_of = np.zeros(n, dtype=np.int64)
        want = int(dfs[0])
    else:
        row_of = np.repeat(np.arange(dfs.size, dtype=np.int64), dfs)
        want = row_of.size
    if want != n:
        raise ValueError(f"blob/df mismatch: df sums to {want}, doc_blob holds {n} postings")
    tfs = None
    if with_tf:
        if rows is None:
            t_bytes, t_lens = tf_vals[tf_offs[0] : tf_offs[-1]], np.diff(tf_offs).astype(np.int64)
        else:
            t_bytes, t_lens = _gather_rows(tf_vals, tf_offs, rows, members)
        tfs = unpack_tf_rows(t_bytes, np.cumsum(t_lens) - t_lens, t_lens, dfs)
    if n == 0:
        return row_of, row_of, tfs
    return row_of, _block_cumsum(deltas, dfs, block_size), tfs


def decode_segment_postings(
    doc_blob_col, tf_blob_col, df_col, block_size: int = BLOCK_SIZE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode EVERY term of a segment at once (decode_postings_rows over
    all rows). Returns (term_row int64 per posting, doc positions int64,
    tfs int64), postings in segment row order. Used by compaction/merge
    paths that re-encode whole segments."""
    dfs = np.asarray(df_col.to_numpy(zero_copy_only=False), dtype=np.int64)
    return decode_postings_rows(
        dfs, *binary_views(doc_blob_col), *binary_views(tf_blob_col),
        block_size=block_size,
    )


def decode_postings(
    doc_blob: bytes,
    tf_blob: bytes,
    block_size: int = BLOCK_SIZE,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode one posting list. Returns (doc_ids int64, tfs int64)."""
    deltas = decode_varint(doc_blob)
    n = np.array([deltas.size])
    tf_bytes = _as_bytes(tf_blob)
    tfs = unpack_tf_rows(tf_bytes, np.zeros(1, dtype=np.int64), np.array([tf_bytes.size]), n)
    return _block_cumsum(deltas, n, block_size), tfs
