"""Posting-list codec: delta + varint in 128-doc blocks with per-block maxima.

The analog of the reference's packed node-record layout
(/root/reference/include/flatnav/index/Index.h:61-63, 555-573: hand-packed
`[data | M links | label]` byte records addressed by offset): posting lists are
opaque binary blobs we encode/decode ourselves, with block metadata
(last doc id, max tf, min doc len) for block-max skipping — the grafted form
of flatnav's candidate pruning (`Index.h:714-763`) per SURVEY.md §2.7 D3.
Serving reads the block boundaries and offsets (selective decode); the
per-block maxima are stored, but a serving load does not read those columns
(`stages/search._LOAD_COLUMNS`).

All encode/decode paths are vectorized numpy (no per-value Python loops): the
role the SIMD distance kernels play in the reference
(/root/reference/include/flatnav/util/SquaredL2SimdExtensions.h).

A partition's posting lists are a few hundred bytes each, so per-call numpy
overhead, not bytes, sets the decode cost: `decode_postings_rows` decodes any subset of a
segment's rows in one pass (one gather per blob column, one varint decode per
stream, one cumsum rebased per block). Serving decodes every uncached term of
a call through it and compaction decodes whole segments through it
(`decode_segment_postings`). `decode_postings` decodes one list, or only its
selected blocks (block-max skipping) with the same gather and rebase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 128

_SEVEN = np.uint64(7)
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


@dataclass
class EncodedPostings:
    """One term's posting list for one partition (one `segments` row)."""

    df: int
    doc_blob: bytes            # delta+varint doc ids; block-start deltas are absolute
    tf_blob: bytes             # varint term frequencies, same order
    block_last_doc: np.ndarray  # int64 (n_blocks,) last doc id per block
    block_max_tf: np.ndarray    # int32 (n_blocks,)
    block_min_dl: np.ndarray    # int32 (n_blocks,) min doc length per block
    block_doc_offs: np.ndarray  # int32 (n_blocks,) byte offset of block start in doc_blob
    block_tf_offs: np.ndarray   # int32 (n_blocks,) byte offset of block start in tf_blob


def encode_postings(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    doc_lens: np.ndarray,
    block_size: int = BLOCK_SIZE,
) -> EncodedPostings:
    """Encode a sorted (by doc_id) posting list into delta+varint blocks.

    Each block's first delta is absolute (delta from 0) so blocks decode
    independently — required for block-max skipping.
    """
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    tfs = np.ascontiguousarray(tfs, dtype=np.int64)
    doc_lens = np.ascontiguousarray(doc_lens, dtype=np.int64)
    n = doc_ids.size
    assert n > 0
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = doc_ids[0]
    deltas[1:] = np.diff(doc_ids).astype(np.uint64)
    block_starts = np.arange(0, n, block_size, dtype=np.int64)
    # block-start deltas absolute for independent decode
    deltas[block_starts] = doc_ids[block_starts].astype(np.uint64)
    nb = block_starts.size
    block_ends = np.minimum(block_starts + block_size, n)

    # per-value byte length to derive per-block byte offsets
    def _byte_offs(vals: np.ndarray) -> tuple[bytes, np.ndarray]:
        blob = encode_varint(vals)
        lens = np.ones(n, dtype=np.int64)
        tmp = vals.copy()
        tmp >>= _SEVEN
        while np.any(tmp):
            lens[tmp > 0] += 1
            tmp >>= _SEVEN
        ends = np.cumsum(lens)
        starts_b = ends - lens
        return blob, starts_b[block_starts].astype(np.int32)

    doc_blob, doc_offs = _byte_offs(deltas)
    tf_blob, tf_offs = _byte_offs(tfs.astype(np.uint64))

    max_tf = np.maximum.reduceat(tfs, block_starts).astype(np.int32)
    min_dl = np.minimum.reduceat(doc_lens, block_starts).astype(np.int32)
    last_doc = doc_ids[block_ends - 1].astype(np.int64)
    return EncodedPostings(
        df=n,
        doc_blob=doc_blob,
        tf_blob=tf_blob,
        block_last_doc=last_doc,
        block_max_tf=max_tf,
        block_min_dl=min_dl,
        block_doc_offs=doc_offs.astype(np.int32),
        block_tf_offs=tf_offs.astype(np.int32),
    )


def encode_segment_table(
    p_terms: np.ndarray,
    p_docs: np.ndarray,
    p_tfs: np.ndarray,
    p_dls: np.ndarray,
    block_size: int = BLOCK_SIZE,
):
    """Vectorized whole-partition segment encode: postings sorted by
    (term, doc_id) -> per-term segment-row arrays with NO per-term Python
    loop. One varint pass over the concatenated delta stream; per-term blobs
    are offset slices of the shared buffer (Arrow BinaryArray from offsets).

    Returns a dict of pyarrow arrays matching stages.build.SEGMENT_SCHEMA
    (minus 'term', returned separately as the unique term array).
    """
    import pyarrow as pa

    n = p_docs.size
    assert n > 0
    # term boundaries (p_terms sorted)
    tb = np.flatnonzero(np.concatenate(([True], p_terms[1:] != p_terms[:-1])))
    te = np.append(tb[1:], n)
    nterms = tb.size
    # block structure derived from per-term dfs on nblocks-sized arrays
    # (~n/block_size elements) — no n-sized arange/cumsum/repeat passes
    df = te - tb
    nb_t = -(-df // block_size)                        # ceil(df / block_size)
    cum_nb = np.zeros(nterms + 1, dtype=np.int64)
    np.cumsum(nb_t, out=cum_nb[1:])
    nblocks = int(cum_nb[-1])
    term_of_block = np.repeat(np.arange(nterms, dtype=np.int64), nb_t)
    within = np.arange(nblocks, dtype=np.int64) - cum_nb[term_of_block]
    block_starts = tb[term_of_block] + within * block_size
    block_ends = np.minimum(block_starts + block_size, te[term_of_block])

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

    doc_blob_all, doc_lens_b = encode_varint_with_lens(deltas)
    assert int(doc_lens_b.sum(dtype=np.int64)) < 2**31, (
        "partition blob exceeds 2GB — lower docs per partition"
    )
    doc_off = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(doc_lens_b, out=doc_off[1:])

    tf_blob_all, tf_lens_b = encode_varint_with_lens(p_tfs)
    assert int(tf_lens_b.sum(dtype=np.int64)) < 2**31, (
        "partition blob exceeds 2GB — lower docs per partition"
    )
    tf_off = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(tf_lens_b, out=tf_off[1:])

    # per-term binary slices as Arrow BinaryArray built from offset buffers
    def _bin_from_offsets(blob: bytes, global_off: np.ndarray) -> pa.Array:
        offs = global_off[np.append(tb, n)]
        off_buf = pa.py_buffer(np.ascontiguousarray(offs, dtype=np.int32).tobytes())
        return pa.BinaryArray.from_buffers(
            pa.binary(), nterms, [None, off_buf, pa.py_buffer(blob)]
        )

    doc_blob_arr = _bin_from_offsets(doc_blob_all, doc_off)
    tf_blob_arr = _bin_from_offsets(tf_blob_all, tf_off)

    # per-block metadata (vectorized reduceat over global block starts)
    bl_last = p_docs[block_ends - 1].astype(np.int64)
    bl_maxtf = np.maximum.reduceat(p_tfs, block_starts).astype(np.int32)
    bl_mindl = np.minimum.reduceat(p_dls, block_starts).astype(np.int32)
    bl_doffs = (doc_off[block_starts] - doc_off[tb][term_of_block]).astype(np.int32)
    bl_toffs = (tf_off[block_starts] - tf_off[tb][term_of_block]).astype(np.int32)

    # per-term list offsets into the block arrays = the block-count cumsum
    list_off = cum_nb.astype(np.int32)

    def _list_arr(values: np.ndarray, typ) -> pa.Array:
        return pa.ListArray.from_arrays(pa.array(list_off), pa.array(values, type=typ))

    return {
        "df": pa.array((te - tb).astype(np.int32), type=pa.int32()),
        "doc_blob": doc_blob_arr,
        "tf_blob": tf_blob_arr,
        "block_last_doc": _list_arr(bl_last, pa.int64()),
        "block_max_tf": _list_arr(bl_maxtf, pa.int32()),
        "block_min_dl": _list_arr(bl_mindl, pa.int32()),
        "block_doc_offs": _list_arr(bl_doffs, pa.int32()),
        "block_tf_offs": _list_arr(bl_toffs, pa.int32()),
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


def _gather_rows(vals, offs, rows: np.ndarray, members: np.ndarray | None = None) -> np.ndarray:
    """Row r's bytes are vals[offs[r]:offs[r + 1]]; returns rows `rows`'
    bytes end to end. With `members`, `vals` and `offs` are sequences of
    per-segment views and row j is row rows[j] of segment members[j]. One
    slice copy per row: with rows of a few hundred bytes that beats a
    per-byte index gather from 2 rows to thousands."""
    if members is not None:
        return np.concatenate([
            vals[m][offs[m][r] : offs[m][r + 1]]
            for m, r in zip(members.tolist(), rows.tolist())
        ])
    if rows.size == 1:
        r = int(rows[0])
        return vals[offs[r] : offs[r + 1]]
    return np.concatenate(
        [vals[a:b] for a, b in zip(offs[rows].tolist(), offs[rows + 1].tolist())]
    )


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode the posting lists of segment rows `rows` (every row when None)
    at once — the bulk-decode dual of encode_segment_table: one gather per
    blob column, one varint pass per stream, one cumsum rebased per block;
    no per-term Python.

    `dfs` (int64) and the (offsets, values) pairs of `binary_views` cover
    the whole segment. With `members` (one per entry of `rows`), `dfs` and
    the four views are sequences over several segments of one block size,
    and row j is row rows[j] of segment members[j]: the rows of all of them
    still decode as one stream per column. Returns (index into `rows` per
    posting, positions int64, tfs int64), in `rows` order,
    position-ascending within a row; positions are local to the row's
    segment."""
    if rows is None:
        d_bytes = doc_vals[doc_offs[0] : doc_offs[-1]]
        t_bytes = tf_vals[tf_offs[0] : tf_offs[-1]]
    else:
        if rows.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        if members is None:
            dfs = dfs[rows]
        else:
            dfs = np.array(
                [dfs[m][r] for m, r in zip(members.tolist(), rows.tolist())], dtype=np.int64
            )
        d_bytes = _gather_rows(doc_vals, doc_offs, rows, members)
        t_bytes = _gather_rows(tf_vals, tf_offs, rows, members)
    deltas = decode_varint(d_bytes)
    tfs = decode_varint(t_bytes)
    n = deltas.size
    if dfs.size == 1:
        row_of = np.zeros(n, dtype=np.int64)
        assert int(dfs[0]) == n == tfs.size, "blob/df mismatch"
    else:
        row_of = np.repeat(np.arange(dfs.size, dtype=np.int64), dfs)
        assert row_of.size == n == tfs.size, "blob/df mismatch"
    if n == 0:
        return row_of, row_of, row_of
    return row_of, _block_cumsum(deltas, dfs, block_size), tfs.astype(np.int64)


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
    block_last_doc: np.ndarray,
    block_doc_offs: np.ndarray | None = None,
    block_tf_offs: np.ndarray | None = None,
    block_mask: np.ndarray | None = None,
    block_size: int = BLOCK_SIZE,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode (optionally a subset of blocks of) a posting list.

    Returns (doc_ids int64, tfs int64). With `block_mask` (bool per block),
    only selected blocks' byte ranges are decoded — block-max skipping.
    """
    if block_mask is not None and not block_mask.all():
        assert block_doc_offs is not None and block_tf_offs is not None
        sel = np.flatnonzero(block_mask)
        if sel.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        doc_b, tf_b = _as_bytes(doc_blob), _as_bytes(tf_blob)
        deltas = decode_varint(_gather_rows(doc_b, np.append(block_doc_offs, doc_b.size), sel))
        tfs = decode_varint(_gather_rows(tf_b, np.append(block_tf_offs, tf_b.size), sel))
        # every block holds block_size postings except a list's last one;
        # the selected blocks decode as one-block lists laid end to end
        lens = np.full(sel.size, block_size, dtype=np.int64)
        if sel[-1] == len(block_last_doc) - 1:
            lens[-1] = deltas.size - (sel.size - 1) * block_size
        return _block_cumsum(deltas, lens, block_size), tfs.astype(np.int64)

    deltas = decode_varint(doc_blob)
    doc_ids = _block_cumsum(deltas, np.array([deltas.size]), block_size)
    return doc_ids, decode_varint(tf_blob).astype(np.int64)
