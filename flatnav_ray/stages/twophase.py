"""Two-phase build: map-side partial segments -> per-partition merge.

The one build path of the doc-partitioned layout (pipelines/build.py). The
heavy work (tokenize + per-partition packing) runs on the map side,
pipelined with the Parquet read, and only compact partials cross to the
reducers, through spill files rather than the object store:

    read_parquet -> map_batches(map_partial_spill: extract + tokenize +
                                 per-partition PARTIAL docmap/postings,
                                 packed numpy blobs)
      [streams: every input block's partials land on the spill as soon as
       they are built; spilled bytes ≈ 4-8x smaller than raw text]
    -> map barrier
    -> merge_spilled_partition per partition: resolve url-recrawl winners
       across partials, drop loser postings, k-way merge of the sorted runs,
       encode, write.

This is the Lucene flush-segment + merge design re-expressed on Ray Data —
and the reference's two-phase `allocate_nodes + build_graph_links` bulk path
(/root/reference/python-bindings/src/flatnav/bindings.cpp:308-324) is its
closest ancestor in SURVEY.md §2.10.

Dedup semantics (D4): doc_id = stable hash(url); the winner per doc_id is
max (warc_ts, text_hash) — deterministic regardless of partial arrival order.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from ..config import IndexConfig
from ..functions.codec import encode_segment_table
from ..functions.tokenize import term_frequencies_encoded
from ..state.manifest import PartitionManifest, write_manifest
from .build import (
    DOCMAP_SCHEMA,
    MANIFEST_ROW_SCHEMA,
    SEGMENT_SCHEMA,
    _atomic_write_parquet,
    _clamp_worker_threads,
    docmap_path,
    segment_path,
    text_tie_hash,
)

PARTIAL_SCHEMA = pa.schema(
    [
        ("partition", pa.int32()),
        # partial docmap (parallel arrays packed as raw little-endian blobs)
        ("dm_doc_ids", pa.binary()),   # int64
        ("dm_doc_lens", pa.binary()),  # int32
        ("dm_warc_ts", pa.binary()),   # int64 (us)
        ("dm_text_hash", pa.binary()),  # int64
        ("dm_urls", pa.list_(pa.string())),
        ("dm_langs", pa.list_(pa.string())),
        # partial postings: term dictionary + per-posting arrays. Documents
        # are referenced by ORDINAL into this partial's (ascending) dm_doc_ids
        # — int32 instead of a raw int64 doc hash, which cuts the spilled
        # bytes per posting by a quarter and lets the merge resolve winners
        # with O(docs) binary searches + O(postings) gathers from partial-
        # local (cache-resident) tables instead of O(postings) binary
        # searches over the whole partition (the old hot spot).
        ("terms", pa.list_(pa.string())),
        # max tf in this partial's postings (0 when empty): lets the merge
        # fix the fused sort-word's tf width from METADATA ONLY, before any
        # posting bytes are read — required by the streaming merge below
        ("tf_max", pa.int32()),
        # byte widths (2 or 4) of the three posting streams below —
        # width-adaptive packing: a map batch's partition slice has ≤ a few
        # thousand docs and local terms, so codes/ordinals/tfs almost always
        # fit uint16, halving the spilled posting bytes (6 B/posting instead
        # of 12) on BOTH sides of the exchange of the DRAM-bound merge; a
        # stream grows to uint32 only when its slice needs it
        ("w_code", pa.int8()),
        ("w_ord", pa.int8()),
        ("w_tf", pa.int8()),
        ("p_term_idx", pa.binary()),   # uint16|uint32 index into terms
        ("p_doc_ord", pa.binary()),    # uint16|uint32 index into dm_doc_ids
        ("p_tfs", pa.binary()),        # uint16|uint32
    ]
)

_WIDTH_DT = {2: np.uint16, 4: np.uint32}

# CPUs reserved per merge task (the build merge here, the compaction merge in
# stages/compact.py). Merges are DRAM-bandwidth-bound, not core-bound: one per
# core queues the memory controller superlinearly (measured on the 1M-doc
# spill: 32 concurrent merges 65-82s, 16 concurrent 24-25s, 8 concurrent 32s
# — cores/2 is the saturation point). Reserving a ~2-core bandwidth slot per
# merge holds on any node size, and per node on a multi-node cluster (each
# node schedules its own merges against its own memory bus). Callers clamp
# it to the cluster's CPU count.
MERGE_NUM_CPUS = 2


def _width_for(max_value: int) -> int:
    """Smallest supported byte width holding max_value (0-based values)."""
    return 2 if max_value <= 0xFFFF else 4


def _stream_dtypes(grp: pa.Table) -> list[tuple[np.dtype, np.dtype, np.dtype]]:
    """Per-partial (code, ord, tf) numpy dtypes from the width columns."""
    wc = grp.column("w_code").to_numpy(zero_copy_only=False)
    wo = grp.column("w_ord").to_numpy(zero_copy_only=False)
    wt = grp.column("w_tf").to_numpy(zero_copy_only=False)
    return [
        (_WIDTH_DT[int(wc[i])], _WIDTH_DT[int(wo[i])], _WIDTH_DT[int(wt[i])])
        for i in range(len(grp))
    ]

# Spill-file split (streaming merge): the heavy per-posting streams live in
# their own file so the merge's pass 1 (winner resolution + vocabulary union
# + sort-word widths) decompresses ONLY the small metadata, and pass 2 then
# streams posting files one at a time — each partial's decompressed posting
# buffers are freed as soon as its sorted run of packed words is built,
# instead of every partial's 12 B/posting staying resident for the whole
# merge alongside the 8 B/posting word runs (the old ~20 B/posting peak).
_POST_COLS = ("p_term_idx", "p_doc_ord", "p_tfs")
PARTIAL_META_SCHEMA = pa.schema(
    [f for f in PARTIAL_SCHEMA if f.name not in _POST_COLS]
)
PARTIAL_POST_SCHEMA = pa.schema(
    [PARTIAL_SCHEMA.field("partition")]
    + [PARTIAL_SCHEMA.field(c) for c in _POST_COLS]
)


def map_partial(batch: pa.Table, num_partitions: int, langs: tuple[str, ...] | None) -> pa.Table:
    """Map side: extract + dedup-within-batch + tokenize + pack one partial
    row per partition present in the batch."""
    from ..pipelines.build import prepare_batch

    _clamp_worker_threads()
    import pyarrow.compute as pc

    prep = prepare_batch(batch, num_partitions, langs)
    if len(prep) == 0:
        return PARTIAL_SCHEMA.empty_table()
    # within-batch dedup by doc_id, keep max (warc_ts, text_hash)
    text_hash = text_tie_hash(prep.column("text"))
    prep = prep.append_column("text_hash", pa.array(text_hash, type=pa.int64()))
    order = pc.sort_indices(
        prep,
        sort_keys=[
            ("doc_id", "ascending"),
            ("warc_ts", "descending"),
            ("text_hash", "descending"),
        ],
    )
    srt = prep.take(order)
    ids = srt.column("doc_id").to_numpy(zero_copy_only=False)
    first = np.ones(ids.size, dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    srt = srt.filter(pa.array(first))

    # tokenize the WHOLE batch once, then split postings/docmap by partition
    # (per-partition tokenize calls would drown in per-call overhead)
    doc_ids_all = srt.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    doc_sort = np.argsort(doc_ids_all, kind="stable")
    srt = srt.take(pa.array(doc_sort))
    doc_ids_all = doc_ids_all[doc_sort]
    parts_all = srt.column("partition").to_numpy(zero_copy_only=False)
    # NOTE: no term-string sort here — partial posting order is irrelevant
    # (the merge lexsorts globally on integer codes); the only string op on
    # the map side is the encoded kernel's single dictionary_encode, and its
    # codes ARE the per-batch dictionary indices (no second encode pass)
    batch_codes, pos_all, p_tfs_all, batch_dict = term_frequencies_encoded(srt.column("text"))
    doc_lens_all = np.bincount(pos_all, weights=p_tfs_all, minlength=doc_ids_all.size).astype(np.int64)
    p_parts = parts_all[pos_all]

    warc_all = srt.column("warc_ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    th_all = srt.column("text_hash").to_numpy(zero_copy_only=False)
    url_col = srt.column("url")
    lang_col = srt.column("lang")
    if isinstance(url_col, pa.ChunkedArray):
        url_col = url_col.combine_chunks()
    if isinstance(lang_col, pa.ChunkedArray):
        lang_col = lang_col.combine_chunks()

    # group postings and docmap rows by partition with ONE stable int argsort
    # each, then slice contiguous ranges (no per-partition O(N) masking)
    p_order = np.argsort(p_parts, kind="stable")
    p_sorted = p_parts[p_order]
    d_order = np.argsort(parts_all, kind="stable")
    d_sorted = parts_all[d_order]
    uniq_parts = np.unique(parts_all)
    p_bounds = np.searchsorted(p_sorted, uniq_parts)
    p_ends = np.append(p_bounds[1:], p_sorted.size)
    d_bounds = np.searchsorted(d_sorted, uniq_parts)
    d_ends = np.append(d_bounds[1:], d_sorted.size)

    parts_list, dm_ids_b, dm_lens_b, dm_ts_b, dm_th_b = [], [], [], [], []
    url_parts, lang_parts, dict_parts = [], [], []
    ptix_b, pdoc_b, ptf_b, tfmax_list = [], [], [], []
    wcode_list, word_list, wtf_list = [], [], []
    for pi, p in enumerate(uniq_parts):
        dsel_np = d_order[d_bounds[pi]: d_ends[pi]]
        psel = p_order[p_bounds[pi]: p_ends[pi]]
        codes = batch_codes[psel]
        used = np.unique(codes)
        local_codes = np.searchsorted(used, codes).astype(np.int32)
        parts_list.append(int(p))
        dm_ids_b.append(doc_ids_all[dsel_np].tobytes())
        dm_lens_b.append(doc_lens_all[dsel_np].astype(np.int32).tobytes())
        dm_ts_b.append(warc_all[dsel_np].tobytes())
        dm_th_b.append(th_all[dsel_np].tobytes())
        dsel = pa.array(dsel_np)
        url_parts.append(url_col.take(dsel))
        lang_parts.append(lang_col.take(dsel))
        # SORTED-RUN INVARIANT (consumed by the merge's bucket path): the
        # partial's term dictionary is stored LEXICOGRAPHICALLY sorted and
        # postings are stored sorted by (term code, doc ordinal). The
        # merge-side remap local->global-sorted-vocab is then monotone, so
        # each partial arrives as a pre-sorted run and the merge can bucket-
        # split instead of re-sorting the whole partition (cache-resident —
        # robust to the DRAM contention that capped 8->32 merge scaling).
        # These per-slice sorts are small (one batch x one partition) and run
        # on the map side, pipelined with the Parquet read.
        dict_slice = batch_dict.take(pa.array(used))
        lex_order = pa.compute.sort_indices(dict_slice).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        lex_rank = np.empty(lex_order.size, dtype=np.int32)
        lex_rank[lex_order] = np.arange(lex_order.size, dtype=np.int32)
        lex_codes = lex_rank[local_codes]
        dict_parts.append(dict_slice.take(pa.array(lex_order)))
        # ordinal of the posting's doc within THIS partial's docmap slice
        # (dsel_np is ascending, so searchsorted is exact membership)
        ords = np.searchsorted(dsel_np, pos_all[psel]).astype(np.int32)
        # (code, ord) keys are unique within the slice -> plain argsort
        key = (lex_codes.astype(np.int64) << np.int64(32)) | ords.astype(np.int64)
        o = np.argsort(key)
        tfs_slice = p_tfs_all[psel][o]
        tf_max = int(tfs_slice.max(initial=0))
        w_code = _width_for(used.size - 1)
        w_ord = _width_for(dsel_np.size - 1)
        w_tf = _width_for(tf_max)
        ptix_b.append(lex_codes[o].astype(_WIDTH_DT[w_code]).tobytes())
        pdoc_b.append(ords[o].astype(_WIDTH_DT[w_ord]).tobytes())
        ptf_b.append(tfs_slice.astype(_WIDTH_DT[w_tf]).tobytes())
        tfmax_list.append(tf_max)
        wcode_list.append(w_code)
        word_list.append(w_ord)
        wtf_list.append(w_tf)

    def _list_of(parts: list[pa.Array]) -> pa.ListArray:
        offs = np.zeros(len(parts) + 1, dtype=np.int32)
        offs[1:] = np.cumsum([len(x) for x in parts])
        return pa.ListArray.from_arrays(
            pa.array(offs), pa.concat_arrays([x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x for x in parts])
        )

    return pa.table(
        [
            pa.array(parts_list, type=pa.int32()),
            pa.array(dm_ids_b, type=pa.binary()),
            pa.array(dm_lens_b, type=pa.binary()),
            pa.array(dm_ts_b, type=pa.binary()),
            pa.array(dm_th_b, type=pa.binary()),
            _list_of(url_parts),
            _list_of(lang_parts),
            _list_of(dict_parts),
            pa.array(tfmax_list, type=pa.int32()),
            pa.array(wcode_list, type=pa.int8()),
            pa.array(word_list, type=pa.int8()),
            pa.array(wtf_list, type=pa.int8()),
            pa.array(ptix_b, type=pa.binary()),
            pa.array(pdoc_b, type=pa.binary()),
            pa.array(ptf_b, type=pa.binary()),
        ],
        schema=PARTIAL_SCHEMA,
    )


def map_partial_spill(
    batch: pa.Table, num_partitions: int, langs: tuple[str, ...] | None, spill_dir: str
) -> pa.Table:
    """Map side of the disk-spill shuffle: compute the partial exactly like
    map_partial, but WRITE each partition's partial row to
    spill_dir/part=P/ as a meta-<uid>.arrows + post-<uid>.arrows PAIR
    (atomic tmp+rename each) instead of returning it. The 'shuffle' is then
    just partitioned files on (shared) storage — the Spark-shuffle-file
    pattern, which also makes the map phase itself resumable and keeps the
    object store out of the exchange entirely.

    The pair split feeds the streaming merge: pass 1 decompresses only the
    small meta files; posting bytes stay on disk until their one streaming
    read. The POST file is written first, the META file second — a meta
    file's presence is the commit marker, so the merge (which iterates meta
    files) can never see a half-written pair; orphan post files from a
    crashed task are simply never read.

    Arrow IPC stream + LZ4 frames, not Parquet: a 1M-doc build spills ~250
    small files per partition, and Parquet's footer/statistics machinery was
    a measurable per-file fixed cost on BOTH sides of the exchange; the IPC
    path is a near-raw buffer write/read with the same lz4 compression."""
    part_tbl = map_partial(batch, num_partitions, langs)
    out = [int(p) for p in part_tbl.column("partition").to_pylist()]
    for i, p in enumerate(out):
        d = os.path.join(spill_dir, f"part={p:05d}")
        os.makedirs(d, exist_ok=True)
        _write_spill_pair(d, part_tbl.slice(i, 1))
    return pa.table({"partition": pa.array(out, type=pa.int32())})


def _write_spill_pair(d: str, row: pa.Table) -> None:
    """Write one partial row as its post-<uid>/meta-<uid> pair (atomic
    tmp+rename each). This helper OWNS the crash-safety ordering invariant:
    the post file lands first, the meta file second — a meta file's
    presence is the commit marker the streaming merge keys on, so a crash
    can only ever leave an orphan post file, which is never read."""
    import uuid

    import pyarrow.ipc as ipc

    opts = ipc.IpcWriteOptions(compression="lz4")
    uid = uuid.uuid4().hex
    for name, tbl in (
        (f"post-{uid}.arrows", row.select(["partition", *_POST_COLS])),
        (f"meta-{uid}.arrows", row.drop_columns(list(_POST_COLS))),
    ):
        tmp = os.path.join(d, f".tmp-{uuid.uuid4().hex}")
        with ipc.new_stream(tmp, tbl.schema, options=opts) as w:
            w.write_table(tbl)
        os.replace(tmp, os.path.join(d, name))


def merge_spilled_partition(
    partition: int, spill_dir: str, index_dir: str, cfg: IndexConfig,
    resume: set[int] | None = None,
) -> pa.Table:
    """Reduce side of the disk-spill shuffle (run as a raw Ray task — the
    streaming executor's heap accounting throttles reducer concurrency, raw
    tasks run at full parallelism): STREAMING k-way merge over part=P's
    spill pairs.

    Pass 1 reads only the meta files (docmaps + term dictionaries + tf_max
    — a few % of the spilled bytes) and fixes winners, the union
    vocabulary, and the packed sort-word layout. Pass 2 then streams post
    files ONE AT A TIME: each partial's decompressed posting buffers are
    remapped into its sorted uint64 run and freed before the next file is
    opened. Peak residency is the 8 B/posting word runs plus a single
    partial's buffers — the old path held every partial's 12 B/posting
    alongside the runs for the whole merge (VERDICT r3 'streaming k-way
    merge' item)."""
    import time as _t

    import pyarrow.ipc as ipc

    _clamp_worker_threads()
    if resume and partition in resume:
        return pa.table([[partition], [0], [0], [0], [0], [True]], schema=MANIFEST_ROW_SCHEMA)
    d = os.path.join(spill_dir, f"part={partition:05d}")
    if not os.path.isdir(d):
        return MANIFEST_ROW_SCHEMA.empty_table()
    metas = sorted(f for f in os.listdir(d) if f.startswith("meta-") and f.endswith(".arrows"))
    if not metas:
        return MANIFEST_ROW_SCHEMA.empty_table()
    _tm: dict[str, float] = {}
    _t0 = _t.perf_counter()
    meta_tables = []
    for f in metas:
        with ipc.open_stream(os.path.join(d, f)) as r:
            meta_tables.append(r.read_all())
    grp_meta = pa.concat_tables(meta_tables)
    del meta_tables
    _tm["read"] = _t.perf_counter() - _t0
    ctx = _merge_prepare(grp_meta, cfg, _tm)
    dts = _stream_dtypes(grp_meta)
    for i, f in enumerate(metas):
        _t0 = _t.perf_counter()
        pf = os.path.join(d, "post-" + f[len("meta-"):])
        with ipc.open_stream(pf) as r:
            post = r.read_all()
        _tm["read"] += _t.perf_counter() - _t0
        _t0 = _t.perf_counter()
        _winnow_partial(
            ctx, i,
            _bin_row_views(post.column("p_term_idx"))[0].view(dts[i][0]),
            _bin_row_views(post.column("p_doc_ord"))[0].view(dts[i][1]),
            _bin_row_views(post.column("p_tfs"))[0].view(dts[i][2]),
        )
        del post  # frees this partial's decompressed posting buffers
        _tm["winnow"] = _tm.get("winnow", 0.0) + (_t.perf_counter() - _t0)
    return _merge_finalize(ctx, partition, index_dir, cfg, _tm)


def _bin_row_views(col) -> list[np.ndarray]:
    """Zero-copy per-row uint8 views of a Binary column (no .as_py copies —
    the merge touches GBs; copies here showed up as kernel page-fault storms).

    Chunk-aware: a merge task's input is `pa.concat_tables` over one table
    per spill file, i.e. a ChunkedArray with many small chunks. Views are
    taken per chunk so the decompressed spill buffers are referenced IN
    PLACE — the old `combine_chunks()` re-copied every byte into one fresh
    buffer, doubling the merge task's peak RSS for zero benefit."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out: list[np.ndarray] = []
    for arr in chunks:
        if len(arr) == 0:
            continue
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
            arr.offset : arr.offset + len(arr) + 1
        ]
        vals = arr.buffers()[2]
        buf = (
            np.frombuffer(vals, dtype=np.uint8)
            if vals is not None
            else np.empty(0, np.uint8)
        )
        out.extend(buf[offs[i]: offs[i + 1]] for i in range(len(arr)))
    return out


def _merge_sorted_runs(runs: list[np.ndarray]) -> np.ndarray:
    """Merge k sorted uint64 runs into one sorted array by bucket-splitting.

    Sample-balanced bounds -> per-run searchsorted cuts -> per-bucket
    concat + in-cache introsort -> sequential write. DRAM traffic is ~one
    read + one write pass regardless of contention, vs. introsort-over-
    everything whose partition passes queue on the memory controller when
    32 merges run at once (measured 25.5s vs 1.2s for 30M words under a
    concurrent bandwidth hog; equal ~0.6s on an idle bus). Values are
    unique across runs (one winner partial per doc), so no stability or
    tie handling is needed."""
    runs = [r for r in runs if r.size]
    if not runs:
        return np.empty(0, dtype=np.uint64)
    if len(runs) == 1:
        return runs[0]
    total = sum(r.size for r in runs)
    n_buckets = total // 262_144  # ~2 MiB of uint64 per bucket: LLC-resident
    if n_buckets <= 1:
        cat = np.concatenate(runs)
        cat.sort()
        return cat
    samp = np.concatenate([r[:: max(1, r.size // 64)] for r in runs])
    samp.sort()
    bounds = samp[np.linspace(0, samp.size - 1, n_buckets + 1).astype(np.int64)][1:-1]
    cuts = [np.searchsorted(r, bounds) for r in runs]
    out = np.empty(total, dtype=np.uint64)
    off = 0
    for bi in range(n_buckets):
        parts = []
        for r, c in zip(runs, cuts):
            lo = 0 if bi == 0 else c[bi - 1]
            hi = r.size if bi == n_buckets - 1 else c[bi]
            if hi > lo:
                parts.append(r[lo:hi])
        if not parts:
            continue
        if len(parts) == 1:  # already sorted: straight copy
            chunk = parts[0]
        else:
            chunk = np.concatenate(parts)
            chunk.sort()
        out[off: off + chunk.size] = chunk
        off += chunk.size
    return out


class _MergeCtx:
    """State threaded through the three merge stages — `_merge_prepare`
    (winners + vocabulary + sort-word layout, METADATA ONLY), per-partial
    `_winnow_partial` (posting streams -> sorted packed runs), and
    `_merge_finalize` (k-way run merge + encode + write). Splitting the old
    monolithic merge this way is what lets `merge_spilled_partition` stream
    posting files one at a time instead of holding every partial's
    decompressed posting buffers for the whole merge."""

    __slots__ = (
        "n_partials", "dm_ids", "urls_cols", "langs_cols",
        "win_sorted", "win_partial_lookup",
        "win_by_doc_order", "win_lens", "rank_of",
        "global_vocab_arr", "dict_inv", "dict_offs",
        "fused", "bits_pos", "bits_code", "bits_tf", "sh_pos", "sh_code",
        "word_parts", "code_parts", "pos_parts", "tf_parts",
    )


def _merge_prepare(grp: pa.Table, cfg: IndexConfig, _tm: dict[str, float]) -> _MergeCtx:
    """Pass 1 of the merge — consumes ONLY metadata columns (dm_*, urls,
    langs, terms, tf_max; `grp` may carry posting columns too, they are not
    touched): resolve the recrawl winner per doc_id, build the union
    vocabulary + per-partial code remaps, fix the docid permutation for
    up-front strategies (hash/dense_url), and fix the packed sort-word
    widths from the spilled tf_max bound."""
    import time as _t

    _t0 = _t.perf_counter()
    ctx = _MergeCtx()
    n_partials = ctx.n_partials = len(grp)

    v_dm_ids = _bin_row_views(grp.column("dm_doc_ids"))
    v_dm_lens = _bin_row_views(grp.column("dm_doc_lens"))
    v_dm_ts = _bin_row_views(grp.column("dm_warc_ts"))
    v_dm_th = _bin_row_views(grp.column("dm_text_hash"))

    # 1. resolve winners per doc_id across partials: max (warc_ts, text_hash)
    dm_ids, dm_lens, dm_ts, dm_th, dm_part = [], [], [], [], []
    urls_cols, langs_cols = [], []
    for i in range(n_partials):
        ids = v_dm_ids[i].view(np.int64)
        dm_ids.append(ids)
        dm_lens.append(v_dm_lens[i].view(np.int32))
        dm_ts.append(v_dm_ts[i].view(np.int64))
        dm_th.append(v_dm_th[i].view(np.int64))
        dm_part.append(np.full(ids.size, i, dtype=np.int32))
        urls_cols.append(grp.column("dm_urls")[i].values)
        langs_cols.append(grp.column("dm_langs")[i].values)
    ctx.dm_ids = dm_ids
    ctx.urls_cols = urls_cols
    ctx.langs_cols = langs_cols
    all_ids = np.concatenate(dm_ids)
    all_ts = np.concatenate(dm_ts)
    all_th = np.concatenate(dm_th)
    all_partial = np.concatenate(dm_part)
    all_lens = np.concatenate(dm_lens)
    # winner = lexicographic max of (warc_ts, text_hash) per doc_id
    order = np.lexsort((-all_th, -all_ts, all_ids))
    s_ids = all_ids[order]
    first = np.ones(s_ids.size, dtype=bool)
    first[1:] = s_ids[1:] != s_ids[:-1]
    win_rows = order[first]                      # row index (into concatenated) per winner
    win_sorted = ctx.win_sorted = np.sort(s_ids[first])
    # winner partial per doc (aligned with win_ids sorted by doc_id)
    win_by_doc_order = ctx.win_by_doc_order = win_rows[np.argsort(s_ids[first], kind="stable")]
    ctx.win_partial_lookup = all_partial[win_by_doc_order]
    ctx.win_lens = all_lens[win_by_doc_order]

    # O4/O5 docid reorder (flatnav reorder() graft, bindings.cpp:285-295):
    # remap winners to dense ids interleaved by partition — id % P ==
    # partition still holds. rank_of[old docmap position] -> new rank:
    #   "dense_url" (O4) — rank = url sort order (domain locality)
    #   "gorder"    (O5) — rank = Gorder sliding-window ordering over the
    #                      shared-term doc graph (stages/reorder.py; computed
    #                      in _merge_finalize once the winnowed postings exist)
    _t1 = _t.perf_counter()
    _tm["winners"] = _tm.get("winners", 0.0) + (_t1 - _t0)
    rank_of: np.ndarray | None = None
    if cfg.docid_strategy == "dense_url":
        urls_concat = pa.concat_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in urls_cols]
        )
        win_urls_tmp = urls_concat.take(pa.array(win_by_doc_order.astype(np.int64)))
        url_order = pa.compute.sort_indices(win_urls_tmp).to_numpy(zero_copy_only=False)
        rank_of = np.empty(url_order.size, dtype=np.int64)
        rank_of[url_order] = np.arange(url_order.size)
    elif cfg.docid_strategy != "hash":
        from .reorder import is_graph_strategy

        assert is_graph_strategy(cfg.docid_strategy), (
            f"unknown docid_strategy {cfg.docid_strategy!r}"
        )
        # identity placeholder (empty-postings partitions keep dense ids);
        # replaced by the real graph permutation (gorder / rcm / a
        # '+'-sequence of them) once postings are winnowed
        rank_of = np.arange(win_sorted.size, dtype=np.int64)
    ctx.rank_of = rank_of

    # 2. union vocabulary: term strings never enter the posting sort — each
    # partial carries a SORTED local term dictionary; remap local int32
    # codes -> a global sorted vocabulary and sort on integers
    # (object-string sorts are 10x+ slower). Arrow-native: concat partial
    # dicts (StringArray), unique + sort + hash-join remap in C++.
    terms_col = grp.column("terms")
    terms_list = terms_col.combine_chunks() if isinstance(terms_col, pa.ChunkedArray) else terms_col
    all_dicts = terms_list.flatten()
    ctx.dict_offs = np.concatenate(
        ([0], np.cumsum([len(terms_col[i]) for i in range(n_partials)]))
    ).astype(np.int64)
    if len(all_dicts):
        u = pa.compute.unique(all_dicts)
        ctx.global_vocab_arr = u.take(pa.compute.sort_indices(u))
        ctx.dict_inv = pa.compute.index_in(all_dicts, value_set=ctx.global_vocab_arr).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
    else:
        ctx.global_vocab_arr = pa.array([], type=pa.string())
        ctx.dict_inv = np.empty(0, dtype=np.int64)

    # Sort-word layout (code | pos | tf packed into one uint64): keys are
    # unique per (term, doc) post-winnow, so the word order IS the
    # (code, pos) order, stability is vacuous, and an in-place VALUES-ONLY
    # introsort / bucket-merge gives byte-identical output. When the docid
    # permutation is known up-front (hash / dense_url) the word is packed
    # PER PARTIAL inside _winnow_partial: the three int32 streams then
    # never concatenate. bits_tf uses the spilled pre-winnow tf_max bound
    # (>= winnowed max — only the layout widens, the unpacked arrays are
    # identical), which is exactly what lets the streaming merge fix the
    # layout before any posting bytes are read.
    ctx.bits_pos = max(1, int(win_sorted.size - 1).bit_length()) if win_sorted.size > 1 else 1
    ctx.bits_code = (
        max(1, int(len(ctx.global_vocab_arr) - 1).bit_length())
        if len(ctx.global_vocab_arr) > 1 else 1
    )
    tfm = grp.column("tf_max").to_numpy(zero_copy_only=False)
    tf_bound = max(1, int(tfm.max(initial=0)))
    ctx.bits_tf = max(1, tf_bound.bit_length())
    ctx.fused = (
        cfg.docid_strategy in ("hash", "dense_url")
        and ctx.bits_code + ctx.bits_pos + ctx.bits_tf <= 64
    )
    ctx.sh_pos, ctx.sh_code = np.uint64(ctx.bits_tf), np.uint64(ctx.bits_tf + ctx.bits_pos)
    ctx.word_parts = []
    ctx.code_parts, ctx.pos_parts, ctx.tf_parts = [], [], []
    _tm["vocab"] = _tm.get("vocab", 0.0) + (_t.perf_counter() - _t1)
    return ctx


def _winnow_partial(
    ctx: _MergeCtx, i: int, codes: np.ndarray, ords: np.ndarray, tfs: np.ndarray
) -> None:
    """Winnow partial i's posting stream to winner docs and append its
    SORTED packed-word run (fused path) or raw remapped triple (graph
    strategies / width overflow). The output arrays are fresh copies — the
    caller may free the partial's decompressed buffers immediately after."""
    if ords.size == 0:
        return
    # winner resolution is PER DOC (one binary search per doc of this
    # partial); postings then gather from the partial-local per-doc
    # tables — a few hundred entries, cache-resident — instead of a
    # per-posting searchsorted over the whole partition's doc ids
    g = np.searchsorted(ctx.win_sorted, ctx.dm_ids[i])
    keep_doc = ctx.win_partial_lookup[g] == i
    keep = keep_doc[ords]
    if not keep.any():
        return
    ords_k = ords[keep]
    if ctx.fused:
        # per-doc packed (final position << sh_pos), gathered per posting
        doc_word = (
            (ctx.rank_of[g] if ctx.rank_of is not None else g).astype(np.uint64)
            << ctx.sh_pos
        )
        # pre-shifted remap table: the gather emits shifted codes directly
        remap_w = (
            ctx.dict_inv[ctx.dict_offs[i]: ctx.dict_offs[i + 1]].astype(np.uint64)
            << ctx.sh_code
        )
        ctx.word_parts.append(
            remap_w[codes[keep]]
            | doc_word[ords_k]
            | tfs[keep].astype(np.uint64)
        )
    else:
        remap = ctx.dict_inv[ctx.dict_offs[i]: ctx.dict_offs[i + 1]].astype(np.int32)
        ctx.code_parts.append(remap[codes[keep]])
        ctx.pos_parts.append(g.astype(np.int32)[ords_k])
        ctx.tf_parts.append(tfs[keep].astype(np.int32))


def _merge_finalize(
    ctx: _MergeCtx, partition: int, index_dir: str, cfg: IndexConfig,
    _tm: dict[str, float],
) -> pa.Table:
    """Final stage: k-way merge of the winnowed runs, delta+varint segment
    encode, docmap assembly, atomic writes + lineage manifest."""
    import time as _t

    _t0 = _t.perf_counter()

    def _lap(name: str) -> None:
        nonlocal _t0
        now = _t.perf_counter()
        _tm[name] = _tm.get(name, 0.0) + (now - _t0)
        _t0 = now

    win_sorted = ctx.win_sorted
    win_by_doc_order = ctx.win_by_doc_order
    win_lens = ctx.win_lens
    rank_of = ctx.rank_of
    global_vocab_arr = ctx.global_vocab_arr
    bits_pos, bits_code, bits_tf = ctx.bits_pos, ctx.bits_code, ctx.bits_tf
    sh_pos, sh_code = ctx.sh_pos, ctx.sh_code

    hasher = hashlib.blake2b(digest_size=16)
    if ctx.word_parts or ctx.code_parts:
        if ctx.fused:
            if rank_of is None:
                # hash strategy: local->global code remap is monotone (both
                # dictionaries lex-sorted) and doc ordinal -> final position
                # is monotone (both ascending by doc_id), so each partial's
                # packed words arrive SORTED (map-side invariant) —
                # bucket-merge instead of re-sorting the whole partition
                word = _merge_sorted_runs(ctx.word_parts)
            else:
                word = (
                    ctx.word_parts[0] if len(ctx.word_parts) == 1
                    else np.concatenate(ctx.word_parts)
                )
                word.sort()
            ctx.word_parts = []
            m_codes = (word >> sh_code).astype(np.int32)
            m_pos = ((word >> sh_pos) & np.uint64((1 << bits_pos) - 1)).astype(np.int32)
            m_tfs = (word & np.uint64((1 << bits_tf) - 1)).astype(np.int32)
            del word
            # posting blobs store partition-LOCAL dense positions (row index
            # into the final docmap), not raw 63-bit hash ids: per-term
            # deltas become ~n_docs/df instead of ~2^63/df, so varints drop
            # from ~9 bytes to 1-2 per posting.
        else:
            m_codes = np.concatenate(ctx.code_parts)
            m_pos = np.concatenate(ctx.pos_parts)
            m_tfs = np.concatenate(ctx.tf_parts)
            ctx.code_parts, ctx.pos_parts, ctx.tf_parts = [], [], []
            if rank_of is not None and cfg.docid_strategy != "dense_url":
                from .reorder import rank_of_for

                rank_of = rank_of_for(cfg.docid_strategy, m_pos, m_codes, win_sorted.size)
            if rank_of is not None:
                # reordered: final docmap is sorted by the NEW interleaved
                # ids, so a doc's docmap row = its rank within the partition
                m_pos = rank_of[m_pos].astype(np.int32)
            bits_tf_x = max(1, int(m_tfs.max()).bit_length())
            if bits_code + bits_pos + bits_tf_x <= 64:
                sh_pos_x, sh_code_x = np.uint64(bits_tf_x), np.uint64(bits_tf_x + bits_pos)
                word = (
                    (m_codes.astype(np.uint64) << sh_code_x)
                    | (m_pos.astype(np.uint64) << sh_pos_x)
                    | m_tfs.astype(np.uint64)
                )
                word.sort()
                m_codes = (word >> sh_code_x).astype(np.int32)
                m_pos = ((word >> sh_pos_x) & np.uint64((1 << bits_pos) - 1)).astype(np.int32)
                m_tfs = (word & np.uint64((1 << bits_tf_x) - 1)).astype(np.int32)
                del word
            else:  # >64-bit key space: fall back to argsort + gathers
                key = (m_codes.astype(np.int64) << np.int64(32)) | m_pos.astype(np.int64)
                order = np.argsort(key)  # keys unique => stability vacuous
                key = key[order]
                m_codes = (key >> np.int64(32)).astype(np.int32)
                m_pos = (key & np.int64(0xFFFFFFFF)).astype(np.int32)
                m_tfs = m_tfs[order]
                del key, order
        _lap("sort")
        cols, tb, _ = encode_segment_table(m_codes, m_pos, m_tfs, block_size=cfg.block_size)
        hasher.update(cols["doc_blob"].buffers()[2])
        segment = pa.table(
            [
                global_vocab_arr.take(pa.array(m_codes[tb].astype(np.int64))),
                cols["df"], cols["doc_blob"], cols["tf_blob"],
                cols["block_last_doc"], cols["block_doc_offs"], cols["block_tf_offs"],
            ],
            schema=SEGMENT_SCHEMA,
        )
        n_terms = len(tb)
    else:
        segment = SEGMENT_SCHEMA.empty_table()
        n_terms = 0

    _lap("encode")
    # 3. final docmap (winners, sorted by final doc_id). Under a reorder
    # strategy the winner-aligned arrays re-sort by the NEW interleaved ids
    # (rank * P + partition) so the docmap row index == posting position.
    if rank_of is not None:
        new_ids = rank_of * np.int64(cfg.num_partitions) + np.int64(partition)
        new_order = np.argsort(new_ids)
        win_by_doc_order = win_by_doc_order[new_order]
        win_lens = win_lens[new_order]
        win_new_sorted = new_ids[new_order]
    all_urls = pa.concat_arrays([c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in ctx.urls_cols])
    all_langs = pa.concat_arrays([c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in ctx.langs_cols])
    take = pa.array(win_by_doc_order.astype(np.int64))
    docmap = pa.table(
        [
            pa.array(win_new_sorted if rank_of is not None else win_sorted, type=pa.int64()),
            all_urls.take(take),
            pa.array(win_lens.astype(np.int32), type=pa.int32()),
            all_langs.take(take),
        ],
        schema=DOCMAP_SCHEMA,
    )
    seg_p = segment_path(index_dir, partition)
    dm_p = docmap_path(index_dir, partition)
    nbytes = _atomic_write_parquet(segment, seg_p)
    nbytes += _atomic_write_parquet(docmap, dm_p)
    sum_dl = int(win_lens.sum())
    write_manifest(
        index_dir,
        PartitionManifest(
            partition=partition,
            n_docs=int(win_sorted.size),
            sum_doc_len=sum_dl,
            n_terms=n_terms,
            bytes=nbytes,
            checksum=hasher.hexdigest(),
            segment_path=seg_p,
            docmap_path=dm_p,
            config_fingerprint=cfg.fingerprint(),
        ),
    )
    _lap("write")
    if os.environ.get("FLATNAV_MERGE_TIMING"):
        import sys as _sys

        print(
            f"[merge timing] part={partition} "
            + " ".join(f"{k}={v:.2f}s" for k, v in _tm.items()),
            file=_sys.stderr,
        )
    return pa.table(
        [[partition], [int(win_sorted.size)], [sum_dl], [n_terms], [nbytes], [False]],
        schema=MANIFEST_ROW_SCHEMA,
    )

