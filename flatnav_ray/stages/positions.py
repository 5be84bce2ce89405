"""Positional sidecar — token positions per (term, doc), enabling exact
phrase retrieval (`QueryConfig.method="phrase"`).

The reference has no phrase capability (its payload is opaque vectors), but a
full-text serving engine's users expect it; this is the positional-postings
extension of the same index design (SURVEY.md §2.10 layout-strategy slot).
Like Lucene's .pos files the sidecar is a SEPARATE per-partition artifact so
the main (doc_id, tf) segments — and the index build — stay position-free;
workloads that never issue phrase queries never pay for positions.

Build: the same two-phase shape as the index build (twophase.py) — the map
side tokenizes once and packs int blobs, so the groupby(partition) shuffle
moves dictionary-coded occurrences (~4 B/token + a per-batch dictionary),
never raw text, and the reducers never re-extract or re-tokenize:

    pages -> map_positions_partial: prepare + within-batch winner dedup
             (the SAME rule as twophase.map_partial) + token_positions +
             per-partition packed partial rows
          -> groupby(partition)
          -> merge_positions_partition: cross-partial winner resolution
             (same rule), docmap-row alignment by URL, global-vocab remap,
             one values-only packed sort, per-term position lists
          -> possegment-P.parquet (atomic tmp+rename, resumable)

Alignment invariant (asserted by tests): row j of a term's position lists
corresponds to the j-th posting of that term in the MAIN segment (both are
docmap-position ascending over the identical winner set). Doc rows are
matched to docmap rows by URL, so the sidecar works under every
docid_strategy (hash / dense_url / graph reorders).

Layout: one row per term — `pos_offs` (df+1 offsets) slicing `pos_flat`
(token positions, doc-major). Plain Arrow list<int32> columns: positions are
small ints and Parquet's own encodings compress them; at 100 TB the flat
stream would get the same delta+varint treatment as the doc blobs
(functions/codec.py), which is an internal-format change only.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import IndexConfig
from ..functions.tokenize import token_positions, union_vocab
from .build import _atomic_write_parquet, _clamp_worker_threads, docmap_path, text_tie_hash
from .twophase import _bin_row_views

POS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("pos_offs", pa.list_(pa.int32())),  # df+1 offsets into pos_flat
        ("pos_flat", pa.list_(pa.int32())),  # token positions, doc-major
    ]
)

POS_PARTIAL_SCHEMA = pa.schema(
    [
        ("partition", pa.int32()),
        # per-doc (within-batch winners, doc_id ascending)
        ("dm_doc_ids", pa.binary()),    # int64
        ("dm_warc_ts", pa.binary()),    # int64 (us)
        ("dm_text_hash", pa.binary()),  # int64
        ("dm_ntoks", pa.binary()),      # int32 token count per doc
        ("dm_urls", pa.list_(pa.string())),
        # per-occurrence: local dict codes in TOKEN ORDER (doc-major) — the
        # token stream itself. Doc index and position-within-doc are implied
        # by dm_ntoks (repeat / running ranges), so the shuffled payload is
        # 4 B/token, ~30% below the raw text it replaces
        ("terms", pa.list_(pa.string())),  # sorted local dictionary
        # byte width (2 or 4) of o_codes: a map batch's local dictionary
        # almost always fits uint16, halving the dominant shuffled stream
        # (same width-adaptive packing as twophase's posting streams)
        ("w_code", pa.int8()),
        ("o_codes", pa.binary()),       # uint16|uint32 local dict code
    ]
)

POS_MANIFEST_SCHEMA = pa.schema(
    [
        ("partition", pa.int64()),
        ("n_terms", pa.int64()),
        ("n_positions", pa.int64()),
        ("skipped", pa.bool_()),
    ]
)


def positions_path(index_dir: str, partition: int) -> str:
    return os.path.join(index_dir, "positions", f"possegment-{partition:05d}.parquet")


def map_positions_partial(
    batch: pa.Table, num_partitions: int, langs: tuple[str, ...] | None
) -> pa.Table:
    """Map side: extract + within-batch winner dedup (the two-phase build's
    rule: per doc_id keep max (warc_ts, text_hash)) + tokenize WITH positions
    + one packed partial row per partition present in the batch."""
    from ..pipelines.build import prepare_batch

    _clamp_worker_threads()
    prep = prepare_batch(batch, num_partitions, langs)
    if len(prep) == 0:
        return POS_PARTIAL_SCHEMA.empty_table()
    th = text_tie_hash(prep.column("text"))
    prep = prep.append_column("text_hash", pa.array(th, type=pa.int64()))
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
    if ids.size > 1:
        first[1:] = ids[1:] != ids[:-1]
    srt = srt.filter(pa.array(first))  # doc_id ascending winners

    parents, toks, tpos = token_positions(srt.column("text"))
    doc_ids = srt.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    warc = srt.column("warc_ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    thw = srt.column("text_hash").to_numpy(zero_copy_only=False)
    parts_of_doc = srt.column("partition").to_numpy(zero_copy_only=False)
    url_col = srt.column("url")
    if isinstance(url_col, pa.ChunkedArray):
        url_col = url_col.combine_chunks()

    dic_sorted, rcodes = union_vocab(toks)
    rcodes = rcodes.astype(np.int32)
    occ_part = parts_of_doc[parents] if parents.size else np.empty(0, dtype=parts_of_doc.dtype)
    ntoks = np.bincount(parents, minlength=parts_of_doc.size).astype(np.int32)

    d_order = np.argsort(parts_of_doc, kind="stable")
    o_order = np.argsort(occ_part, kind="stable")  # keeps token order per doc
    d_sorted = parts_of_doc[d_order]
    o_sorted = occ_part[o_order]
    uniq_parts = np.unique(parts_of_doc)
    d_bounds = np.searchsorted(d_sorted, uniq_parts)
    d_ends = np.append(d_bounds[1:], d_sorted.size)
    o_bounds = np.searchsorted(o_sorted, uniq_parts)
    o_ends = np.append(o_bounds[1:], o_sorted.size)

    from .twophase import _WIDTH_DT, _width_for

    parts_list, dm_ids_b, dm_ts_b, dm_th_b, dm_nt_b = [], [], [], [], []
    url_parts, dict_parts, oc_b, wcode_list = [], [], [], []
    for pi, p in enumerate(uniq_parts):
        dsel = d_order[d_bounds[pi]: d_ends[pi]]
        osel = o_order[o_bounds[pi]: o_ends[pi]]
        parts_list.append(int(p))
        dm_ids_b.append(doc_ids[dsel].tobytes())
        dm_ts_b.append(warc[dsel].tobytes())
        dm_th_b.append(thw[dsel].tobytes())
        dm_nt_b.append(ntoks[dsel].tobytes())
        url_parts.append(url_col.take(pa.array(dsel)))
        pcodes = rcodes[osel]
        used = np.unique(pcodes)
        dict_parts.append(dic_sorted.take(pa.array(used)))
        w_code = _width_for(used.size - 1)
        oc_b.append(np.searchsorted(used, pcodes).astype(_WIDTH_DT[w_code]).tobytes())
        wcode_list.append(w_code)

    def _list_of(parts: list[pa.Array]) -> pa.ListArray:
        offs = np.zeros(len(parts) + 1, dtype=np.int32)
        offs[1:] = np.cumsum([len(x) for x in parts])
        return pa.ListArray.from_arrays(
            pa.array(offs),
            pa.concat_arrays(
                [x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x for x in parts]
            ),
        )

    return pa.table(
        [
            pa.array(parts_list, type=pa.int32()),
            pa.array(dm_ids_b, type=pa.binary()),
            pa.array(dm_ts_b, type=pa.binary()),
            pa.array(dm_th_b, type=pa.binary()),
            pa.array(dm_nt_b, type=pa.binary()),
            _list_of(url_parts),
            _list_of(dict_parts),
            pa.array(wcode_list, type=pa.int8()),
            pa.array(oc_b, type=pa.binary()),
        ],
        schema=POS_PARTIAL_SCHEMA,
    )


def merge_positions_partition(grp: pa.Table, index_dir: str) -> pa.Table:
    """Reduce side: all of one partition's packed partials -> possegment.
    Winner resolution replicates twophase._merge_prepare step 1
    bit-for-bit; occurrence order is restored by ONE values-only packed sort
    on (term code, docmap row, token position) — unique keys, introsort."""
    _clamp_worker_threads()
    if len(grp) == 0:
        return POS_MANIFEST_SCHEMA.empty_table()
    partition = int(grp.column("partition")[0].as_py())
    out_path = positions_path(index_dir, partition)
    if os.path.exists(out_path):  # resume: sidecar files are atomic
        return pa.table([[partition], [0], [0], [True]], schema=POS_MANIFEST_SCHEMA)
    n_partials = len(grp)

    from .twophase import _WIDTH_DT

    v_ids = _bin_row_views(grp.column("dm_doc_ids"))
    v_ts = _bin_row_views(grp.column("dm_warc_ts"))
    v_th = _bin_row_views(grp.column("dm_text_hash"))
    v_nt = _bin_row_views(grp.column("dm_ntoks"))
    v_oc = _bin_row_views(grp.column("o_codes"))
    w_codes = grp.column("w_code").to_numpy(zero_copy_only=False)

    dm_ids = [v.view(np.int64) for v in v_ids]
    all_ids = np.concatenate(dm_ids)
    all_ts = np.concatenate([v.view(np.int64) for v in v_ts])
    all_th = np.concatenate([v.view(np.int64) for v in v_th])
    all_partial = np.concatenate(
        [np.full(v.view(np.int64).size, i, dtype=np.int32) for i, v in enumerate(v_ids)]
    )
    order = np.lexsort((-all_th, -all_ts, all_ids))
    s_ids = all_ids[order]
    first = np.ones(s_ids.size, dtype=bool)
    if s_ids.size > 1:
        first[1:] = s_ids[1:] != s_ids[:-1]
    win_rows = order[first]
    win_sorted = np.sort(s_ids[first])
    win_by_doc_order = win_rows[np.argsort(s_ids[first], kind="stable")]
    win_partial = all_partial[win_by_doc_order]

    urls_col = grp.column("dm_urls")
    urls_list = urls_col.combine_chunks() if isinstance(urls_col, pa.ChunkedArray) else urls_col
    all_urls = urls_list.flatten()
    win_urls = all_urls.take(pa.array(win_by_doc_order.astype(np.int64)))
    dm_urls = pq.read_table(docmap_path(index_dir, partition), columns=["url"]).column(
        "url"
    ).combine_chunks()
    dmrow = pc.index_in(win_urls, value_set=dm_urls)
    if dmrow.null_count:
        raise ValueError(
            "positional sidecar input does not match the index docmap "
            "(build the sidecar from the SAME corpus the index was built from)"
        )
    dmrow_of_win = dmrow.to_numpy(zero_copy_only=False).astype(np.int64)

    # global sorted vocabulary + per-partial remap (local dicts are sorted,
    # so the remap is monotone within a partial)
    terms_col = grp.column("terms")
    terms_list = terms_col.combine_chunks() if isinstance(terms_col, pa.ChunkedArray) else terms_col
    dict_offs = np.concatenate(
        ([0], np.cumsum([len(terms_col[i]) for i in range(n_partials)]))
    ).astype(np.int64)
    vocab, dict_inv = union_vocab(terms_list.flatten())

    bits_row = max(1, int(dmrow_of_win.max()).bit_length()) if dmrow_of_win.size else 1
    tp_bound = 1
    for v in v_nt:
        if v.size:
            tp_bound = max(tp_bound, int(v.view(np.int32).max()))
    bits_tp = max(1, tp_bound.bit_length())  # positions < per-doc token count
    bits_code = max(1, int(len(vocab) - 1).bit_length()) if len(vocab) > 1 else 1
    if bits_code + bits_row + bits_tp > 64:
        raise ValueError(
            "packed key overflow (vocab x docs x positions too wide for one "
            "partition — raise num_partitions)"
        )
    sh_row, sh_code = np.uint64(bits_tp), np.uint64(bits_tp + bits_row)

    word_parts: list[np.ndarray] = []
    for i in range(n_partials):
        ntoks = v_nt[i].view(np.int32).astype(np.int64)
        if ntoks.size == 0:
            continue
        # doc-level winner test, expanded to the token stream by repeat —
        # doc index and token position are IMPLIED by dm_ntoks, never shipped
        pos_doc = np.searchsorted(win_sorted, dm_ids[i])
        keep_doc = win_partial[pos_doc] == i
        if not keep_doc.any():
            continue
        keep_occ = np.repeat(keep_doc, ntoks)
        codes_kept = v_oc[i].view(_WIDTH_DT[w_codes[i]])[keep_occ]
        if codes_kept.size == 0:
            continue
        nt_kept = ntoks[keep_doc]
        rows_occ = np.repeat(dmrow_of_win[pos_doc[keep_doc]].astype(np.uint64), nt_kept)
        tokpos = np.arange(codes_kept.size, dtype=np.uint64) - np.repeat(
            (np.cumsum(nt_kept) - nt_kept).astype(np.uint64), nt_kept
        )
        remap_w = dict_inv[dict_offs[i]: dict_offs[i + 1]].astype(np.uint64) << sh_code
        word_parts.append(remap_w[codes_kept] | (rows_occ << sh_row) | tokpos)
    if not word_parts:
        _atomic_write_parquet(POS_SCHEMA.empty_table(), out_path)
        return pa.table([[partition], [0], [0], [False]], schema=POS_MANIFEST_SCHEMA)
    word = word_parts[0] if len(word_parts) == 1 else np.concatenate(word_parts)
    del word_parts
    word.sort()  # unique keys (distinct positions) => introsort, values-only
    rc = (word >> sh_code).astype(np.int64)
    dp = ((word >> sh_row) & np.uint64((1 << bits_row) - 1)).astype(np.int64)
    tp = (word & np.uint64((1 << bits_tp) - 1)).astype(np.int64)
    del word

    t_new = np.empty(rc.size, dtype=bool)
    t_new[0] = True
    t_new[1:] = rc[1:] != rc[:-1]
    term_starts = np.flatnonzero(t_new)
    term_ends = np.append(term_starts[1:], rc.size)
    d_new = t_new.copy()
    d_new[1:] |= dp[1:] != dp[:-1]
    ds_global = np.flatnonzero(d_new)
    term_of_ds = np.searchsorted(term_starts, ds_global, side="right") - 1
    n_terms = term_starts.size
    df_t = np.bincount(term_of_ds, minlength=n_terms)

    out_offs = np.zeros(n_terms + 1, dtype=np.int64)
    out_offs[1:] = np.cumsum(df_t + 1)
    vals = np.empty(out_offs[-1], dtype=np.int64)
    end_slots = out_offs[1:] - 1
    non_end = np.ones(vals.size, dtype=bool)
    non_end[end_slots] = False
    vals[non_end] = ds_global - term_starts[term_of_ds]
    vals[end_slots] = term_ends - term_starts

    pos_offs_col = pa.ListArray.from_arrays(
        pa.array(out_offs, type=pa.int32()), pa.array(vals, type=pa.int32())
    )
    flat_offs = np.append(term_starts, rc.size)
    pos_flat_col = pa.ListArray.from_arrays(
        pa.array(flat_offs, type=pa.int32()), pa.array(tp, type=pa.int32())
    )
    table = pa.table(
        [vocab.take(pa.array(rc[term_starts])), pos_offs_col, pos_flat_col],
        schema=POS_SCHEMA,
    )
    _atomic_write_parquet(table, out_path)
    return pa.table(
        [[partition], [int(n_terms)], [int(rc.size)], [False]],
        schema=POS_MANIFEST_SCHEMA,
    )


def build_position_sidecar(ds, index_dir: str, cfg: IndexConfig) -> pa.Table:
    """Build the positional sidecar over the SAME corpus (and the same
    IndexConfig analyzer/partitioning) the index at `index_dir` was built
    from. Ray-Data-first two-phase: map-side tokenize+pack (the shuffle
    moves dictionary-coded int blobs, never raw text), one
    groupby(partition) exchange, one reducer per partition, atomic
    per-partition outputs (resumable — existing possegments are skipped)."""
    prepped = ds.map_batches(
        lambda b: map_positions_partial(b, cfg.num_partitions, cfg.langs),
        batch_format="pyarrow",
        zero_copy_batch=True,
        # large batches amortize the per-(batch, partition) dictionary: tiny
        # partials made dictionary strings dominate the shuffled bytes
        batch_size=4096,
    )
    res = prepped.groupby("partition").map_groups(
        lambda g: merge_positions_partition(g, index_dir), batch_format="pyarrow"
    )
    batches = list(res.iter_batches(batch_format="pyarrow"))
    return (
        pa.concat_tables(batches).sort_by("partition")
        if batches
        else POS_MANIFEST_SCHEMA.empty_table()
    )
