"""Index merge / compaction — the graft of the reference's external-graph
import + two-phase bulk-load surface (SURVEY.md S8 / §2.10:
`allocate_nodes().build_graph_links()` bindings.cpp:308-324, and
`buildGraphLinks` Index.h:187-238 which bulk-loads a pre-built index).

`merge_indexes([src_a, src_b, ...], out_dir)` combines several doc-partitioned
indexes (built with the SAME num_partitions / analyzer / block_size) into one:
per partition a raw Ray task decodes every source's posting lists + docmap,
resolves doc collisions (first source in the list wins — deterministic), and
re-encodes. This is the hierarchical-compaction primitive a long-running
ingest needs (daily segment sets -> one serving index)."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import IndexConfig
from ..functions.codec import decode_segment_postings, encode_segment_table
from ..state.manifest import PartitionManifest, write_manifest
from ..state.stats import load_stats, save_stats
from .build import (
    DOCMAP_SCHEMA,
    POSTING_COLUMNS,
    SEGMENT_SCHEMA,
    _atomic_write_parquet,
    _clamp_worker_threads,
    docmap_path,
    segment_path,
)
from .twophase import MERGE_NUM_CPUS


def _merge_one(partition: int, src_dirs: list[str], out_dir: str, cfg: IndexConfig,
               exclude_per_src: list | None = None) -> dict:
    _clamp_worker_threads()
    import pyarrow.compute as pc

    dm_parts = []
    post_parts = []  # (src_idx, term_row int64, src doc ids int64, tfs int64)
    term_cols = []   # per-source segment term column (aligned with term_row)
    for si, src in enumerate(src_dirs):
        dmp = docmap_path(src, partition)
        if not os.path.exists(dmp):
            continue
        dm = pq.read_table(dmp)
        # posting positions index the UNFILTERED docmap — keep the full id
        # vector for position->id resolution; tombstoned rows are dropped
        # from the winner table only (their postings then fail the
        # id-equality guard below and vanish from the merged segment)
        src_ids = dm.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        excl = exclude_per_src[si] if exclude_per_src is not None else None
        if excl is not None and len(excl):
            excl = np.asarray(excl, dtype=np.int64)
            epos = np.searchsorted(excl, src_ids)
            epos[epos == excl.size] = excl.size - 1
            dm = dm.filter(pa.array(excl[epos] != src_ids))
        dm_parts.append((si, dm))
        seg = pq.read_table(segment_path(src, partition), columns=POSTING_COLUMNS)
        # bulk-decode the whole segment (no per-term Python); blobs hold
        # docmap positions — resolve to real ids through the source's docmap
        trow, pos, tf = decode_segment_postings(
            seg.column("doc_blob"), seg.column("tf_blob"), seg.column("df"),
            block_size=cfg.block_size,
        )
        post_parts.append((len(term_cols), trow, src_ids[pos], tf))
        term_cols.append(seg.column("term"))
    if not dm_parts:
        return {"partition": partition, "n_docs": 0, "sum_doc_len": 0, "n_terms": 0, "bytes": 0}

    # winners: first source wins on doc_id collision
    all_ids = np.concatenate([t.column("doc_id").to_numpy(zero_copy_only=False) for _, t in dm_parts])
    all_src = np.concatenate([np.full(len(t), si, dtype=np.int32) for si, t in dm_parts])
    all_len = np.concatenate(
        [t.column("doc_len").to_numpy(zero_copy_only=False).astype(np.int64) for _, t in dm_parts]
    )
    order = np.lexsort((all_src, all_ids))
    s_ids = all_ids[order]
    first = np.ones(s_ids.size, dtype=bool)
    first[1:] = s_ids[1:] != s_ids[:-1]
    win_rows = order[first]
    win_ids = all_ids[win_rows]
    win_src = all_src[win_rows]
    win_len = all_len[win_rows]

    # global sorted vocabulary across sources; per-source remap is one
    # Arrow hash join (index_in) — term strings never enter the posting sort
    if term_cols:
        all_terms = pa.concat_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in term_cols]
        )
        u = pc.unique(all_terms)
        vocab = u.take(pc.sort_indices(u))
        code_of = [
            pc.index_in(
                c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c, value_set=vocab
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            for c in term_cols
        ]
    else:
        vocab = pa.array([], type=pa.string())
        code_of = []

    codes_parts, pos_parts, tfs_parts = [], [], []
    for ci, trow, d, tf in post_parts:
        si = dm_parts[ci][0]
        wpos = np.searchsorted(win_ids, d)
        # id-equality guard: a tombstone-excluded doc_id is absent from
        # win_ids entirely — searchsorted then points at some OTHER winner,
        # which must not capture the dead doc's postings
        np.minimum(wpos, max(win_ids.size - 1, 0), out=wpos)
        if win_ids.size == 0:
            continue
        keep = (win_ids[wpos] == d) & (win_src[wpos] == si)
        if keep.any():
            codes_parts.append(code_of[ci][trow[keep]])
            pos_parts.append(wpos[keep])
            tfs_parts.append(tf[keep])
    hasher = hashlib.blake2b(digest_size=16)
    if codes_parts:
        m_codes = np.concatenate(codes_parts)
        m_pos = np.concatenate(pos_parts)
        m_tfs = np.concatenate(tfs_parts)
        # positions ascend with doc ids within a partition, so (code, pos)
        # sorts identically to the old (term string, doc id) lexsort
        srt = np.lexsort((m_pos, m_codes))
        m_codes, m_pos, m_tfs = m_codes[srt], m_pos[srt], m_tfs[srt]
        # encode docmap POSITIONS in the merged index (same format as build)
        cols, tb, _ = encode_segment_table(m_codes, m_pos, m_tfs, block_size=cfg.block_size)
        hasher.update(cols["doc_blob"].buffers()[2])
        segment = pa.table(
            [
                vocab.take(pa.array(m_codes[tb].astype(np.int64))),
                cols["df"], cols["doc_blob"], cols["tf_blob"],
                cols["block_last_doc"], cols["block_doc_offs"], cols["block_tf_offs"],
            ],
            schema=SEGMENT_SCHEMA,
        )
        n_terms = len(tb)
    else:
        segment = SEGMENT_SCHEMA.empty_table()
        n_terms = 0

    # docmap: winners sorted by doc_id, urls/langs gathered from their source
    url_parts, lang_parts = [], []
    for si, t in dm_parts:
        url_parts.append(t.column("url"))
        lang_parts.append(t.column("lang"))
    urls = pa.concat_arrays(
        [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in url_parts]
    )
    langs = pa.concat_arrays(
        [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in lang_parts]
    )
    take = pa.array(win_rows.astype(np.int64))
    docmap = pa.table(
        [
            pa.array(win_ids, type=pa.int64()),
            urls.take(take),
            pa.array(win_len.astype(np.int32), type=pa.int32()),
            langs.take(take),
        ],
        schema=DOCMAP_SCHEMA,
    )
    seg_p = segment_path(out_dir, partition)
    dm_p = docmap_path(out_dir, partition)
    nbytes = _atomic_write_parquet(segment, seg_p)
    nbytes += _atomic_write_parquet(docmap, dm_p)
    write_manifest(
        out_dir,
        PartitionManifest(
            partition=partition,
            n_docs=int(win_ids.size),
            sum_doc_len=int(win_len.sum()),
            n_terms=n_terms,
            bytes=nbytes,
            checksum=hasher.hexdigest(),
            segment_path=seg_p,
            docmap_path=dm_p,
            config_fingerprint=cfg.fingerprint(),
            stage="compacted",
            input_files=src_dirs,
        ),
    )
    return {
        "partition": partition,
        "n_docs": int(win_ids.size),
        "sum_doc_len": int(win_len.sum()),
        "n_terms": n_terms,
        "bytes": nbytes,
    }


def merge_indexes(src_dirs: list[str], out_dir: str, cfg: IndexConfig | None = None,
                  exclude_per_src: list | None = None) -> dict:
    """Compact several same-config indexes into one (raw Ray tasks, one per
    partition). Returns the merged stats dict (also written to out_dir).

    `exclude_per_src` (optional, aligned with src_dirs): per-source sorted
    int64 doc_id arrays to DROP — the tombstone-apply path of compaction
    (pipelines/ingest.delete_documents): excluded docs leave the docmap and
    their postings leave the segments, physically reclaiming the space."""
    import ray

    from ..pipelines.build import _build_term_stats

    stats0 = load_stats(src_dirs[0])
    cfg = cfg or IndexConfig(
        num_partitions=int(stats0["num_partitions"]),
        block_size=int(stats0["block_size"]),
    )
    # decode_segment_postings reconstructs block-absolute positions from
    # cfg.block_size — a source built with a different block_size would
    # silently corrupt postings in the merge. Scorer params must match too
    # (they are part of the serving stats the merged index inherits).
    for s in src_dirs[1:]:
        st = load_stats(s)
        if int(st["num_partitions"]) != cfg.num_partitions:
            raise ValueError("partition counts must match")
        for key, cast in (("analyzer", str), ("block_size", int), ("scorer", str),
                          ("k1", float), ("b", float)):
            if cast(st[key]) != cast(stats0[key]):
                raise ValueError(f"{key} mismatch")
    if int(stats0["block_size"]) != cfg.block_size:
        raise ValueError("block_size mismatch")
    os.makedirs(out_dir, exist_ok=True)
    # DRAM-bound like the build merge (see twophase.MERGE_NUM_CPUS)
    merge_cpus = max(1, min(MERGE_NUM_CPUS, int(ray.cluster_resources().get("CPU", 1))))
    task = ray.remote(num_cpus=merge_cpus)(_merge_one)
    parts = sorted({int(p) for s in src_dirs for p in load_stats(s)["partitions"]})
    out = ray.get(
        [task.remote(p, src_dirs, out_dir, cfg, exclude_per_src) for p in parts]
    )
    n_docs = sum(o["n_docs"] for o in out)
    sum_dl = sum(o["sum_doc_len"] for o in out)
    _build_term_stats(out_dir)
    stats = {
        "n_docs": n_docs,
        "sum_doc_len": sum_dl,
        "avgdl": (sum_dl / n_docs) if n_docs else 0.0,
        "num_partitions": cfg.num_partitions,
        "partitions": [o["partition"] for o in out if o["n_docs"]],
        "config_fingerprint": cfg.fingerprint(),
        "block_size": cfg.block_size,
        "k1": cfg.k1,
        "b": cfg.b,
        "scorer": cfg.scorer,
        "analyzer": cfg.analyzer,
        "layout": "doc",
        "compacted_from": src_dirs,
    }
    save_stats(out_dir, stats)
    return stats
