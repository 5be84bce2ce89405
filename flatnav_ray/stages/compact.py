"""Index merge / compaction — the graft of the reference's external-graph
import + two-phase bulk-load surface (SURVEY.md S8 / §2.10:
`allocate_nodes().build_graph_links()` bindings.cpp:308-324, and
`buildGraphLinks` Index.h:187-238 which bulk-loads a pre-built index).

`merge_indexes([src_a, src_b, ...], out_dir)` combines several doc-partitioned
indexes (built with the SAME num_partitions / analyzer / block_size) into one:
per partition a raw Ray task folds every source's docmap and segment the
way the build's merge (stages/twophase.py) folds its partials:

    read        each source's docmap and its segment's posting columns
    winners     once per docmap row: tombstoned rows drop out, the first
                source in the list wins a doc_id collision (deterministic),
                and each source row maps to its merged docmap position or -1
    vocabulary  one union_vocab pass over the sources' term columns
    postings    bulk-decode each segment; one gather per posting through
                the row -> position table drops the losers' postings
    sort        (code, pos, tf) as one packed word (twophase.sort_postings)
    encode      re-encode and write segment, docmap and manifest

This is the hierarchical-compaction primitive a long-running ingest needs
(daily segment sets -> one serving index), and the fold of
pipelines/ingest.py's generation stack."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import IndexConfig
from ..functions.codec import decode_segment_postings, encode_segment_table, packed_tf
from ..functions.tokenize import union_vocab
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
    segment_table,
)
from .twophase import MERGE_NUM_CPUS, sort_postings


def _concat(cols: list) -> pa.Array:
    return pa.concat_arrays(
        [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in cols]
    )


def _merge_one(partition: int, src_dirs: list[str], out_dir: str, cfg: IndexConfig,
               exclude_per_src: list | None = None) -> dict:
    _clamp_worker_threads()
    dms, posts, terms = [], [], []
    for si, src in enumerate(src_dirs):
        dmp = docmap_path(src, partition)
        if not os.path.exists(dmp):
            continue
        dm = pq.ParquetFile(dmp).read(use_threads=False)
        # either tf codec in, the packed one out
        seg = packed_tf(pq.ParquetFile(segment_path(src, partition)).read(
            columns=POSTING_COLUMNS, use_threads=False
        ))
        # bulk-decode the whole segment (no per-term Python); positions
        # index the source's full docmap
        posts.append(decode_segment_postings(
            seg.column("doc_blob"), seg.column("tf_blob"), seg.column("df"),
            block_size=cfg.block_size,
        ))
        dms.append((si, dm))
        terms.append(seg.column("term"))
    if not dms:
        return {"partition": partition, "n_docs": 0, "sum_doc_len": 0, "n_terms": 0, "bytes": 0}

    # winners, once per docmap row: every source row in source order; a
    # tombstoned row never competes, and a stable sort by doc_id puts the
    # first source's copy first
    ids = np.concatenate(
        [dm.column("doc_id").to_numpy(zero_copy_only=False) for _, dm in dms]
    ).astype(np.int64)
    row_off = np.cumsum([0] + [len(dm) for _, dm in dms])
    live = np.ones(ids.size, dtype=bool)
    for k, (si, _) in enumerate(dms):
        excl = exclude_per_src[si] if exclude_per_src is not None else None
        if excl is not None:
            live[row_off[k]: row_off[k + 1]] = ~np.isin(ids[row_off[k]: row_off[k + 1]], excl)
    cand = np.flatnonzero(live)
    order = cand[np.argsort(ids[cand], kind="stable")]
    first = np.ones(order.size, dtype=bool)
    first[1:] = ids[order[1:]] != ids[order[:-1]]
    win_rows = order[first]  # doc_id ascending: merged position = index
    merged_pos = np.full(ids.size, -1, dtype=np.int64)
    merged_pos[win_rows] = np.arange(win_rows.size)

    vocab, codes = union_vocab(_concat(terms))
    term_off = np.cumsum([0] + [len(t) for t in terms])
    code_parts, pos_parts, tf_parts = [], [], []
    for k, (trow, pos, tf) in enumerate(posts):
        mpos = merged_pos[row_off[k]: row_off[k + 1]][pos]
        keep = mpos >= 0
        code_parts.append(codes[term_off[k]: term_off[k + 1]][trow[keep]])
        pos_parts.append(mpos[keep])
        tf_parts.append(tf[keep])
    m_codes = np.concatenate(code_parts)
    hasher = hashlib.blake2b(digest_size=16)
    if m_codes.size:
        m_codes, m_pos, m_tfs = sort_postings(
            m_codes, np.concatenate(pos_parts), np.concatenate(tf_parts)
        )
        # encode docmap POSITIONS in the merged index (same format as build)
        cols, tb, _ = encode_segment_table(m_codes, m_pos, m_tfs, block_size=cfg.block_size)
        hasher.update(cols["doc_blob"].buffers()[2])
        segment = segment_table(vocab.take(pa.array(m_codes[tb].astype(np.int64))), cols)
        n_terms = len(tb)
    else:
        segment = SEGMENT_SCHEMA.empty_table()
        n_terms = 0

    # docmap: winners by doc_id, every column gathered from its source row
    take = pa.array(win_rows)
    win_len = np.concatenate(
        [dm.column("doc_len").to_numpy(zero_copy_only=False) for _, dm in dms]
    )[win_rows].astype(np.int64)
    n_docs, sum_dl = int(win_rows.size), int(win_len.sum())
    docmap = pa.table(
        [
            pa.array(ids[win_rows], type=pa.int64()),
            _concat([dm.column("url") for _, dm in dms]).take(take),
            pa.array(win_len.astype(np.int32), type=pa.int32()),
            _concat([dm.column("lang") for _, dm in dms]).take(take),
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
            n_docs=n_docs,
            sum_doc_len=sum_dl,
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
        "n_docs": n_docs,
        "sum_doc_len": sum_dl,
        "n_terms": n_terms,
        "bytes": nbytes,
    }


def merge_indexes(src_dirs: list[str], out_dir: str, cfg: IndexConfig | None = None,
                  exclude_per_src: list | None = None) -> dict:
    """Compact several same-config indexes into one (raw Ray tasks, one per
    partition). Returns the merged stats dict (also written to out_dir).

    `exclude_per_src` (optional, one entry per src_dir, None for none): int64
    doc_id arrays to DROP from that source — the tombstone-apply path of
    compaction (pipelines/ingest.delete_documents): excluded docs leave the
    docmap and their postings leave the segments, physically reclaiming the
    space. Any order and duplicates are accepted."""
    import ray

    from ..pipelines.build import _build_term_stats

    if exclude_per_src is not None:
        if len(exclude_per_src) != len(src_dirs):
            raise ValueError(
                f"exclude_per_src has {len(exclude_per_src)} entries for "
                f"{len(src_dirs)} sources"
            )
        exclude_per_src = [
            None if e is None else np.unique(np.asarray(e, dtype=np.int64))
            for e in exclude_per_src
        ]
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
