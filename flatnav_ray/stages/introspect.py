"""Index introspection — graft of the reference's degree-distribution /
memory-accounting surface (/root/reference/include/flatnav/index/Index.h:240-251
`getDegreeDistribution` via bindings.cpp:281, Index.h:505-515 memory stats).

Also provides the canonicalization used by the build-determinism tests
(FIXTURES.md §5: builds at different num_cpus / partition counts must yield
identical canonical postings — the graft of test_parallel_insertions.py).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.codec import decode_segment_postings, packed_tf


def _segment_files(index_dir: str) -> list[str]:
    seg_dir = os.path.join(index_dir, "segments")
    return [
        os.path.join(seg_dir, f)
        for f in sorted(os.listdir(seg_dir))
        if f.endswith(".parquet")
    ]


def canonical_postings(index_dir: str, block_size: int = 128) -> pa.Table:
    """Fully decoded (term, doc_id, tf) across all partitions, sorted — the
    partition-count-independent canonical form of the index. Posting blobs
    hold docmap positions; canonicalization resolves them to real doc ids
    through each partition's docmap."""
    terms, docs, tfs = [], [], []
    for f in _segment_files(index_dir):
        t = packed_tf(pq.read_table(f))
        dm = pq.read_table(
            os.path.join(index_dir, "docmap", os.path.basename(f)), columns=["doc_id"]
        )
        dm_ids = dm.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        row_of, p, tf = decode_segment_postings(
            t.column("doc_blob"), t.column("tf_blob"), t.column("df"), block_size=block_size
        )
        terms.append(t.column("term").combine_chunks().take(pa.array(row_of)))
        docs.append(dm_ids[p])
        tfs.append(tf)
    if not docs:
        return pa.table(
            {"term": pa.array([], pa.string()), "doc_id": pa.array([], pa.int64()), "tf": pa.array([], pa.int64())}
        )
    out = pa.table(
        {
            "term": pa.concat_arrays(terms),
            "doc_id": pa.array(np.concatenate(docs), type=pa.int64()),
            "tf": pa.array(np.concatenate(tfs), type=pa.int64()),
        }
    )
    import pyarrow.compute as pc

    return out.take(pc.sort_indices(out, sort_keys=[("term", "ascending"), ("doc_id", "ascending")]))


def df_distribution(index_dir: str) -> pa.Table:
    """Per-term global df — skew detection input (SURVEY.md §2.5 A6/§4)."""
    parts = [pq.read_table(f, columns=["term", "df"]) for f in _segment_files(index_dir)]
    t = pa.concat_tables(parts)
    agg = t.group_by("term").aggregate([("df", "sum")])
    return pa.table({"term": agg.column("term"), "df": agg.column("df_sum")})


def index_size_bytes(index_dir: str) -> dict:
    """Byte accounting per component (Index.h:505-515 analog)."""
    out = {}
    for sub in ("segments", "docmap", "term_stats"):
        d = os.path.join(index_dir, sub)
        out[sub] = (
            sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d)) if os.path.isdir(d) else 0
        )
    return out
