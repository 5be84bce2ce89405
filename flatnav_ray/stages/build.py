"""Segment build stage — the graft of the reference's index construction
(/root/reference/include/flatnav/index/Index.h:300-329 `addBatch` +
765-834 `connectNeighbors`).

Where the reference mutates a shared arena under per-node locks
(Index.h:73,664,769,780), we partition-then-own: every document of a
partition reaches exactly one merge task, which builds that partition's
complete segment (posting lists) and docmap with NO shared state and NO
locks (SURVEY.md §4 'build mutual exclusion: designed away'). The engine's
build runs that as the two-phase spill build (stages/twophase.py); this
module holds what it shares — segment/docmap schemas and paths, the atomic
writer, the url dedup rule — and `build_partition`, the straight one-task
build of a partition that tests hold the two-phase build equal to:
    dedup by url (keep latest warc_ts)  -> D4
    sort by doc_id                       (build-time ordering invariant §2.9)
    tokenize -> (term, doc_id, tf)       -> M4
    per-term delta+varint encode         -> A8 (THE grouped reduce)
    atomic write segment + docmap + manifest row  -> S6
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import IndexConfig
from ..functions.codec import TF_CODEC, TF_CODEC_KEY, encode_segment_table
from ..functions.hashes import stable_hash64
from ..functions.tokenize import term_frequencies
from ..state.manifest import PartitionManifest, write_manifest

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int32()),
        ("doc_blob", pa.binary()),
        ("tf_blob", pa.binary()),
    ],
    # the tf codec tag every segment file carries (functions/codec.py)
    metadata={TF_CODEC_KEY: TF_CODEC},
)


def segment_table(terms: pa.Array, cols: dict) -> pa.Table:
    """A segment from its term column (one row per posting list) and the
    encoded columns `codec.encode_segment_table` returns: every build and
    merge path assembles its segment here."""
    return pa.table([terms] + [cols[n] for n in SEGMENT_SCHEMA.names[1:]], schema=SEGMENT_SCHEMA)


# the segment columns every reader reads, by name: a posting list is its df
# and its two blobs (its block boundaries follow from df). Segments written by
# older versions carry more columns (per-block maxima, block lists); reading
# by name skips them, and a compaction rewrites the segment without them
POSTING_COLUMNS = SEGMENT_SCHEMA.names

DOCMAP_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("url", pa.string()),
        ("doc_len", pa.int32()),
        ("lang", pa.string()),
    ]
)

MANIFEST_ROW_SCHEMA = pa.schema(
    [
        ("partition", pa.int32()),
        ("n_docs", pa.int64()),
        ("sum_doc_len", pa.int64()),
        ("n_terms", pa.int64()),
        ("bytes", pa.int64()),
        ("skipped_resume", pa.bool_()),
    ]
)


def segment_path(index_dir: str, partition: int) -> str:
    return os.path.join(index_dir, "segments", f"part-{partition:05d}.parquet")


def docmap_path(index_dir: str, partition: int) -> str:
    return os.path.join(index_dir, "docmap", f"part-{partition:05d}.parquet")


def text_tie_hash(texts) -> np.ndarray:
    """Recrawl tie key: among versions of one url with the same warc_ts, the
    greatest 63-bit stable_hash64(text) wins. Every winner rule uses this one
    key (dedup_latest, the two-phase map and merge, the positions sidecar),
    so all build paths and layouts keep the same version."""
    return (stable_hash64(texts) & np.uint64(2**63 - 1)).astype(np.int64)


def dedup_latest(group: pa.Table) -> pa.Table:
    """Exact dedup by url, keep the latest warc_ts (ties: greatest
    text_tie_hash — fully deterministic). SURVEY.md §2.7 D4."""
    import pyarrow.compute as pc

    tie = pa.array(text_tie_hash(group.column("text")), type=pa.int64())
    order = pc.sort_indices(
        group.append_column("_tie", tie),
        sort_keys=[("url", "ascending"), ("warc_ts", "descending"), ("_tie", "descending")],
    )
    sorted_t = group.take(order)
    urls = sorted_t.column("url").to_numpy(zero_copy_only=False)
    first = np.ones(len(urls), dtype=bool)
    if len(urls) > 1:
        first[1:] = urls[1:] != urls[:-1]
    return sorted_t.filter(pa.array(first))


# how every index file is written: zstd; a dictionary page for `df` only (its
# values repeat across terms; a segment's or the term_stats file's terms are
# all distinct, so their dictionary page overflows and only adds bytes, a
# docmap's urls nearly so, and one for `tf_blob` did not pay); the sorted
# `term` column front-coded (DELTA_BYTE_ARRAY: each term stores the length of
# the prefix it shares with the one before). A table without a named column
# ignores its setting, and readers decode both with no option
PARQUET_WRITE_ARGS = {
    "compression": "zstd",
    "use_dictionary": ["df"],
    "column_encoding": {"term": "DELTA_BYTE_ARRAY"},
}


def _atomic_write_parquet(table: pa.Table, path: str, row_group_size: int | None = None) -> int:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(table, tmp, row_group_size=row_group_size, **PARQUET_WRITE_ARGS)
    os.replace(tmp, path)
    return os.path.getsize(path)


_threads_clamped = False


def _clamp_worker_threads() -> None:
    """Each Ray task gets 1 CPU; Arrow's default pool spawns one thread per
    core, so 32 concurrent tasks × 32 arrow threads thrash the node. Clamp
    once per worker process."""
    global _threads_clamped
    if not _threads_clamped:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        _threads_clamped = True


def build_partition(
    group: pa.Table, index_dir: str, cfg: IndexConfig, resume: set[int] | None = None
) -> pa.Table:
    """All pages of one partition -> segment files + manifest row, in one
    task with no spill or merge: the reference the two-phase build
    (stages/twophase.py) must match segment for segment."""
    if len(group) == 0:
        return pa.table([[-1], [0], [0], [0], [0], [False]], schema=MANIFEST_ROW_SCHEMA)
    partition = int(group.column("partition")[0].as_py())
    if resume and partition in resume:
        # checkpoint-resume: segment already built under this config fingerprint
        return pa.table(
            [[partition], [0], [0], [0], [0], [True]], schema=MANIFEST_ROW_SCHEMA
        )

    deduped = dedup_latest(group)
    # sort by doc_id: posting lists come out doc_id-sorted for free
    import pyarrow.compute as pc

    deduped = deduped.take(pc.sort_indices(deduped, sort_keys=[("doc_id", "ascending")]))
    doc_ids = deduped.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    texts = deduped.column("text")

    postings = term_frequencies(doc_ids, texts)
    # group postings by term: Arrow sort then boundary scan
    postings = postings.take(
        pc.sort_indices(postings, sort_keys=[("term", "ascending"), ("doc_id", "ascending")])
    )
    p_terms = postings.column("term").to_numpy(zero_copy_only=False)
    p_docs = postings.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    p_tfs = postings.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
    # doc_len = sum of tfs per doc (no second tokenize pass); doc_len per
    # posting via searchsorted against the sorted docmap
    pos = np.searchsorted(doc_ids, p_docs)
    doc_lens = np.zeros(doc_ids.size, dtype=np.int64)
    np.add.at(doc_lens, pos, p_tfs)

    hasher = hashlib.blake2b(digest_size=16)
    if len(p_terms):
        # posting blobs store partition-local docmap positions, not raw ids
        # (small deltas -> 1-2 byte varints; see twophase._merge_finalize)
        cols, tb, _te = encode_segment_table(
            p_terms, pos, p_tfs, block_size=cfg.block_size
        )
        terms_arr = pa.array(p_terms[tb], type=pa.string())
        hasher.update(cols["doc_blob"].buffers()[2])  # shared values buffer
        segment = segment_table(terms_arr, cols)
        n_terms_out = len(terms_arr)
    else:
        segment = SEGMENT_SCHEMA.empty_table()
        n_terms_out = 0
    docmap = pa.table(
        [
            pa.array(doc_ids, type=pa.int64()),
            deduped.column("url").cast(pa.string()),
            pa.array(doc_lens, type=pa.int32()),
            deduped.column("lang").cast(pa.string()),
        ],
        schema=DOCMAP_SCHEMA,
    )
    seg_p = segment_path(index_dir, partition)
    dm_p = docmap_path(index_dir, partition)
    nbytes = _atomic_write_parquet(segment, seg_p)
    nbytes += _atomic_write_parquet(docmap, dm_p)
    write_manifest(
        index_dir,
        PartitionManifest(
            partition=partition,
            n_docs=len(doc_ids),
            sum_doc_len=int(doc_lens.sum()),
            n_terms=n_terms_out,
            bytes=nbytes,
            checksum=hasher.hexdigest(),
            segment_path=seg_p,
            docmap_path=dm_p,
            config_fingerprint=cfg.fingerprint(),
        ),
    )
    return pa.table(
        [
            [partition],
            [len(doc_ids)],
            [int(doc_lens.sum())],
            [n_terms_out],
            [nbytes],
            [False],
        ],
        schema=MANIFEST_ROW_SCHEMA,
    )
