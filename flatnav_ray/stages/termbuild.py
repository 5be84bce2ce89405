"""Term-partitioned index build — the groupby(term)-shuffle layout
(north_rule: "posting-list construction, merge, compression ... via
groupby(term)-aggregate shuffles ... explicit salting of heavy-hitter terms
... hierarchical segment-merge stage").

This is the alternative to the default doc-partitioned layout
(pipelines/build.py): posting lists are GLOBAL per term, built by shuffling
the full (term, doc_id, tf, dl) stream:

    prepared pages
      -> repartition(hash(doc_id) % P)  [dedup ownership, docmap+manifest out]
      -> explode postings (term, doc_id, tf, dl)
      -> df pre-aggregation (term-only projection) -> heavy-hitter set
      -> salt: heavy terms split into S = ceil(df/salt_threshold) buckets by
         hash(doc_id) — a Zipf head term no longer lands on ONE reducer
      -> groupby(term, salt).map_groups: sort by doc_id, delta+varint encode
         -> SUB-LISTS
      -> groupby(term).map_groups: hierarchical merge of sub-lists (decode,
         k-way concat+sort, re-encode) -> final per-term rows
      -> term-sorted Parquet segments

Doc lengths are stored inline in the term layout (dl_blob) so scoring needs
no docmap join at query time. The canonical postings of both layouts are
identical (tests assert it) — the graft of the reference's 'same index, two
orderings' reorder capability (Index.h:412-427).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray.data

from ..config import IndexConfig
from ..functions.codec import decode_postings, encode_segment_table
from ..functions.hashes import splitmix64
from ..functions.tokenize import term_frequencies
from ..state.manifest import PartitionManifest, write_manifest
from ..state.stats import load_stats, save_stats
from .build import (
    DOCMAP_SCHEMA,
    POSTING_COLUMNS,
    _atomic_write_parquet,
    dedup_latest,
    docmap_path,
)

TERM_SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int32()),
        ("doc_blob", pa.binary()),
        ("tf_blob", pa.binary()),
        ("dl_blob", pa.binary()),
        ("block_last_doc", pa.list_(pa.int64())),
        ("block_doc_offs", pa.list_(pa.int32())),
        ("block_tf_offs", pa.list_(pa.int32())),
    ]
)

POSTING_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("tf", pa.int32()),
        ("dl", pa.int32()),
    ]
)


def _dedup_explode_block(block: pa.Table, index_dir: str, cfg: IndexConfig) -> pa.Table:
    """Own one (or more) doc partitions: dedup, write docmap + manifest
    (stats lineage), emit the flat postings stream."""
    import pyarrow.compute as pc

    if len(block) == 0:
        return POSTING_SCHEMA.empty_table()
    outs = []
    for p in sorted(pc.unique(block.column("partition")).to_pylist()):
        grp = block.filter(pc.equal(block.column("partition"), p))
        deduped = dedup_latest(grp)
        deduped = deduped.take(pc.sort_indices(deduped, sort_keys=[("doc_id", "ascending")]))
        doc_ids = deduped.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        postings = term_frequencies(doc_ids, deduped.column("text"))
        pos = np.searchsorted(doc_ids, postings.column("doc_id").to_numpy(zero_copy_only=False))
        doc_lens = np.zeros(doc_ids.size, dtype=np.int64)
        np.add.at(doc_lens, pos, postings.column("tf").to_numpy(zero_copy_only=False))
        docmap = pa.table(
            [
                pa.array(doc_ids, type=pa.int64()),
                deduped.column("url").cast(pa.string()),
                pa.array(doc_lens, type=pa.int32()),
                deduped.column("lang").cast(pa.string()),
            ],
            schema=DOCMAP_SCHEMA,
        )
        dm_p = docmap_path(index_dir, int(p))
        nbytes = _atomic_write_parquet(docmap, dm_p)
        write_manifest(
            index_dir,
            PartitionManifest(
                partition=int(p),
                n_docs=len(doc_ids),
                sum_doc_len=int(doc_lens.sum()),
                n_terms=0,
                bytes=nbytes,
                checksum="",
                segment_path=dm_p,  # term layout: docmap doubles as the artifact
                docmap_path=dm_p,
                config_fingerprint=cfg.fingerprint(),
                stage="docmap",
            ),
        )
        outs.append(
            pa.table(
                [
                    postings.column("term"),
                    postings.column("doc_id").cast(pa.int64()),
                    postings.column("tf").cast(pa.int32()),
                    pa.array(doc_lens[pos], type=pa.int32()),
                ],
                schema=POSTING_SCHEMA,
            )
        )
    return pa.concat_tables(outs)


def _encode_sublist(group: pa.Table, block_size: int) -> pa.Table:
    """Reducer for one (term, salt) group: sort by doc_id, encode one
    sub-list row. Exclusive ownership — no locks (SURVEY.md §4)."""
    import pyarrow.compute as pc

    if len(group) == 0:
        return _sublist_schema().empty_table()
    outs = []
    # a reducer may receive several groups merged into one block under hash
    # partitioning of the groupby — handle each (term, salt) pair
    keys = group.select(["term", "salt"])
    grp_tbl = group.take(
        pc.sort_indices(group, sort_keys=[("term", "ascending"), ("salt", "ascending"), ("doc_id", "ascending")])
    )
    terms = grp_tbl.column("term").to_numpy(zero_copy_only=False)
    salts = grp_tbl.column("salt").to_numpy(zero_copy_only=False)
    docs = grp_tbl.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    tfs = grp_tbl.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
    dls = grp_tbl.column("dl").to_numpy(zero_copy_only=False).astype(np.int64)
    new = np.concatenate(
        ([True], (terms[1:] != terms[:-1]) | (salts[1:] != salts[:-1]))
    )
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(terms))
    out_term, out_salt, out_docs, out_tfs, out_dls = [], [], [], [], []
    for s, e in zip(starts, ends):
        out_term.append(terms[s])
        out_salt.append(int(salts[s]))
        out_docs.append(docs[s:e].astype(np.int64).tobytes())
        out_tfs.append(tfs[s:e].astype(np.int32).tobytes())
        out_dls.append(dls[s:e].astype(np.int32).tobytes())
    return pa.table(
        {
            "term": pa.array(out_term, type=pa.string()),
            "salt": pa.array(out_salt, type=pa.int32()),
            "docs_raw": pa.array(out_docs, type=pa.binary()),
            "tfs_raw": pa.array(out_tfs, type=pa.binary()),
            "dls_raw": pa.array(out_dls, type=pa.binary()),
        }
    )


def _sublist_schema() -> pa.Schema:
    return pa.schema(
        [
            ("term", pa.string()),
            ("salt", pa.int32()),
            ("docs_raw", pa.binary()),
            ("tfs_raw", pa.binary()),
            ("dls_raw", pa.binary()),
        ]
    )


def _merge_term(group: pa.Table, block_size: int) -> pa.Table:
    """Hierarchical merge reducer: all sub-lists of one term (or several
    terms under hash grouping) -> final encoded posting rows."""
    import pyarrow.compute as pc

    if len(group) == 0:
        return TERM_SEGMENT_SCHEMA.empty_table()
    from .twophase import _bin_row_views

    grp = group.take(pc.sort_indices(group, sort_keys=[("term", "ascending"), ("salt", "ascending")]))
    terms = grp.column("term").to_numpy(zero_copy_only=False)
    new = np.concatenate(([True], terms[1:] != terms[:-1]))
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(terms))
    # zero-copy per-row views of the packed sub-list blobs (per-row .as_py()
    # would copy every blob: the reducer touches the whole posting stream)
    v_docs = _bin_row_views(grp.column("docs_raw"))
    v_tfs = _bin_row_views(grp.column("tfs_raw"))
    v_dls = _bin_row_views(grp.column("dls_raw"))
    rows = {name: [] for name in TERM_SEGMENT_SCHEMA.names}
    for s, e in zip(starts, ends):
        docs = np.concatenate([v_docs[i].view(np.int64) for i in range(s, e)])
        tfs = np.concatenate([v_tfs[i].view(np.int32) for i in range(s, e)]).astype(np.int64)
        dls = np.concatenate([v_dls[i].view(np.int32) for i in range(s, e)]).astype(np.int64)
        order = np.argsort(docs, kind="mergesort")  # k-way merge of sorted runs
        docs, tfs, dls = docs[order], tfs[order], dls[order]
        term_arr = np.full(docs.size, terms[s], dtype=object)
        cols, tb, _ = encode_segment_table(term_arr, docs, tfs, block_size=block_size)
        # dl varint blob (term layout stores doc lengths inline)
        from ..functions.codec import encode_varint

        rows["term"].append(terms[s])
        rows["df"].append(int(docs.size))
        rows["doc_blob"].append(cols["doc_blob"][0].as_py())
        rows["tf_blob"].append(cols["tf_blob"][0].as_py())
        rows["dl_blob"].append(encode_varint(dls.astype(np.uint64)))
        rows["block_last_doc"].append(cols["block_last_doc"][0].as_py())
        rows["block_doc_offs"].append(cols["block_doc_offs"][0].as_py())
        rows["block_tf_offs"].append(cols["block_tf_offs"][0].as_py())
    return pa.table(
        [
            pa.array(rows["term"], type=pa.string()),
            pa.array(rows["df"], type=pa.int32()),
            pa.array(rows["doc_blob"], type=pa.binary()),
            pa.array(rows["tf_blob"], type=pa.binary()),
            pa.array(rows["dl_blob"], type=pa.binary()),
            pa.array(rows["block_last_doc"], type=pa.list_(pa.int64())),
            pa.array(rows["block_doc_offs"], type=pa.list_(pa.int32())),
            pa.array(rows["block_tf_offs"], type=pa.list_(pa.int32())),
        ],
        schema=TERM_SEGMENT_SCHEMA,
    )


def build_term_index(
    pages: ray.data.Dataset,
    index_dir: str,
    cfg: IndexConfig | None = None,
    salt_threshold: int = 50_000,
) -> dict:
    """Build the term-partitioned index. Returns the stats dict."""
    from ..pipelines.build import prepare_batch
    from ..state.manifest import manifest_dir, read_manifest

    cfg = cfg or IndexConfig(layout="term")
    os.makedirs(index_dir, exist_ok=True)

    # checkpoint-resume at index granularity: the posting stream is one
    # global term shuffle, so unlike the doc layout there is no per-partition
    # unit to skip — but a completed build (stats.json fingerprint matches +
    # segments present) is never redone. A crashed build leaves no
    # stats.json (it is written last) and reruns from scratch.
    seg_dir = os.path.join(index_dir, "term_segments")
    from ..state.stats import stats_path

    if os.path.exists(stats_path(index_dir)) and os.path.isdir(seg_dir):
        prev = load_stats(index_dir)
        if (
            prev.get("layout") == "term"
            and prev.get("config_fingerprint") == cfg.fingerprint()
            and prev.get("salt_threshold") == salt_threshold
            and any(f.endswith(".parquet") for f in os.listdir(seg_dir))
        ):
            prev["resumed"] = True
            return prev

    prepared = pages.map_batches(
        prepare_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"num_partitions": cfg.num_partitions, "langs": cfg.langs},
    )
    prepared.context.shuffle_strategy = ray.data.context.ShuffleStrategy.HASH_SHUFFLE
    prepared.context.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.05
    prepared.context.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0.05
    postings = prepared.repartition(
        num_blocks=cfg.num_partitions, keys=["partition"], sort=False
    ).map_batches(
        _dedup_explode_block,
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
        fn_kwargs={"index_dir": index_dir, "cfg": cfg},
    )

    # heavy-hitter detection with a map-side combiner (SURVEY.md §4): each
    # batch pre-aggregates (term, partial_count) so only vocabulary-sized
    # partials shuffle — never the raw posting stream
    def _partial_counts(b: pa.Table) -> pa.Table:
        agg = b.select(["term"]).group_by("term").aggregate([([], "count_all")])
        return pa.table({"term": agg.column("term"), "n": agg.column("count_all")})

    df_tbl = pa.concat_tables(
        postings.map_batches(_partial_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term", num_partitions=cfg.num_partitions)
        .sum("n")
        .iter_batches(batch_format="pyarrow")
    )
    counts = dict(zip(
        df_tbl.column("term").to_numpy(zero_copy_only=False).tolist(),
        df_tbl.column("sum(n)").to_numpy().tolist(),
    ))
    heavy = {
        t: int(np.ceil(c / salt_threshold)) for t, c in counts.items() if c > salt_threshold
    }
    import ray as _ray

    # broadcast the heavy set as parallel arrays: the salt stage matches terms
    # with ONE vectorized pc.index_in against the heavy-term array (Arrow hash
    # table in C++) instead of a per-posting Python dict lookup — this runs on
    # the engine's widest stream (every posting row)
    heavy_terms_arr = pa.array(sorted(heavy), type=pa.string())
    heavy_counts_arr = np.asarray(
        [heavy[t] for t in sorted(heavy)], dtype=np.uint64
    )
    heavy_ref = _ray.put((heavy_terms_arr, heavy_counts_arr))

    def _salt(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        h_terms, h_counts = _ray.get(heavy_ref)
        salts = np.zeros(len(batch), dtype=np.int32)
        if len(h_terms):
            idx = pc.fill_null(
                pc.index_in(batch.column("term"), value_set=h_terms), -1
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            hot = idx >= 0
            if hot.any():
                docs = (
                    batch.column("doc_id")
                    .to_numpy(zero_copy_only=False)
                    .astype(np.uint64)
                )
                mixed = splitmix64(docs[hot])
                salts[hot] = (mixed % h_counts[idx[hot]]).astype(np.int32)
        return batch.append_column("salt", pa.array(salts, type=pa.int32()))

    salted = postings.map_batches(_salt, batch_format="pyarrow", zero_copy_batch=True)

    # bound the hash-shuffle partition count (it caps the aggregator-actor
    # pool; the default 200 would strand a small cluster waiting for actors)
    shuffle_parts = cfg.num_partitions
    sublists = salted.groupby(["term", "salt"], num_partitions=shuffle_parts).map_groups(
        _encode_sublist, batch_format="pyarrow", fn_kwargs={"block_size": cfg.block_size}
    )
    final = sublists.groupby("term", num_partitions=shuffle_parts).map_groups(
        _merge_term, batch_format="pyarrow", fn_kwargs={"block_size": cfg.block_size}
    )
    import shutil

    if os.path.isdir(seg_dir):
        shutil.rmtree(seg_dir)
    final.sort("term").write_parquet(seg_dir)

    # stats from docmap manifests (written by the dedup stage)
    n_docs = sum_dl = 0
    parts = []
    mdir = manifest_dir(index_dir)
    for name in sorted(os.listdir(mdir)):
        if name.startswith("part-") and name.endswith(".json"):
            m = read_manifest(index_dir, int(name[5:-5]))
            if m and m.config_fingerprint == cfg.fingerprint():
                n_docs += m.n_docs
                sum_dl += m.sum_doc_len
                parts.append(m.partition)
    stats = {
        "n_docs": n_docs,
        "sum_doc_len": sum_dl,
        "avgdl": (sum_dl / n_docs) if n_docs else 0.0,
        "num_partitions": cfg.num_partitions,
        "partitions": parts,
        "config_fingerprint": cfg.fingerprint(),
        "block_size": cfg.block_size,
        "k1": cfg.k1,
        "b": cfg.b,
        "scorer": cfg.scorer,
        "analyzer": cfg.analyzer,
        "layout": "term",
        "n_heavy_terms": len(heavy),
        "salt_threshold": salt_threshold,
    }
    save_stats(index_dir, stats)
    return stats


def canonical_term_postings(index_dir: str, block_size: int = 128) -> pa.Table:
    """Decoded (term, doc_id, tf) from the term layout, sorted — comparable
    with stages.introspect.canonical_postings of the doc layout."""
    import pyarrow.parquet as pq

    seg_dir = os.path.join(index_dir, "term_segments")
    files = [os.path.join(seg_dir, f) for f in sorted(os.listdir(seg_dir)) if f.endswith(".parquet")]
    terms, docs, tfs = [], [], []
    for f in files:
        t = pq.read_table(f)
        for i in range(len(t)):
            d, tf = decode_postings(
                t.column("doc_blob")[i].as_py(),
                t.column("tf_blob")[i].as_py(),
                block_size=block_size,
            )
            terms.extend([t.column("term")[i].as_py()] * d.size)
            docs.append(d)
            tfs.append(tf)
    out = pa.table(
        {
            "term": pa.array(terms, type=pa.string()),
            "doc_id": pa.array(np.concatenate(docs) if docs else np.empty(0, np.int64), type=pa.int64()),
            "tf": pa.array(np.concatenate(tfs) if tfs else np.empty(0, np.int64), type=pa.int64()),
        }
    )
    import pyarrow.compute as pc

    return out.take(pc.sort_indices(out, sort_keys=[("term", "ascending"), ("doc_id", "ascending")]))


class _TermShardState:
    """Decoded, scored posting state over a set of term-segment rows — the
    term-layout analog of search._ShardState: each term's postings are decoded
    and BM25-scored ONCE (cached, query-independent), and per-query
    accumulation is fully vectorized (np.add.at over a unique-doc index) with
    the pinned lexicographic term fold the rank-identity contract requires —
    no per-posting Python anywhere."""

    def __init__(self, tbl: pa.Table, block_size: int, n_docs: int, avgdl: float,
                 k1: float, b: float):
        from .twophase import _bin_row_views

        self.block_size = block_size
        self.n_docs = n_docs
        self.avgdl = avgdl
        self.k1 = k1
        self.b = b
        tbl = tbl.combine_chunks()
        if len(tbl) == 0:
            self.term_row = {}
            self._df = np.empty(0, dtype=np.int64)
            self._v_doc = self._v_tf = self._v_dl = []
        else:
            terms = tbl.column("term").to_numpy(zero_copy_only=False).tolist()
            self.term_row = dict(zip(terms, range(len(terms))))
            self._df = tbl.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
            self._v_doc = _bin_row_views(tbl.column("doc_blob"))
            self._v_tf = _bin_row_views(tbl.column("tf_blob"))
            self._v_dl = _bin_row_views(tbl.column("dl_blob"))
        # (docs, contrib) per term — decoded+scored once, reused per batch
        self._contrib: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def term_contrib(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        hit = self._contrib.get(term)
        if hit is not None:
            return hit
        i = self.term_row.get(term)
        if i is None:
            return None
        from ..functions.bm25 import bm25_term_scores
        from ..functions.codec import decode_varint

        d, tf = decode_postings(self._v_doc[i], self._v_tf[i], block_size=self.block_size)
        dl = decode_varint(self._v_dl[i]).astype(np.int64)
        contrib = bm25_term_scores(
            tf, dl, int(self._df[i]), self.n_docs, self.avgdl, self.k1, self.b
        )
        out = (d, contrib)
        if len(self._contrib) > 100_000:  # bounded memory
            self._contrib.clear()
        self._contrib[term] = out
        return out


def _score_query_rows(
    rows: dict[str, tuple[np.ndarray, np.ndarray]],
    qterms: list[tuple[str, int]],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k for one query over fetched (docs, contribution) rows.
    `qterms` must be lexicographically sorted — contributions concatenate in
    that order and np.add.at applies them sequentially, so each doc's float
    sum folds exactly like the scalar oracle's per-term loop."""
    from ..functions.bm25 import topk_select

    entries = []
    for term, qtf in qterms:
        hit = rows.get(term)
        if hit is None:
            continue
        d, contrib = hit
        entries.append((d, contrib if qtf == 1 else qtf * contrib))
    if not entries:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if len(entries) == 1:
        return topk_select(entries[0][1], entries[0][0], k)
    all_docs = np.concatenate([e[0] for e in entries])
    all_sc = np.concatenate([e[1] for e in entries])
    uniq, inv = np.unique(all_docs, return_inverse=True)
    acc = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(acc, inv, all_sc)
    return topk_select(acc, uniq, k)


def _score_slice_table(rows, qitems: list[tuple[int, list]], k: int) -> pa.Table:
    """Score a slice of queries against fetched rows -> result table (used
    driver-side AND as a raw Ray task with `rows` read zero-copy from the
    object store)."""
    out_q, out_r, out_d, out_s = [], [], [], []
    for qid, qterms in qitems:
        dd, ss = _score_query_rows(rows, qterms, k)
        if dd.size == 0:
            continue
        out_q.append(np.full(dd.size, qid, dtype=np.int64))
        out_r.append(np.arange(dd.size, dtype=np.int32))
        out_d.append(dd)
        out_s.append(ss)
    if not out_q:
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                "rank": pa.array([], type=pa.int32()),
                "doc_id": pa.array([], type=pa.int64()),
                "score": pa.array([], type=pa.float64()),
            }
        )
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
            "rank": pa.array(np.concatenate(out_r), type=pa.int32()),
            "doc_id": pa.array(np.concatenate(out_d), type=pa.int64()),
            "score": pa.array(np.concatenate(out_s), type=pa.float64()),
        }
    )


def _score_queries_table(state: "_TermShardState", queries: pa.Table, k: int) -> pa.Table:
    """Shared driver loop: tokenize each query (analyzer parity, SURVEY.md M5),
    score via the vectorized accumulation, emit (query_id, rank, doc_id, score)."""
    from ..functions.tokenize import tokenize_py

    qitems = []
    for qid, text in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        counts: dict[str, int] = {}
        for tok in tokenize_py(text):
            counts[tok] = counts.get(tok, 0) + 1
        qitems.append((int(qid), sorted(counts.items())))
    rows = {}
    for _, qterms in qitems:
        for term, _ in qterms:
            if term not in rows:
                hit = state.term_contrib(term)
                if hit is not None:
                    rows[term] = hit
    return _score_slice_table(rows, qitems, k)


class TermIndexSearcher:
    """Query path for the term layout: filtered read of the query terms' rows
    (term-sorted Parquet -> row-group pruning) into a _TermShardState, exact
    top-k via the vectorized accumulation core. Doc lengths come inline from
    dl_blob — no docmap join (J1 resolved at result materialization only)."""

    def __init__(self, index_dir: str):
        from ..state.stats import load_stats

        self.index_dir = index_dir
        self.stats = load_stats(index_dir)
        assert self.stats.get("layout") == "term"

    def search(self, queries: pa.Table, k: int = 10, k1: float | None = None, b: float | None = None) -> pa.Table:
        import pyarrow.dataset as pads

        from ..functions.tokenize import tokenize_py

        k1 = k1 if k1 is not None else float(self.stats["k1"])
        b = b if b is not None else float(self.stats["b"])
        needed = sorted({t for x in queries.column("text").to_pylist() for t in tokenize_py(x)})
        seg = pads.dataset(os.path.join(self.index_dir, "term_segments"), format="parquet")
        tbl = (
            seg.to_table(columns=[*POSTING_COLUMNS, "dl_blob"],
                         filter=pads.field("term").isin(needed))
            if needed
            else TERM_SEGMENT_SCHEMA.empty_table()
        )
        state = _TermShardState(
            tbl, int(self.stats["block_size"]), int(self.stats["n_docs"]),
            float(self.stats["avgdl"]), k1, b,
        )
        return _score_queries_table(state, queries, k)
