"""One-shot queries over a doc-layout index (SURVEY.md §3.1 flagship trace,
search side).

    queries (small table)
      -> QueryConfig.check: the capability table     [caller, at the door]
      -> make_query_plan: tokenize + df lookup        [caller, tiny]
      -> ray.put(plan)                                [broadcast once, J3]
      -> one Ray task per partition group             [_run_op]
      -> merge partials: driver-side vectorized when k×P×Q is small,
         groupby(query_id).map_groups otherwise      [partial -> final top-k]

The fan-out axis is PARTITIONS (the big side); queries ride along as one
broadcast object — the reference's 'every query probes the whole index'
(bindings.cpp:196-212 parallel query loop) turned inside out for sharding.
Every op (search, facets, match stats, significant terms, collapse,
snippets, wildcard counts, suggestions) is one shard-op runner: a plain
`num_cpus=1` task on the cluster's already-started workers loads each
partition of its group once, with the op's term filter, and runs the op's
`_ShardState` method (search: `ShardSearcher` over the group); callers
concatenate the tasks' tables, and partial sets too large to merge in the
calling process stream through `_stream_merge` instead.

The capability table, the planner and pagination (`paged`) are the ones
`SearchSession` uses. One-shot ops read the base generation only: an index
with stacked deltas or tombstones raises and must be served through
`pipelines.ingest.open_session` (or compacted). For repeated query batches
over one index use `SearchSession` too (persistent shard actors,
load-once/serve-many).
"""

from __future__ import annotations

import os

import ray
import ray.data
import pyarrow as pa

from ..config import QueryConfig
from ..stages.build import segment_path
from ..stages.search import (
    ShardSearcher,
    _ShardState,
    load_term_cf,
    make_query_plan,
    merge_topk,
    merge_topk_table,
    paged,
)
from ..functions.tokenize import tokenize_py
from ..state.stats import load_stats, lookup_term_df

# above this many partial rows the final merge happens distributed
DRIVER_MERGE_MAX_ROWS = 5_000_000


def _base_stats(index_dir: str) -> dict:
    """The stats of an index a one-shot op may serve. One-shot ops read the
    base generation only, so an index with stacked deltas or tombstones
    raises instead of answering with stale or deleted documents."""
    from .ingest import list_generations, list_tombstone_files

    if len(list_generations(index_dir)) > 1 or list_tombstone_files(index_dir):
        raise ValueError(
            f"{index_dir} has stacked generations or tombstones, which one-shot "
            "ops do not read: serve it with pipelines.ingest.open_session(...)"
            ".search, or compact it first (pipelines.ingest.compact)"
        )
    return load_stats(index_dir)


def _plan(index_dir: str, queries: pa.Table, k: int, cfg: QueryConfig | None = None):
    """(plan, stats) of a one-shot op: df from the index's term stats, fuzzy
    expansions from its dictionary, cf from a pruned segment read."""
    from ..functions.fuzzy import fuzzy_expand_terms

    stats = _base_stats(index_dir)
    plan = make_query_plan(
        queries, lambda terms: lookup_term_df(index_dir, terms),
        int(stats["n_docs"]), float(stats["avgdl"]), k, cfg,
        pre_tokens=[tokenize_py(t) for t in queries.column("text").to_pylist()],
        expand=lambda terms, edits: fuzzy_expand_terms(index_dir, terms, edits),
        term_cf=lambda terms: load_term_cf(
            index_dir, stats["partitions"], terms, int(stats["block_size"])
        ),
        total_len=stats.get("sum_doc_len"),
    )
    return plan, stats


def _run_op(index_dir: str, block_size: int, parts: list[int], terms, op: str, *args):
    """The shard-op runner, one task: load each partition of `parts` once
    (only the segment rows of `terms`; None = the whole dictionary), then run
    the op — "search" runs `ShardSearcher(*args)` over the group, any other
    name that `_ShardState` method per partition. Returns the op's table,
    None when no partition of the group has a segment."""
    states = [
        _ShardState(index_dir, p, block_size, terms)
        for p in parts if os.path.exists(segment_path(index_dir, p))
    ]
    if op == "search":
        return ShardSearcher(*args)(states)
    tabs = [getattr(st, op)(*args) for st in states]
    return pa.concat_tables(tabs) if tabs else None


_op_task = ray.remote(num_cpus=1)(_run_op)


def _n_tasks(concurrency: int, n_items: int) -> int:
    ncpu = int(ray.cluster_resources().get("CPU", concurrency))
    return max(1, min(concurrency, n_items, ncpu))


def _shard_tasks(index_dir: str, stats: dict, concurrency: int, terms, op: str, *args) -> list:
    """Fan a shard op out over the index's partitions: at most
    `concurrency` (and cluster-CPU) `_run_op` tasks over round-robin
    partition groups. Returns the tasks' ObjectRefs, unawaited."""
    parts = [int(p) for p in stats["partitions"]]
    n = _n_tasks(concurrency, len(parts))
    return [
        _op_task.remote(index_dir, int(stats["block_size"]), parts[i::n], terms, op, *args)
        for i in range(n)
    ]


def _plan_tasks(index_dir: str, queries: pa.Table, k: int, concurrency: int, op: str,
                *args, all_terms: bool = False) -> tuple[list, dict]:
    """Plan the batch and fan `op(plan, *args)` out over the shards, each
    task reading only the plan's terms' segment rows (all_terms: the whole
    dictionary). Returns (unawaited refs, stats)."""
    plan, stats = _plan(index_dir, queries, k)
    terms = None if all_terms else sorted(plan.term_idf)
    return _shard_tasks(index_dir, stats, concurrency, terms, op, ray.put(plan), *args), stats


def _gather(refs) -> pa.Table | None:
    """The tasks' non-empty tables concatenated, or None when all are empty."""
    tabs = [t for t in ray.get(refs) if t is not None and len(t)]
    return pa.concat_tables(tabs) if tabs else None


def search_partials(
    index_dir: str, queries: pa.Table, query_cfg: QueryConfig | None = None
) -> tuple[list, dict]:
    """Plan the batch and submit the per-shard partial top-k tasks; returns
    their unawaited ObjectRefs (tables carrying the per-query counters —
    the reference's distance-computation stats, Index.h:83-84) + stats.
    Top-k only: the caller checks the config and pages (search_to_table)."""
    query_cfg = query_cfg or QueryConfig()
    plan, stats = _plan(index_dir, queries, query_cfg.k, query_cfg)
    refs = _shard_tasks(
        index_dir, stats, query_cfg.concurrency, sorted(plan.term_idf), "search",
        ray.put(plan), query_cfg,
    )
    return refs, stats


def federated_search(
    index_dirs: list[str], queries: pa.Table, query_cfg: QueryConfig | None = None
) -> pa.Table:
    """ES multiple-indices search / Lucene MultiReader: ONE logical query
    over several physical indexes. Every index's shards score with GLOBALLY
    merged collection statistics — n = Σ n_i, avgdl = Σ sum_doc_len / Σ n
    (one exact integer division), df(term) = Σ df_i — so scores are
    comparable across indexes and the merged top-k is rank-identical to a
    single index built over the union corpus (BM25 is a pure function of
    (tf, dl, df, n, avgdl), all identical here). Every index's shard tasks
    run at once and their partials meet in one deterministic merge."""
    query_cfg = query_cfg or QueryConfig()
    # federation covers the plain disjunctive BM25/TF-IDF path: every other
    # feature either needs per-index state the merged plan does not carry
    # (fuzzy/synonym expansion, cf, the extra query columns' terms) or extra
    # merge handling (offset)
    query_cfg.check(
        queries.column_names, op="federated_search",
        rejects=("offset", "fuzzy_max_edits", "synonyms", "boosts", "cf",
                 "neg_text", "must_text", "after_score", "after_doc"),
    )
    stats_list = [_base_stats(d) for d in index_dirs]
    fp = {s.get("analyzer") for s in stats_list}
    if len(fp) != 1:
        raise ValueError(f"federated indexes use different analyzers: {fp}")

    def merged_df(terms):
        out = dict.fromkeys(terms, 0)
        for d in index_dirs:
            for t, v in lookup_term_df(d, terms).items():
                out[t] += int(v)
        return out

    n = sum(int(s["n_docs"]) for s in stats_list)
    sdl = sum(int(s["sum_doc_len"]) for s in stats_list)
    plan = make_query_plan(queries, merged_df, n, sdl / n if n else 0.0, query_cfg.k)
    plan_ref = ray.put(plan)
    refs = [
        r
        for d, s in zip(index_dirs, stats_list)
        for r in _shard_tasks(
            d, s, query_cfg.concurrency, sorted(plan.term_idf), "search", plan_ref, query_cfg
        )
    ]
    total_parts = sum(len(s["partitions"]) for s in stats_list)
    return _merge_partials(refs, query_cfg.k, query_cfg.k * total_parts * len(queries))


def _stream_merge(refs, k: int) -> ray.data.Dataset:
    """Distributed final merge of the shard tasks' partials."""
    return (
        ray.data.from_arrow_refs(refs)
        .drop_columns(["docs_scored", "blocks_decoded"])
        .groupby("query_id")
        .map_groups(merge_topk, batch_format="pyarrow", fn_kwargs={"k": k})
    )


def _merge_partials(refs, k: int, est_rows: int) -> pa.Table:
    """Final top-k of the shard tasks' partials, (query_id, rank)-ordered:
    merged on the driver unless the partial set exceeds
    DRIVER_MERGE_MAX_ROWS rows, then through `_stream_merge`."""
    if est_rows > DRIVER_MERGE_MAX_ROWS:
        batches = list(_stream_merge(refs, k).iter_batches(batch_format="pyarrow"))
        if not batches:
            return _EMPTY_RESULT
        t = pa.concat_tables(batches)
        return t.sort_by([("query_id", "ascending"), ("rank", "ascending")])
    t = _gather(refs)
    if t is None:
        return _EMPTY_RESULT
    return merge_topk_table(t.drop_columns(["docs_scored", "blocks_decoded"]), k)


_EMPTY_RESULT = pa.table(
    {
        "query_id": pa.array([], type=pa.int64()),
        "rank": pa.array([], type=pa.int32()),
        "doc_id": pa.array([], type=pa.int64()),
        "url": pa.array([], type=pa.string()),
        "score": pa.array([], type=pa.float64()),
    }
)


def facet_counts(
    index_dir: str, queries: pa.Table, facet: str = "lang", concurrency: int = 8
) -> pa.Table:
    """Per-query facet counts over the FULL match set (union of the query's
    term postings — total-hits semantics, not top-k), grouped by a docmap
    attribute. Shards count disjoint doc sets, so the cross-shard merge is a
    plain sum per (query_id, facet) — no dedup shuffle needed. Columns:
    (query_id, <facet>, n_docs), sorted."""
    numeric = facet.startswith("len:")
    fcol = "bucket" if numeric else facet
    t = _gather(_plan_tasks(index_dir, queries, 1, concurrency, "facet_counts", facet)[0])
    if t is None:
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                fcol: pa.array([], type=pa.int64() if numeric else pa.string()),
                "n_docs": pa.array([], type=pa.int64()),
            }
        )
    g = t.group_by(["query_id", fcol]).aggregate([("n_docs", "sum")])
    out = pa.table(
        {
            "query_id": g.column("query_id"),
            fcol: g.column(fcol),
            "n_docs": g.column("n_docs_sum"),  # name-based (column order varies)
        }
    )
    return out.sort_by([("query_id", "ascending"), (fcol, "ascending")])


def match_stats(
    index_dir: str, queries: pa.Table, concurrency: int = 8
) -> pa.Table:
    """Per-query doc_len stats over the FULL match set (the ES `stats`
    aggregation): (query_id, n_docs, dl_min, dl_max, dl_sum, dl_avg).
    Per-shard integer partials merge with sum/min/max/sum (exact under
    disjoint doc partitioning); dl_avg divides the exact integers once at
    the end, so even the float column hash-matches the SQL oracle."""
    t = _gather(_plan_tasks(index_dir, queries, 1, concurrency, "match_stats")[0])
    if t is None:
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                "n_docs": pa.array([], type=pa.int64()),
                "dl_min": pa.array([], type=pa.int64()),
                "dl_max": pa.array([], type=pa.int64()),
                "dl_sum": pa.array([], type=pa.int64()),
                "dl_avg": pa.array([], type=pa.float64()),
            }
        )
    g = t.group_by(["query_id"]).aggregate(
        [("n_docs", "sum"), ("dl_min", "min"), ("dl_max", "max"), ("dl_sum", "sum")]
    )
    import numpy as np

    n = g.column("n_docs_sum").to_numpy(zero_copy_only=False).astype(np.int64)
    s = g.column("dl_sum_sum").to_numpy(zero_copy_only=False).astype(np.int64)
    out = pa.table(
        {
            "query_id": g.column("query_id"),
            "n_docs": g.column("n_docs_sum"),
            "dl_min": g.column("dl_min_min"),
            "dl_max": g.column("dl_max_max"),
            "dl_sum": g.column("dl_sum_sum"),
            "dl_avg": pa.array(s.astype(np.float64) / n, type=pa.float64()),
        }
    )
    return out.sort_by("query_id")


def match_percentiles(
    index_dir: str, queries: pa.Table, qs: tuple[float, ...] = (0.25, 0.5, 0.75),
    concurrency: int = 8,
) -> pa.Table:
    """ES `percentiles` aggregation made EXACT: per query, type-7 (linear
    interpolation, = numpy default = DuckDB quantile_cont) quantiles of the
    match set's doc lengths. Per-shard (dl, count) histograms merge by sum
    — doc lengths are a small integer domain so the histogram stays tiny at
    any corpus size (the exact alternative to the t-digest sketch). The
    interpolation h=(n-1)q, v = a + (h-⌊h⌋)(b-a) is bit-exact for integer
    dl and dyadic q, so the float columns hash-match the SQL oracle."""
    import numpy as np

    t = _gather(_plan_tasks(index_dir, queries, 1, concurrency, "match_dl_hist")[0])
    cols = {"query_id": pa.array([], type=pa.int64()),
            "n_docs": pa.array([], type=pa.int64())}
    for q in qs:
        cols[f"p{int(q * 100)}"] = pa.array([], type=pa.float64())
    if t is None:
        return pa.table(cols)
    g = t.group_by(["query_id", "dl"]).aggregate([("n", "sum")])
    qid = g.column("query_id").to_numpy(zero_copy_only=False)
    dl = g.column("dl").to_numpy(zero_copy_only=False)
    cnt = g.column("n_sum").to_numpy(zero_copy_only=False)

    out_q, out_n = [], []
    out_p: dict[float, list[float]] = {q: [] for q in qs}
    for u in np.unique(qid):
        sel = qid == u
        order = np.argsort(dl[sel], kind="stable")
        vals, counts = dl[sel][order], cnt[sel][order]
        cum = np.cumsum(counts)
        n = int(cum[-1])
        out_q.append(int(u))
        out_n.append(n)
        for q in qs:
            h = (n - 1) * q
            lo = int(np.floor(h))
            a = float(vals[np.searchsorted(cum, lo + 1)])
            b = float(vals[np.searchsorted(cum, min(lo + 2, n))])
            out_p[q].append(a + (h - lo) * (b - a))
    cols = {
        "query_id": pa.array(out_q, type=pa.int64()),
        "n_docs": pa.array(out_n, type=pa.int64()),
    }
    for q in qs:
        cols[f"p{int(q * 100)}"] = pa.array(out_p[q], type=pa.float64())
    return pa.table(cols).sort_by("query_id")


def significant_terms(
    index_dir: str, queries: pa.Table, top_n: int = 5, concurrency: int = 8
) -> pa.Table:
    """ES `significant_terms` aggregation, exact: per query, the dictionary
    terms most overrepresented in the match set vs the whole corpus, scored
    by the background lift (match_df / match_n) / (df / N) — computed as
    (match_df·N) / (match_n·df) with float64 products (overflow-free at any
    corpus size) and ONE IEEE division, identical in the SQL oracle. Integer
    foreground counts come from per-shard partials (sig_term_counts) that merge
    by sum; df/N come from the index's own segment stats. Returns the top_n
    rows per query by (lift desc, term asc)."""
    import numpy as np

    from ..stages.introspect import df_distribution

    refs, stats = _plan_tasks(index_dir, queries, 1, concurrency, "sig_term_counts",
                              all_terms=True)
    t = _gather(refs)
    if t is None:
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                "term": pa.array([], type=pa.string()),
                "match_df": pa.array([], type=pa.int64()),
                "match_n": pa.array([], type=pa.int64()),
                "df": pa.array([], type=pa.int64()),
                "lift": pa.array([], type=pa.float64()),
            }
        )
    g = t.group_by(["query_id", "term"]).aggregate([("match_df", "sum")])
    # "" marker rows carry each shard's match-set size (summed by the same
    # groupby) — match_n needs no second actor-pool pass
    qid_all = g.column("query_id").to_numpy(zero_copy_only=False).astype(np.int64)
    terms_all = np.asarray(g.column("term").to_pylist(), dtype=object)
    mdf_all = g.column("match_df_sum").to_numpy(zero_copy_only=False).astype(np.int64)
    marker = terms_all == ""
    mn_by_q = dict(zip(qid_all[marker].tolist(), mdf_all[marker].tolist()))
    qid, terms, mdf = qid_all[~marker], terms_all[~marker], mdf_all[~marker]
    dft = df_distribution(index_dir)
    df_by_t = dict(zip(dft.column("term").to_pylist(), dft.column("df").to_pylist()))
    n_docs = int(stats["n_docs"])

    mn = np.fromiter((mn_by_q[int(q)] for q in qid), dtype=np.int64, count=qid.size)
    df = np.fromiter((df_by_t[t_] for t_ in terms), dtype=np.int64, count=terms.size)
    lift = (mdf.astype(np.float64) * float(n_docs)) / (mn.astype(np.float64) * df)

    # top_n per query by (lift desc, term asc): lexsort is ascending — sort
    # by (-lift) and term via a stable two-pass (term asc first, then -lift)
    order = np.argsort(terms, kind="stable")
    order = order[np.argsort(-lift[order], kind="stable")]
    order = order[np.argsort(qid[order], kind="stable")]
    keep_idx = []
    seen: dict[int, int] = {}
    for i in order:
        q = int(qid[i])
        c = seen.get(q, 0)
        if c < top_n:
            keep_idx.append(int(i))
            seen[q] = c + 1
    ki = np.asarray(keep_idx, dtype=np.int64)
    return pa.table(
        {
            "query_id": pa.array(qid[ki], type=pa.int64()),
            "term": pa.array([terms[i] for i in ki], type=pa.string()),
            "match_df": pa.array(mdf[ki], type=pa.int64()),
            "match_n": pa.array(mn[ki], type=pa.int64()),
            "df": pa.array(df[ki], type=pa.int64()),
            "lift": pa.array(lift[ki], type=pa.float64()),
        }
    )


def explain_to_table(
    index_dir: str, queries: pa.Table, query_cfg: QueryConfig | None = None
) -> pa.Table:
    """Lucene `explain` analog: run the search, then emit per (query_id,
    doc_id, term) rows (df, contribution) for every TOP-K result — the
    contribution is exactly the addend the search accumulated, so
    sum(contribution) over a doc's rows (lexicographic term order)
    reproduces its search score bit-for-bit. One raw Ray task per owning
    partition (doc_id % P), each touching only its top-k rows — O(k·Q)
    total, never the corpus. Plain disjunctive queries (optionally boosted)
    on the default scoring methods."""
    import numpy as np

    from ..stages.search import explain_rows

    query_cfg = query_cfg or QueryConfig()
    query_cfg.check(
        queries.column_names, op="explain_to_table",
        rejects=("method", "fuzzy_max_edits", "synonyms",
                 "neg_text", "must_text", "after_score", "after_doc"),
    )
    results = search_to_table(index_dir, queries, query_cfg)
    empty = pa.table(
        {
            "query_id": pa.array([], type=pa.int64()),
            "doc_id": pa.array([], type=pa.int64()),
            "term": pa.array([], type=pa.string()),
            "df": pa.array([], type=pa.int64()),
            "contribution": pa.array([], type=pa.float64()),
        }
    )
    if len(results) == 0:
        return empty
    plan, stats = _plan(index_dir, queries, query_cfg.k, query_cfg)
    num_p = int(stats["num_partitions"])
    qids = results.column("query_id").to_numpy(zero_copy_only=False).astype(np.int64)
    docs = results.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    owner = (docs % num_p).astype(np.int64)
    plan_ref = ray.put(plan)
    task = ray.remote(explain_rows)
    futs = []
    for p in np.unique(owner):
        sel = owner == p
        futs.append(
            task.remote(
                index_dir, int(p), int(stats["block_size"]), plan_ref,
                query_cfg.scorer, qids[sel], docs[sel],
            )
        )
    out = pa.concat_tables(ray.get(futs))
    return out.sort_by(
        [("query_id", "ascending"), ("doc_id", "ascending"), ("term", "ascending")]
    )


def fetch_docs(index_dir: str, doc_ids) -> pa.Table:
    """Stored-fields retrieval by id (Lucene IndexReader.document /
    StoredFields.document): resolve doc_ids to their docmap rows
    (doc_id, url, doc_len, lang) — one pruned-read Ray task per OWNING
    partition (doc_id % P), the id set broadcast once via ray.put. O(ids),
    never a corpus scan; absent ids are silently omitted (Lucene's deleted /
    never-indexed semantics). Requires the hash docid_strategy."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..stages.build import docmap_path

    stats = _base_stats(index_dir)
    if stats.get("docid_strategy", "hash") != "hash":
        raise ValueError("fetch_docs requires the hash docid_strategy")
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    if ids.size == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "url": pa.array([], type=pa.string()),
                "doc_len": pa.array([], type=pa.int64()),
                "lang": pa.array([], type=pa.string()),
            }
        )
    num_p = int(stats["num_partitions"])
    owner = ids % num_p
    ids_ref = ray.put(ids)

    def _one(index_dir: str, p: int, want) -> pa.Table:
        dm = pq.read_table(docmap_path(index_dir, p))
        return dm.filter(pc.is_in(dm.column("doc_id"), value_set=pa.array(want)))

    task = ray.remote(num_cpus=1)(_one)
    futs = [
        task.remote(index_dir, int(p), ids_ref)
        for p in sorted(set(int(x) for x in owner))
        if os.path.exists(docmap_path(index_dir, int(p)))
    ]
    out = pa.concat_tables(ray.get(futs)) if futs else None
    if out is None or len(out) == 0:
        return fetch_docs(index_dir, [])
    out = out.set_column(
        out.schema.get_field_index("doc_len"),
        "doc_len",
        out.column("doc_len").cast(pa.int64()),
    )
    return out.select(["doc_id", "url", "doc_len", "lang"]).sort_by("doc_id")


def rescore_topk(
    index_dir: str, queries: pa.Table, k: int = 10, window: int = 30,
    scorer: str = "bm25", rescore_scorer: str = "tfidf",
    query_weight: float = 1.0, rescore_weight: float = 1.0,
) -> pa.Table:
    """Two-pass rescoring (the Lucene/ES `rescore` window): retrieve the
    GLOBAL top-`window` per query under the primary scorer, compute exact
    secondary scores for just those (query, doc) pairs — one raw Ray task
    per owning partition (doc_id % P), O(window × Q) pairs total, never the
    corpus — and re-rank the window by

        final = query_weight * primary + rescore_weight * secondary

    (ties: final desc, doc_id asc), keeping top-k. Docs outside the window
    can never enter the result (ES rescore semantics). The secondary pass
    re-accumulates in lexicographic term order, so both addends are
    bit-identical to full searches under their scorers — the combined score
    is DuckDB-oracle-checkable (driver entry `bm25_topk_rescored`).
    Requires the hash docid_strategy (owner routing by doc_id % P)."""
    import numpy as np

    from ..stages.search import score_docs_rows

    first = search_to_table(index_dir, queries, QueryConfig(k=window, scorer=scorer))
    if len(first) == 0:
        return first
    plan, stats = _plan(index_dir, queries, window, QueryConfig(scorer=rescore_scorer))
    if stats.get("docid_strategy", "hash") != "hash":
        raise ValueError("rescore_topk requires the hash docid_strategy")
    num_p = int(stats["num_partitions"])
    qids = first.column("query_id").to_numpy(zero_copy_only=False).astype(np.int64)
    docs = first.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    owner = (docs % num_p).astype(np.int64)
    plan_ref = ray.put(plan)
    task = ray.remote(score_docs_rows)
    futs = [
        task.remote(
            index_dir, int(p), int(stats["block_size"]), plan_ref,
            rescore_scorer, qids[owner == p], docs[owner == p],
        )
        for p in np.unique(owner)
    ]
    sec = pa.concat_tables(ray.get(futs))
    joined = first.join(sec, keys=["query_id", "doc_id"], join_type="left outer")
    s1 = joined.column("score").to_numpy(zero_copy_only=False)
    s2c = joined.column("score2").to_numpy(zero_copy_only=False)
    s2 = np.where(np.isnan(s2c.astype(np.float64)), 0.0, s2c)
    final = query_weight * s1 + rescore_weight * s2
    joined = (
        joined.drop_columns(["rank", "score", "score2"])
        .append_column("score", pa.array(final, type=pa.float64()))
    )
    jq = joined.column("query_id").to_numpy(zero_copy_only=False).astype(np.int64)
    jd = joined.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    jf = joined.column("score").to_numpy(zero_copy_only=False)
    order = np.lexsort((jd, -jf, jq))
    qs = jq[order]
    # rank within query: position minus the query group's start offset
    starts = np.r_[0, np.flatnonzero(np.diff(qs)) + 1]
    grp_start = np.repeat(starts, np.diff(np.r_[starts, qs.size]))
    rank = np.arange(qs.size, dtype=np.int64) - grp_start
    keep = order[rank < k]
    out = joined.take(pa.array(keep)).append_column(
        "rank", pa.array(rank[rank < k], type=pa.int64())
    )
    cols = ["query_id", "rank", "doc_id", "score"] + [
        c for c in out.column_names if c not in ("query_id", "rank", "doc_id", "score")
    ]
    return out.select(cols)


def search_with_snippets(
    index_dir: str, queries: pa.Table, query_cfg: QueryConfig | None = None,
    concurrency: int = 8,
) -> pa.Table:
    """Top-k search + best highlight window per result (snippet_start,
    snippet_len token coordinates): the smallest window containing every
    query term present in the doc. Results go to `snippet_windows` tasks
    grouped by owning shard; requires the positional sidecar."""
    import numpy as np

    query_cfg = query_cfg or QueryConfig()
    results = search_to_table(index_dir, queries, query_cfg)
    if len(results) == 0:
        return results.append_column(
            "snippet_start", pa.array([], type=pa.int64())
        ).append_column("snippet_len", pa.array([], type=pa.int64()))
    # the snippet plan must see the SAME term set the search used — with
    # fuzzy/synonyms on, a result may match only via an expansion, and the
    # window must cover the expanded term that actually occurs in the doc
    # (synonym members flatten into query_terms, which drives the window)
    plan, stats = _plan(
        index_dir, queries, query_cfg.k,
        QueryConfig(fuzzy_max_edits=query_cfg.fuzzy_max_edits, synonyms=query_cfg.synonyms),
    )
    num_p = int(stats["num_partitions"])
    n = _n_tasks(concurrency, num_p)
    owner = results.column("doc_id").to_numpy(zero_copy_only=False) % num_p
    plan_ref, terms = ray.put(plan), sorted(plan.term_idf)
    refs = [
        _op_task.remote(
            index_dir, int(stats["block_size"]), np.unique(owner[sel]).tolist(), terms,
            "snippet_windows", plan_ref, results.filter(pa.array(sel)), num_p,
        )
        for sel in (owner % n == i for i in range(n)) if sel.any()
    ]
    return _gather(refs).sort_by([("query_id", "ascending"), ("rank", "ascending")])


def prefix_doc_counts(
    index_dir: str, prefixes: list[str], concurrency: int = 8,
    mode: str = "prefix",
) -> pa.Table:
    """Per pattern query, the number of docs containing ANY matching term.
    mode="prefix": wildcard `term*` (per-shard sorted-dictionary bisect);
    mode="infix": wildcard `*term*` (per-shard vectorized substring scan of
    the dictionary). Both count the postings union, summing exactly across
    disjoint shards. Columns: (query_id, n_docs), query_id = pattern index."""
    t = _gather(_shard_tasks(
        index_dir, _base_stats(index_dir), concurrency, None,
        "pattern_doc_counts", list(prefixes), mode,
    ))
    if t is None:
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                "n_docs": pa.array([], type=pa.int64()),
            }
        )
    g = t.group_by(["query_id"]).aggregate([("n_docs", "sum")])
    out = pa.table(
        {"query_id": g.column("query_id"), "n_docs": g.column("n_docs_sum")}
    )
    import pyarrow.compute as pc

    # SQL-match semantics: a prefix matching nothing yields no row (the
    # oracle's JOIN+GROUP BY drops it), not a zero row
    out = out.filter(pc.greater(out.column("n_docs"), 0))
    return out.sort_by("query_id")


def suggest_terms(
    index_dir: str, prefixes: list[str], n: int = 10, concurrency: int = 8
) -> pa.Table:
    """Autocomplete / suggester: per prefix, the top-n dictionary terms by
    GLOBAL df (ties term-asc). Shards ship their dictionary range's
    (term, local df) rows — dictionary metadata only, no postings decode —
    and the driver sums df per term and ranks. Columns:
    (query_id, rank, term, df), query_id = prefix list index."""
    import numpy as np
    import pyarrow.compute as pc

    t = _gather(_shard_tasks(
        index_dir, _base_stats(index_dir), concurrency, None, "suggest_partials", list(prefixes)
    ))
    if t is None:
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                "rank": pa.array([], type=pa.int64()),
                "term": pa.array([], type=pa.string()),
                "df": pa.array([], type=pa.int64()),
            }
        )
    g = t.group_by(["query_id", "term"]).aggregate([("df", "sum")])
    qid = g.column("query_id").to_numpy(zero_copy_only=False)
    dfs = g.column("df_sum").to_numpy(zero_copy_only=False)
    # rank per query by (df desc, term asc)
    order = pc.sort_indices(
        g, sort_keys=[("query_id", "ascending"), ("df_sum", "descending"), ("term", "ascending")]
    ).to_numpy(zero_copy_only=False)
    qs2 = qid[order]
    new_q = np.concatenate(([True], qs2[1:] != qs2[:-1]))
    grp_start = np.maximum.accumulate(np.where(new_q, np.arange(qs2.size), 0))
    rank = np.arange(qs2.size) - grp_start
    keep = rank < n
    sel = order[keep]
    return pa.table(
        {
            "query_id": pa.array(qid[sel], type=pa.int64()),
            "rank": pa.array(rank[keep], type=pa.int64()),
            "term": g.column("term").take(pa.array(sel)),
            "df": pa.array(dfs[sel], type=pa.int64()),
        }
    )


def search_collapsed(
    index_dir: str, queries: pa.Table, facet: str = "lang", k: int = 10,
    concurrency: int = 8,
) -> pa.Table:
    """Field collapsing (the ES `collapse` surface): per query, the single
    best-scoring doc per facet value over the FULL match set, then the top-k
    of that collapsed list. Shards ship at most |facet dict| rows per query
    (bounded partials regardless of match-set size); the driver re-collapses
    and ranks. Columns: (query_id, rank, <facet>, doc_id, score)."""
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.bm25 import SCORERS

    t = _gather(_plan_tasks(
        index_dir, queries, k, concurrency, "collapse_best", SCORERS["bm25"], facet
    )[0])
    if t is None:
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                "rank": pa.array([], type=pa.int64()),
                facet: pa.array([], type=pa.string()),
                "doc_id": pa.array([], type=pa.int64()),
                "score": pa.array([], type=pa.float64()),
            }
        )
    # re-collapse across shards: best per (query, facet), then rank per query
    qid = t.column("query_id").to_numpy(zero_copy_only=False)
    did = t.column("doc_id").to_numpy(zero_copy_only=False)
    sc = t.column("score").to_numpy(zero_copy_only=False)
    enc = pc.dictionary_encode(t.column(facet).combine_chunks())
    lab = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((did, -sc, lab, qid))
    qo, lo_ = qid[order], lab[order]
    new_grp = np.concatenate(
        ([True], (qo[1:] != qo[:-1]) | (lo_[1:] != lo_[:-1]))
    )
    best = order[new_grp]  # best row per (query, facet)
    # rank the collapsed rows per query by (score desc, doc_id asc)
    order2 = np.lexsort((did[best], -sc[best], qid[best]))
    sel = best[order2]
    qs2 = qid[sel]
    new_q = np.concatenate(([True], qs2[1:] != qs2[:-1]))
    grp_start = np.maximum.accumulate(np.where(new_q, np.arange(qs2.size), 0))
    rank = np.arange(qs2.size) - grp_start
    keep = rank < k
    sel = sel[keep]
    return pa.table(
        {
            "query_id": pa.array(qid[sel], type=pa.int64()),
            "rank": pa.array(rank[keep], type=pa.int64()),
            facet: t.column(facet).take(pa.array(sel)),
            "doc_id": pa.array(did[sel], type=pa.int64()),
            "score": pa.array(sc[sel], type=pa.float64()),
        }
    )


def more_like_this(
    index_dir: str, docs: pa.Table, n_terms: int = 3, k: int = 10,
    query_cfg: QueryConfig | None = None,
) -> pa.Table:
    """Lucene MoreLikeThis analog: for each source row (doc_id, text), derive
    the doc's top-`n_terms` terms by within-doc tf x idf (idf from the
    index's GLOBAL df; exact ties break term-asc), run the disjunctive BM25
    search, and return the top-k EXCLUDING the source doc itself. query_id =
    source row index. Columns: (query_id, rank, doc_id, url, score) with
    ranks renumbered after the exclusion (the SQL `doc_id <> src` rank).

    The source text rides in because the doc layout stores postings
    term-major (no per-doc term vectors) — the caller has the stored field,
    exactly as a Lucene MLT caller passes the document."""
    import numpy as np
    import pyarrow.compute as pc

    from collections import Counter

    from ..functions.bm25 import idf as idf_fn

    stats = _base_stats(index_dir)
    n_docs = int(stats["n_docs"])
    src_ids = np.asarray(docs.column("doc_id").to_pylist(), dtype=np.int64)
    counts = [Counter(tokenize_py(t)) for t in docs.column("text").to_pylist()]
    dfm = lookup_term_df(index_dir, sorted({t for c in counts for t in c}))
    qtexts = []
    for c in counts:
        scored = sorted(
            (-(tf * idf_fn(dfm[term], n_docs)), term)
            for term, tf in c.items()
            if dfm.get(term, 0) > 0
        )
        qtexts.append(" ".join(term for _, term in scored[:n_terms]))
    qs = pa.table(
        {
            "query_id": pa.array(np.arange(len(qtexts), dtype=np.int64)),
            "text": pa.array(qtexts, type=pa.string()),
        }
    )
    import dataclasses

    cfg = dataclasses.replace(query_cfg or QueryConfig(), k=k + 1, offset=0)
    res = search_to_table(index_dir, qs, cfg)
    if len(res) == 0:
        return res
    qid = res.column("query_id").to_numpy(zero_copy_only=False).astype(np.int64)
    did = res.column("doc_id").to_numpy(zero_copy_only=False)
    keep = did != src_ids[qid]  # drop the source doc, keep order
    res = res.filter(pa.array(keep))
    qid = qid[keep]
    # renumber ranks within each query (rows already (query_id, rank)-sorted)
    new_q = np.concatenate(([True], qid[1:] != qid[:-1]))
    grp = np.maximum.accumulate(np.where(new_q, np.arange(qid.size), 0))
    rank = np.arange(qid.size) - grp
    res = res.set_column(
        res.schema.get_field_index("rank"), "rank",
        pa.array(rank.astype(np.int32), type=pa.int32()),
    )
    return res.filter(pc.less(res.column("rank"), k))


def search_to_table(index_dir: str, queries: pa.Table, query_cfg: QueryConfig | None = None) -> pa.Table:
    """Materialized, deterministically ordered results. Merges driver-side
    when the partial set is small (k × partitions × queries rows)."""
    query_cfg = query_cfg or QueryConfig()
    query_cfg.check(queries.column_names)

    def top_k(queries: pa.Table, cfg: QueryConfig) -> pa.Table:
        refs, stats = search_partials(index_dir, queries, cfg)
        return _merge_partials(refs, cfg.k, cfg.k * len(stats["partitions"]) * len(queries))

    return paged(top_k, queries, query_cfg)
