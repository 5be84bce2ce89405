"""End-to-end query pipeline (SURVEY.md §3.1 flagship trace, search side).

    queries (small table)
      -> tokenize + global df lookup -> QueryPlan   [driver, tiny]
      -> ray.put(plan)                              [broadcast once, J3]
      -> one Ray task per partition group           [ShardSearcher etc.]
      -> merge partials: driver-side vectorized when k×P×Q is small,
         groupby(query_id).map_groups otherwise    [partial -> final top-k]

The fan-out axis is PARTITIONS (the big side); queries ride along as one
broadcast object — the reference's 'every query probes the whole index'
(bindings.cpp:196-212 parallel query loop) turned inside out for sharding.
A one-shot call runs its shard stage as plain `num_cpus=1` tasks on the
cluster's already-started workers (no per-call actor pool to spawn and
tear down); callers concatenate the tasks' tables, and partial sets too
large for the driver merge stream through `_stream_merge` instead.

For repeated query batches over one index use stages.search.SearchSession
(persistent shard actors, load-once/serve-many).
"""

from __future__ import annotations

import os

import ray
import ray.data
import pyarrow as pa

from ..config import QueryConfig
from ..stages.search import (
    ShardSearcher,
    make_query_plan,
    merge_topk,
    merge_topk_table,
)
from ..functions.tokenize import tokenize_py
from ..state.stats import load_stats, lookup_term_df

# above this many partial rows the final merge happens distributed
DRIVER_MERGE_MAX_ROWS = 5_000_000


def plan_for(
    index_dir: str, queries: pa.Table, k: int, fuzzy_max_edits: int = 0,
    synonyms: dict[str, tuple[str, ...]] | None = None,
    boosts: dict[str, float] | None = None,
    scorer: str = "bm25",
):
    stats = load_stats(index_dir)
    text_terms: set[str] = set()
    for t in queries.column("text").to_pylist():
        text_terms.update(tokenize_py(t))
    distinct = set(text_terms)
    # negation / must terms need their true df too (must terms also score)
    for aux in ("neg_text", "must_text"):
        if aux in queries.column_names:
            for t in queries.column(aux).to_pylist():
                distinct.update(tokenize_py(t or ""))
    expansions = None
    if fuzzy_max_edits:
        from ..functions.fuzzy import fuzzy_expand_terms

        # fuzzy applies to POSITIVE tokens only (negation stays exact)
        expansions = fuzzy_expand_terms(index_dir, sorted(text_terms), fuzzy_max_edits)
        for s in expansions.values():
            distinct.update(s)
    if not synonyms:
        synonyms = None  # empty map == no synonym mode (plain term path)
    else:
        # group members need their true global df (group df = max member df)
        for tok in text_terms:
            distinct.update(synonyms.get(tok, ()))
    term_df = lookup_term_df(index_dir, sorted(distinct))
    plan = make_query_plan(
        queries, term_df, int(stats["n_docs"]), float(stats["avgdl"]), k,
        expansions=expansions, synonyms=synonyms, boosts=(boosts or None),
    )
    from ..functions.bm25 import SCORERS

    if getattr(SCORERS[scorer], "needs_cf", False):
        # cf-based similarities (LM Dirichlet): collection frequency for the
        # plan's distinct terms, loaded via a pruned per-partition read
        import dataclasses

        from ..stages.search import load_term_cf

        plan = dataclasses.replace(
            plan,
            term_cf=load_term_cf(
                index_dir, stats["partitions"], sorted(plan.term_idf.keys()),
                int(stats["block_size"]),
            ),
            total_len=int(stats["sum_doc_len"]),
        )
    return plan, stats


def _run_shard(shard_cls, ctor_kwargs: dict, batch: pa.Table) -> pa.Table:
    return shard_cls(**ctor_kwargs)(batch)


_shard_task = ray.remote(num_cpus=1)(_run_shard)


def _n_tasks(concurrency: int, n_items: int) -> int:
    ncpu = int(ray.cluster_resources().get("CPU", concurrency))
    return max(1, min(concurrency, n_items, ncpu))


def _shard_tasks(
    shard_cls, index_dir: str, stats: dict, concurrency: int, **ctor_kwargs
) -> list:
    """Fan a shard stage (ShardSearcher, ShardFacets, ...) out over the
    index's partitions: at most `concurrency` (and cluster-CPU) tasks, each
    constructing `shard_cls` and calling it on its group of partition ids.
    Returns the tasks' ObjectRefs, unawaited."""
    parts = [int(p) for p in stats["partitions"]]
    n = _n_tasks(concurrency, len(parts))
    ctor_kwargs.update(index_dir=index_dir, block_size=int(stats["block_size"]))
    return [
        _shard_task.remote(
            shard_cls, ctor_kwargs, pa.table({"partition": pa.array(parts[i::n], pa.int64())})
        )
        for i in range(n)
    ]


def _gather(refs) -> pa.Table | None:
    """The tasks' non-empty tables concatenated, or None when all are empty."""
    tabs = [t for t in ray.get(refs) if len(t)]
    return pa.concat_tables(tabs) if tabs else None


def search_partials(
    index_dir: str, queries: pa.Table, query_cfg: QueryConfig | None = None
) -> tuple[list, dict]:
    """Plan the batch and submit the per-shard partial top-k tasks; returns
    their unawaited ObjectRefs (tables carrying the per-query counters —
    the reference's distance-computation stats, Index.h:83-84) + stats."""
    query_cfg = query_cfg or QueryConfig()
    fz = getattr(query_cfg, "fuzzy_max_edits", 0)
    if fz and query_cfg.method not in ("taat", "maxscore"):
        raise ValueError(
            "fuzzy matching is supported on the default scoring methods "
            f"(taat/maxscore), not method={query_cfg.method!r}"
        )
    syn = getattr(query_cfg, "synonyms", None)
    if syn and query_cfg.method not in ("taat", "maxscore"):
        raise ValueError(
            "synonyms are supported on the default scoring methods "
            f"(taat/maxscore), not method={query_cfg.method!r}"
        )
    if syn and fz:
        raise ValueError("synonyms cannot combine with fuzzy_max_edits")
    from ..functions.bm25 import SCORERS as _SC

    if syn and getattr(_SC[query_cfg.scorer], "needs_cf", False):
        raise ValueError(
            f"synonyms are unsupported with scorer {query_cfg.scorer!r} "
            "(pooled-group cf semantics are ambiguous)"
        )
    boosts = getattr(query_cfg, "boosts", None)
    if boosts and query_cfg.method not in ("taat", "maxscore"):
        raise ValueError(
            "term boosts are supported on the default scoring methods "
            f"(taat/maxscore), not method={query_cfg.method!r}"
        )
    # pagination: shards must return top-(offset+k) partials for the final
    # slice to be exact (direct callers merge + slice themselves)
    plan, stats = plan_for(
        index_dir, queries, query_cfg.k + getattr(query_cfg, "offset", 0),
        fuzzy_max_edits=fz, synonyms=syn, boosts=boosts, scorer=query_cfg.scorer,
    )
    refs = _shard_tasks(
        ShardSearcher, index_dir, stats, query_cfg.concurrency,
        plan_ref=ray.put(plan), query_cfg=query_cfg,
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
    # federation covers the plain disjunctive BM25/TF-IDF path; every other
    # QueryConfig feature either needs per-index state the merged plan does
    # not carry (fuzzy/synonym expansion, cf) or extra merge handling
    # (offset) — reject loudly instead of returning plausible wrong results
    from ..functions.bm25 import SCORERS as _SC

    unsupported = [
        name
        for name, val in (
            ("offset", getattr(query_cfg, "offset", 0)),
            ("fuzzy_max_edits", getattr(query_cfg, "fuzzy_max_edits", 0)),
            ("synonyms", getattr(query_cfg, "synonyms", None)),
            ("boosts", getattr(query_cfg, "boosts", None)),
        )
        if val
    ]
    if getattr(_SC[query_cfg.scorer], "needs_cf", False):
        unsupported.append(f"scorer={query_cfg.scorer!r} (needs cf)")
    bad_cols = {"neg_text", "must_text", "after_score", "after_doc"} & set(
        queries.column_names
    )
    if bad_cols:
        unsupported.append(f"query columns {sorted(bad_cols)}")
    if unsupported:
        raise ValueError(
            f"federated_search supports the plain disjunctive path only; "
            f"unsupported here: {', '.join(unsupported)}"
        )
    stats_list = [load_stats(d) for d in index_dirs]
    fp = {s.get("analyzer") for s in stats_list}
    if len(fp) != 1:
        raise ValueError(f"federated indexes use different analyzers: {fp}")
    distinct: set[str] = set()
    for t in queries.column("text").to_pylist():
        distinct.update(tokenize_py(t))
    terms = sorted(distinct)
    merged_df: dict[str, int] = {t: 0 for t in terms}
    for d in index_dirs:
        for t_, v in lookup_term_df(d, terms).items():
            merged_df[t_] += int(v)
    n = sum(int(s["n_docs"]) for s in stats_list)
    sdl = sum(int(s["sum_doc_len"]) for s in stats_list)
    avgdl = sdl / n if n else 0.0
    plan = make_query_plan(queries, merged_df, n, avgdl, query_cfg.k)
    plan_ref = ray.put(plan)
    refs = [
        r
        for d, s in zip(index_dirs, stats_list)
        for r in _shard_tasks(
            ShardSearcher, d, s, query_cfg.concurrency, plan_ref=plan_ref, query_cfg=query_cfg
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
    from ..stages.search import ShardFacets

    numeric = facet.startswith("len:")
    fcol = "bucket" if numeric else facet
    plan, stats = plan_for(index_dir, queries, k=1)
    t = _gather(
        _shard_tasks(ShardFacets, index_dir, stats, concurrency, plan_ref=ray.put(plan), facet=facet)
    )
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


def _shard_partials(
    index_dir: str, queries: pa.Table, shard_cls, concurrency: int = 8
) -> tuple[pa.Table | None, dict]:
    """Shared orchestration for the per-shard partial-aggregation stages
    (match stats / histograms / significant terms): plan_for -> shard tasks
    over partition ids -> concatenated partial table (None when the match
    set is empty) + the index stats."""
    plan, stats = plan_for(index_dir, queries, k=1)
    refs = _shard_tasks(shard_cls, index_dir, stats, concurrency, plan_ref=ray.put(plan))
    return _gather(refs), stats


def match_stats(
    index_dir: str, queries: pa.Table, concurrency: int = 8
) -> pa.Table:
    """Per-query doc_len stats over the FULL match set (the ES `stats`
    aggregation): (query_id, n_docs, dl_min, dl_max, dl_sum, dl_avg).
    Per-shard integer partials merge with sum/min/max/sum (exact under
    disjoint doc partitioning); dl_avg divides the exact integers once at
    the end, so even the float column hash-matches the SQL oracle."""
    from ..stages.search import ShardMatchStats

    t, _ = _shard_partials(index_dir, queries, ShardMatchStats, concurrency)
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

    from ..stages.search import ShardMatchHist

    t, _ = _shard_partials(index_dir, queries, ShardMatchHist, concurrency)
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
    foreground counts come from per-shard partials (ShardSigTerms) that merge
    by sum; df/N come from the index's own segment stats. Returns the top_n
    rows per query by (lift desc, term asc)."""
    import numpy as np

    from ..stages.introspect import df_distribution
    from ..stages.search import ShardSigTerms

    t, stats = _shard_partials(index_dir, queries, ShardSigTerms, concurrency)
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
    if query_cfg.method not in ("taat", "maxscore"):
        raise ValueError(
            "explain supports the default scoring methods (taat/maxscore), "
            f"not method={query_cfg.method!r}"
        )
    if getattr(query_cfg, "fuzzy_max_edits", 0) or getattr(query_cfg, "synonyms", None):
        raise ValueError("explain does not support fuzzy/synonym expansion")
    for col in ("neg_text", "must_text", "after_score", "after_doc"):
        if col in queries.column_names:
            raise ValueError(f"explain does not support the {col} query column")
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
    plan, stats = plan_for(
        index_dir, queries, query_cfg.k, boosts=getattr(query_cfg, "boosts", None)
    )
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
    from ..state.stats import load_stats

    stats = load_stats(index_dir)
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
    plan, stats = plan_for(index_dir, queries, window, scorer=rescore_scorer)
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
    query term present in the doc. Results go to SnippetExtractor tasks
    grouped by owning shard; requires the positional sidecar."""
    from ..stages.search import SnippetExtractor

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
    plan, stats = plan_for(
        index_dir, queries, query_cfg.k,
        fuzzy_max_edits=getattr(query_cfg, "fuzzy_max_edits", 0),
        synonyms=getattr(query_cfg, "synonyms", None),
    )
    num_p = int(stats["num_partitions"])
    n = _n_tasks(concurrency, num_p)
    group = results.column("doc_id").to_numpy(zero_copy_only=False) % num_p % n
    kw = {
        "index_dir": index_dir,
        "plan_ref": ray.put(plan),
        "block_size": int(stats["block_size"]),
        "num_partitions": num_p,
    }
    t = pa.concat_tables(
        ray.get(
            [
                _shard_task.remote(SnippetExtractor, kw, results.filter(pa.array(group == i)))
                for i in range(n)
            ]
        )
    )
    return t.sort_by([("query_id", "ascending"), ("rank", "ascending")])


def prefix_doc_counts(
    index_dir: str, prefixes: list[str], concurrency: int = 8,
    mode: str = "prefix",
) -> pa.Table:
    """Per pattern query, the number of docs containing ANY matching term.
    mode="prefix": wildcard `term*` (per-shard sorted-dictionary bisect);
    mode="infix": wildcard `*term*` (per-shard vectorized substring scan of
    the dictionary). Both count the postings union, summing exactly across
    disjoint shards. Columns: (query_id, n_docs), query_id = pattern index."""
    from ..stages.search import ShardPrefixCounts

    t = _gather(
        _shard_tasks(
            ShardPrefixCounts, index_dir, load_stats(index_dir), concurrency,
            prefixes=list(prefixes), mode=mode,
        )
    )
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

    from ..stages.search import ShardSuggest

    t = _gather(
        _shard_tasks(
            ShardSuggest, index_dir, load_stats(index_dir), concurrency, prefixes=list(prefixes)
        )
    )
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

    from ..stages.search import ShardCollapse

    plan, stats = plan_for(index_dir, queries, k=k)
    t = _gather(
        _shard_tasks(ShardCollapse, index_dir, stats, concurrency, plan_ref=ray.put(plan), facet=facet)
    )
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

    stats = load_stats(index_dir)
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
    if getattr(query_cfg, "offset", 0) > 0:
        import dataclasses

        import pyarrow.compute as pc

        deep = dataclasses.replace(query_cfg, k=query_cfg.k + query_cfg.offset, offset=0)
        res = search_to_table(index_dir, queries, deep)
        return res.filter(pc.greater_equal(res.column("rank"), query_cfg.offset))
    refs, stats = search_partials(index_dir, queries, query_cfg)
    return _merge_partials(refs, query_cfg.k, query_cfg.k * len(stats["partitions"]) * len(queries))
