"""Driver contract for flatnav-ft (Ray-Data-native full-text + training-data
engine; see SURVEY.md §2 for the operator inventory each entry maps to).

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# Canonical analyzer, expressed identically in engine code
# (flatnav_ray/functions/tokenize.py) and DuckDB SQL:
_TOKS = "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')"
_TERMS = (
    "SELECT doc_id, unnest(" + _TOKS + ") AS term FROM documents"
)
_STOP_SQL = "['the','of','and','to','a','in','is','it','you','that','he','was','for','on','are','with','as','i','his','they']"

_LANG_PROFILES_SQL = {
    "de": "['der','die','und','in','den','von','zu','das','mit','sich','des','auf','für','ist','im','dem','nicht','ein']",
    "en": _STOP_SQL,
    "es": "['el','la','de','que','y','a','en','un','ser','se','no','haber','por','con','su','para','como','estar']",
    "fr": "['le','de','un','être','et','à','il','avoir','ne','je','son','que','se','qui','ce','dans','en','du','elle']",
    "zh": "['的','一','是','在','不','了','有','和','人','这','中','大','为','上','个','国','我','以','要','他']",
}

# ---- exact-hash SQL kernels (fingerprint oracle) -------------------------
# DuckDB replication of functions/hashes.py: splitmix64 + word-wise FNV-1a,
# bit-for-bit (tokens are pure [a-z0-9] ASCII, so ascii(substr(..)) == byte).
# All mod-2^64 arithmetic runs in HUGEINT; 64x64 multiplies by the big
# splitmix constants use the split formulation a0*b + ((a1*b_lo mod 2^32)<<32)
# because the full product overflows INT128 and DuckDB's << is
# signed-range-checked even on UBIGINT.
_M64 = "18446744073709551616::HUGEINT"


def _mulm_small_sql(a: str, b: int) -> str:
    # b < 2^63: the INT128 product fits directly
    return f"((({a})::HUGEINT * {b}::HUGEINT % {_M64})::UBIGINT)"


def _mulm_big_sql(avar: str, b: int) -> str:
    b_lo = b & 0xFFFFFFFF
    return (
        f"((((({avar} & 4294967295)::HUGEINT * {b}::HUGEINT) + "
        f"(({avar} >> 32) * {b_lo}::UBIGINT & 4294967295)::HUGEINT * 4294967296::HUGEINT) "
        f"% {_M64})::UBIGINT)"
    )


def _sm_sql(x: str) -> str:
    """splitmix64(x) — single-element list_transform lambdas as let-bindings
    (keeps each intermediate evaluated once; no textual blowup)."""
    z1 = f"(((z::HUGEINT + 11400714819323198485::HUGEINT) % {_M64})::UBIGINT)"
    z2 = _mulm_big_sql("zx1", 0xBF58476D1CE4E5B9)
    z3 = _mulm_big_sql("zx2", 0x94D049BB133111EB)
    return (
        f"list_transform([{x}], z -> "
        f"list_transform([{z1}], z1 -> "
        f"list_transform([xor(z1, z1 >> 30)], zx1 -> "
        f"list_transform([{z2}], z2 -> "
        f"list_transform([xor(z2, z2 >> 27)], zx2 -> "
        f"list_transform([{z3}], z3 -> xor(z3, z3 >> 31))[1])[1])[1])[1])[1])[1]"
    )


def _hash64_sql() -> str:
    """stable_hash64 of token column `t` (hashes.py:47-57): fold 8-byte LE
    words with FNV-1a, then splitmix64(h ^ len)."""
    word = (
        "list_reduce(list_transform(range(8), k -> "
        "CASE WHEN 8*j + k < length(t) THEN ascii(substr(t, 8*j + k + 1, 1))::UBIGINT << (8*k) "
        "ELSE 0::UBIGINT END), (a, b) -> xor(a, b))"
    )
    words = f"list_transform(range((length(t) + 7) // 8), j -> {word})"
    fnv = (
        f"list_reduce(list_prepend(14695981039346656037::UBIGINT, {words}), "
        f"(h, w) -> {_mulm_small_sql('xor(h, w)', 1099511628211)})"
    )
    return _sm_sql(f"xor({fnv}, length(t)::UBIGINT)")


def _sm_cols_sql(z: str, out: str, sfx: str) -> str:
    """splitmix64 as a lateral-alias column chain (each intermediate computed
    once, fully vectorized — no per-row list allocation). `sfx` must be unique
    per call site: CTE output columns leak into downstream CTEs and DuckDB
    resolves a name to the input column over the lateral alias."""
    return (
        f"((({z})::HUGEINT + 11400714819323198485::HUGEINT) % {_M64})::UBIGINT AS z1{sfx}, "
        f"xor(z1{sfx}, z1{sfx} >> 30) AS zx1{sfx}, "
        f"{_mulm_big_sql('zx1' + sfx, 0xBF58476D1CE4E5B9)} AS z2{sfx}, "
        f"xor(z2{sfx}, z2{sfx} >> 27) AS zx2{sfx}, "
        f"{_mulm_big_sql('zx2' + sfx, 0x94D049BB133111EB)} AS z3{sfx}, "
        f"xor(z3{sfx}, z3{sfx} >> 31) AS {out}"
    )


def _minhash_sql() -> str:
    """Oracle for stages/dedup.minhash_lsh_clusters (num_perm=64, bands=16,
    shingle_n=3): token hashes over distinct tokens, rolling 3-gram shingles
    via lead(), 64 splitmix permutation minima, 4-row band xor -> bucket,
    star pairs capped at the 64 smallest ids per bucket, connected components
    as a recursive transitive closure with min-id labels (matches union-find
    on an undirected graph)."""
    return f"""
WITH RECURSIVE tok AS (
  SELECT doc_id, u.i, u.t
  FROM (SELECT doc_id, {_TOKS} AS toks FROM documents) d,
  LATERAL (SELECT unnest(toks) AS t, generate_subscripts(toks, 1) AS i) u
), dth AS (
  SELECT t, {_hash64_sql()} AS h FROM (SELECT DISTINCT t FROM tok)
), th AS (
  SELECT doc_id, i, h FROM tok JOIN dth USING (t)
), led AS (
  SELECT doc_id, h, lead(h, 1) OVER w AS h1, lead(h, 2) OVER w AS h2
  FROM th WINDOW w AS (PARTITION BY doc_id ORDER BY i)
), s1 AS (
  SELECT doc_id, h1, h2, {_sm_cols_sql('h', 'smh', 'a')},
    xor(smh, coalesce(h1, 0::UBIGINT)) AS x1
  FROM led
), s2 AS (
  SELECT doc_id, h2, {_sm_cols_sql('x1', 'smx1', 'b')}, xor(smx1, h2) AS sh
  FROM s1 WHERE h2 IS NOT NULL
), dsh AS (
  SELECT DISTINCT doc_id, sh FROM s2
), mix AS (
  SELECT doc_id, p, {_sm_cols_sql("xor(sh, (1 + p * 2654435769)::UBIGINT)", 'm', 'c')}
  FROM dsh CROSS JOIN range(64) pr(p)
), sig0 AS (
  SELECT doc_id, p, min(m) AS s FROM mix GROUP BY doc_id, p
), sigall AS (
  SELECT d.doc_id, pr.p, coalesce(sig0.s, 18446744073709551615::UBIGINT) AS s
  FROM (SELECT DISTINCT doc_id FROM documents) d
  CROSS JOIN range(64) pr(p)
  LEFT JOIN sig0 ON sig0.doc_id = d.doc_id AND sig0.p = pr.p
), bandx AS (
  SELECT doc_id, p // 4 AS b, bit_xor(s) AS xb FROM sigall GROUP BY doc_id, p // 4
), buck AS (
  SELECT doc_id, {_sm_cols_sql("xor(xb, (b + 1)::UBIGINT)", 'bk', 'd')},
    (bk & 4611686018427387903::UBIGINT)::BIGINT AS bucket
  FROM bandx
), ranked AS (
  SELECT bucket, doc_id,
    row_number() OVER (PARTITION BY bucket ORDER BY doc_id) AS rn,
    min(doc_id) OVER (PARTITION BY bucket) AS mn
  FROM buck
), pairs AS (
  SELECT mn AS a, doc_id AS b FROM ranked WHERE rn <= 64 AND doc_id > mn
), ed AS (
  SELECT a, b FROM pairs UNION SELECT b, a FROM pairs
), reach AS (
  SELECT doc_id AS src, doc_id AS dst FROM (SELECT DISTINCT doc_id FROM documents)
  UNION
  SELECT r.src, e.b AS dst FROM reach r JOIN ed e ON e.a = r.dst
)
SELECT src AS doc_id, min(dst) AS cluster_id FROM reach GROUP BY src ORDER BY doc_id
"""


def _simhash_sql() -> str:
    """Oracle for stages/dedup.simhash_clusters (hamming_threshold=3): per-bit
    majority votes over token-hash instances, sign-pack to a 64-bit signature,
    4x16-bit band buckets, all-pairs Hamming<=3 verify within each bucket
    capped at the 256 smallest ids, same recursive-closure clustering."""
    return f"""
WITH RECURSIVE tok AS (
  SELECT doc_id, u.t
  FROM (SELECT doc_id, {_TOKS} AS toks FROM documents) d,
  LATERAL (SELECT unnest(toks) AS t) u
), dth AS (
  SELECT t, {_hash64_sql()} AS h FROM (SELECT DISTINCT t FROM tok)
), th AS (
  SELECT doc_id, h FROM tok JOIN dth USING (t)
), cnt AS (
  SELECT doc_id, j, sum(((h >> j) & 1::UBIGINT)::BIGINT) AS c, count(*) AS n
  FROM th CROSS JOIN range(64) jr(j) GROUP BY doc_id, j
), sig0 AS (
  SELECT doc_id,
    (sum(CASE WHEN 2 * c > n THEN 1::HUGEINT << j ELSE 0::HUGEINT END))::UBIGINT AS sig
  FROM cnt GROUP BY doc_id
), sig AS (
  SELECT d.doc_id, coalesce(sig0.sig, 0::UBIGINT) AS sig
  FROM (SELECT DISTINCT doc_id FROM documents) d LEFT JOIN sig0 USING (doc_id)
), memb AS (
  SELECT ((sig >> (band * 16)) & 65535::UBIGINT)::BIGINT * 4 + band AS bucket, doc_id, sig
  FROM sig CROSS JOIN range(4) br(band)
), ranked AS (
  SELECT bucket, doc_id, sig,
    row_number() OVER (PARTITION BY bucket ORDER BY doc_id) AS rn
  FROM memb
), pairs AS (
  SELECT x.doc_id AS a, y.doc_id AS b
  FROM ranked x JOIN ranked y ON x.bucket = y.bucket AND x.doc_id < y.doc_id
  WHERE x.rn <= 256 AND y.rn <= 256 AND bit_count(xor(x.sig, y.sig)) <= 3
), ed AS (
  SELECT a, b FROM pairs UNION SELECT b, a FROM pairs
), reach AS (
  SELECT doc_id AS src, doc_id AS dst FROM (SELECT DISTINCT doc_id FROM documents)
  UNION
  SELECT r.src, e.b AS dst FROM reach r JOIN ed e ON e.a = r.dst
)
SELECT src AS doc_id, min(dst) AS cluster_id FROM reach GROUP BY src ORDER BY doc_id
"""


def _fingerprint_sql() -> str:
    """Oracle for textstats.fingerprint_docs (window=4): rolling shingle
    hashes via lead() and the sequential sm/xor recurrence, xor-folded per doc
    with bit_xor, masked to 63 bits."""
    s1 = f"CASE WHEN h1 IS NULL THEN s0 ELSE xor({_sm_sql('s0')}, h1) END"
    s2 = f"CASE WHEN h2 IS NULL THEN s1v ELSE xor({_sm_sql('s1v')}, h2) END"
    s3 = f"CASE WHEN h3 IS NULL THEN s2v ELSE xor({_sm_sql('s2v')}, h3) END"
    return f"""
WITH tok AS (
  SELECT doc_id, u.i, u.t
  FROM (SELECT doc_id, {_TOKS} AS toks FROM documents) d,
  LATERAL (SELECT unnest(toks) AS t, generate_subscripts(toks, 1) AS i) u
), th AS (
  SELECT doc_id, i, {_hash64_sql()} AS h FROM tok
), led AS (
  SELECT doc_id, i, h AS s0,
    lead(h, 1) OVER w AS h1, lead(h, 2) OVER w AS h2, lead(h, 3) OVER w AS h3
  FROM th WINDOW w AS (PARTITION BY doc_id ORDER BY i)
), r1 AS (SELECT doc_id, {s1} AS s1v, h2, h3 FROM led),
r2 AS (SELECT doc_id, {s2} AS s2v, h3 FROM r1),
r3 AS (SELECT doc_id, {s3} AS s3v FROM r2),
fp AS (SELECT doc_id, bit_xor({_sm_sql('s3v')}) AS f FROM r3 GROUP BY doc_id)
SELECT d.doc_id,
  (coalesce(fp.f, 0::UBIGINT) & 9223372036854775807::UBIGINT)::BIGINT AS fingerprint
FROM (SELECT DISTINCT doc_id FROM documents) d LEFT JOIN fp USING (doc_id)
ORDER BY doc_id
"""


def entry() -> Any:
    """Flagship pipeline at sf0.001: adapt documents -> pages, build the
    partitioned inverted index, derive the reference query set, serve top-k
    BM25 via the shard-actor pool."""
    from flatnav_ray.pipelines.documents import bm25_topk

    return bm25_topk("/root/testdata/sf0.001").to_pandas()


def queries() -> dict[str, Callable[[str], Any]]:
    from flatnav_ray.pipelines import documents as d
    from flatnav_ray.pipelines import events as ev

    return {
        # event-stream family (tumbling windows / sessionization — §2.9
        # extensions; the reference is batch-only)
        "revenue_by_nation": ev.revenue_by_nation,  # star-schema multi-join analytics
        "pricing_summary": ev.pricing_summary,    # TPC-H Q1 groupby report
        "suppliers_by_region": ev.suppliers_by_region,  # dimension rollup (broadcast join)
        "parts_brand_stats": ev.parts_brand_stats,      # grouped min/max/count
        "events_windowed": ev.events_windowed,
        "events_hopping": ev.events_hopping,      # overlapping-window aggregate
        "events_sessions": ev.events_sessions,
        "events_asof": ev.events_asof,
        "events_range_join": ev.events_range_join,
        "events_json_rollup": ev.events_json_rollup,  # semi-structured extraction
        # tokenizer / stats family (M4, A6, A8, A9)
        "doc_token_stats": d.doc_token_stats,
        "term_df": d.term_df,
        "term_cf": d.term_cf,
        "top_terms": d.top_terms,
        "lang_counts": d.lang_counts,
        "doc_quality": d.doc_quality,
        "token_counts": d.token_counts,
        "langid_pred": d.langid_pred,
        "top_docs_per_lang": d.top_docs_per_lang,
        "docs_sample": d.docs_sample,
        "docs_split": d.docs_split,               # deterministic hash train/test split
        "mixture_sample": d.mixture_sample,       # per-source token-budget mixture cut
        "docs_split_stratified": d.docs_split_stratified,  # exact per-lang split quotas
        "gopher_filter": d.gopher_filter,         # composite integer-exact quality gate
        "pii_counts": d.pii_counts,               # PII detection pass (regex parity)
        "export_shuffle_plan": d.export_shuffle_plan,  # deterministic SGD-shuffle shards
        "dsir_logratio": d.dsir_logratio,         # DSIR importance weights
        "unigram_ppl": d.unigram_ppl,             # CCNet-style LM perplexity filter
        "bpe_top_merges": d.bpe_top_merges,       # tokenizer induction (BPE iter 1)
        "curate_pipeline": d.curate_pipeline,     # composed end-to-end curation chain
        "doc_repetition": d.doc_repetition,       # Gopher repetition signals
        # dedup family (D4 + training-data extensions)
        "dedup_exact": d.dedup_exact,
        "jaccard_pairs": d.jaccard_pairs,
        "minhash_clusters": d.minhash_clusters,
        "simhash_dups": d.simhash_dups,
        "minhash_clusters_stream": d.minhash_clusters_stream,  # Dataset label path
        "simhash_dups_stream": d.simhash_dups_stream,          # Dataset label path
        "fingerprints": d.fingerprints,
        "decontam_overlap": d.decontam_overlap,   # benchmark n-gram decontamination
        # embeddings / similarity search
        "knn_cosine": d.knn_cosine,
        "knn_cosine_filtered": d.knn_cosine_filtered,  # metadata-filter vector search
        "knn_range": d.knn_range,                 # radius query (FAISS range_search)
        "knn_l2": d.knn_l2,
        "knn_ip": d.knn_ip,
        "knn_l2_u8": d.knn_l2_u8,                 # uint8 integer-exact path
        "knn_ip_i8": d.knn_ip_i8,                 # int8 integer-exact path
        # approximate ANN family — every entry is SELF-EVIDENCING: it runs
        # the approximate search AND emits the hash-checkable gate (exact
        # top-k reference rows + per-query clamped overlap, the
        # _recall_floor_table pattern), so any sampled row proves both the
        # reference set and the recall floor without a twin entry
        "knn_ivf": d.knn_ivf_recall,              # IVF ANN + folded recall gate
        "knn_ivfpq": d.knn_ivfpq_recall,          # IVF-PQ ANN + folded recall gate
        "knn_nsw": d.knn_nsw_recall,              # graph ANN (reference core) + gate
        "knn_nsw_u8": d.knn_nsw_u8_recall,        # quantized NSW + integer-exact gate
        "embedding_dups": d.embedding_dups,
        "embedding_dups_lsh": d.embedding_dups_lsh_recall,  # LSH near-dup + gate
        "embedding_semdedup": d.semdedup_gate,    # SemDeDup + folded floor gate
        "media_features": d.media_features,       # rows-only (real PNG/WAV decode)
        # the engine itself (flagship: build + BM25 top-k, rank-identical)
        "bm25_topk": d.bm25_topk,
        "bm25_topk_page2": d.bm25_topk_page2,       # pagination: ranks 10..19
        "bm25_topk_after": d.bm25_topk_after,       # cursor search_after paging
        "bm25_topk_federated": d.bm25_topk_federated,  # multi-index merged-stats search
        "bm25_topk_wand": d.bm25_topk_wand,         # method="wand", same oracle
        "bm25_topk_termlayout": d.bm25_topk_termlayout,  # groupby(term)+salt layout
        "bm25_topk_multi": d.bm25_topk_multi,     # 2-term queries (WAND/MaxScore path)
        "bm25_topk_highlight": d.bm25_topk_highlight,  # snippet/highlight surface
        "bm25_topk_synonyms": d.bm25_topk_synonyms,  # SynonymQuery pooled-tf groups
        "bm25_topk_boost": d.bm25_topk_boost,     # per-term query boosts (term^3.0)
        "bm25_explain": d.bm25_explain,           # per-result score breakdown (explain)
        "bm25_topk_and": d.bm25_topk_and,         # conjunctive posting-list intersect (§2.7)
        "bm25_topk_msm": d.bm25_topk_msm,         # minimum_should_match threshold (2 of 3)
        "bm25_topk_not": d.bm25_topk_not,         # negation: -term candidate exclusion
        "bm25_topk_must": d.bm25_topk_must,       # boolean MUST+SHOULD mix
        "bm25_topk_bool": d.bm25_topk_bool,       # MUST+SHOULD+MUST_NOT combined
        "bm25_topk_fuzzy": d.bm25_topk_fuzzy,     # fuzzy term~1 dictionary expansion
        "more_like_this": d.more_like_this,       # MLT: top tf-idf terms -> search, self excluded
        "bm25_topk_phrase": d.bm25_topk_phrase,   # exact phrase (positional sidecar)
        "bm25_facets": d.bm25_facets,             # per-lang match counts (aggregations)
        "percolate_matches": d.percolate_matches,  # reverse search (stored queries)
        "fetch_stored_docs": d.fetch_stored_docs,   # stored-fields get-by-id
        "bm25_len_histogram": d.bm25_len_histogram,  # numeric range facet (doc_len buckets)
        "bm25_facets_top": d.bm25_facets_top,     # terms agg size cut + other bucket
        "bm25_hit_counts": d.bm25_hit_counts,     # total-hits per query
        "bm25_match_stats": d.bm25_match_stats,   # stats agg over the match set
        "bm25_significant_terms": d.bm25_significant_terms,  # overrepresented terms
        "bm25_cardinality": d.bm25_cardinality,   # exact distinct-count agg
        "bm25_len_percentiles": d.bm25_len_percentiles,  # exact percentiles agg
        "term_vectors_sample": d.term_vectors_sample,  # TermVectors API (index readback)
        "bm25_collapse_lang": d.bm25_collapse_lang,  # field collapsing (best per lang)
        "prefix_hit_counts": d.prefix_hit_counts,  # wildcard term* dictionary scan
        "infix_hit_counts": d.infix_hit_counts,    # wildcard *term* substring scan
        "regex_hit_counts": d.regex_hit_counts,    # regex term scan (RE2 dictionary)
        "suggest_prefix": d.suggest_prefix,       # autocomplete: top terms per prefix
        "suggest_spell": d.suggest_spell,         # did-you-mean term suggester
        "bm25_sortby_len": d.bm25_sortby_len,      # sort-by-field (doc_len) results
        "bm25_topk_stopfilter": d.bm25_topk_stopfilter,  # stopword analyzer variant
        "bm25_topk_filtered": d.bm25_topk_filtered,      # modal-lang candidate filter
        "bm25_topk_lenfilter": d.bm25_topk_lenfilter,    # doc_len range candidate filter
        "bm25_topk_tfidf": d.bm25_topk_tfidf,     # alternate scorer (M7)
        "bm25_topk_lmd": d.bm25_topk_lmd,         # LM Dirichlet (cf-based, 3rd scorer)
        "bm25_topk_rescored": d.bm25_topk_rescored,  # two-pass rescore window
        "bm25_topk_fielded": d.bm25_topk_fielded,    # BM25F weighted-field index
        "bm25_topk_compacted": d.bm25_topk_compacted,  # merge_indexes path (S8)
        "bm25_topk_incremental": d.bm25_topk_incremental,  # add_documents delta+swap
        "bm25_topk_deleted": d.bm25_topk_deleted,  # tombstone deletes (live stats)
        "bm25_topk_dense": d.bm25_topk_dense,     # dense_url docid reorder (O4)
        "bm25_topk_gorder": d.bm25_topk_gorder,   # Gorder docid reorder (O5, self-evidencing gate)
        "bm25_topk_rcm": d.bm25_topk_rcm,         # gorder+rcm sequenced reorder (gate)
    }


def _recall_floor_sql(floor: int) -> str:
    """Oracle for the ANN recall-floor gates: the exact cosine top-10 (same
    query as knn_cosine's oracle) plus the floor constant the Ray side clamps
    its approximate-overlap count to (documents._recall_floor_table)."""
    return (
        "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 10), "
        "s AS (SELECT q.query_id, e.vec_id, list_cosine_similarity(q.qe, e.embedding) AS cosine "
        "FROM q CROSS JOIN embeddings e), "
        "r AS (SELECT query_id, vec_id, "
        "row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id ASC) - 1 AS rank FROM s) "
        f"SELECT query_id, rank, vec_id, CAST({floor} AS BIGINT) AS overlap_at_least "
        "FROM r WHERE rank < 10 ORDER BY query_id, rank"
    )


def oracle_sql() -> dict[str, str]:
    toks = _TOKS
    terms = _TERMS
    lang_scores = ", ".join(
        f"len(list_filter({toks}, x -> list_contains({_LANG_PROFILES_SQL[lang]}, x))) AS s_{lang}"
        for lang in sorted(_LANG_PROFILES_SQL)
    )
    bm25_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents), "
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, (SELECT avg(dl) FROM dl) AS avgdl), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 20), "
        "scored AS (SELECT qt.query_id, tf.doc_id, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM qt JOIN tf ON tf.term = qt.term JOIN df ON df.term = qt.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "ranked AS (SELECT query_id, doc_id, row_number() OVER "
        "(PARTITION BY query_id ORDER BY score DESC, doc_id ASC) - 1 AS rank FROM scored) "
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank"
    )
    # docid-reorder gate (bm25_topk_gorder / bm25_topk_rcm): the default-
    # index exact rows plus the constant scores_match=1 the engine computes
    # as per-query score-multiset identity of the reordered index's result
    reorder_gate_sql = bm25_sql.replace(
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank",
        "SELECT query_id, rank, doc_id, CAST(1 AS BIGINT) AS scores_match "
        "FROM ranked WHERE rank < 10 ORDER BY query_id, rank",
    )
    assert reorder_gate_sql != bm25_sql
    # alternate scorer (M7): tf-idf = idf * tf / doc_len; same query derivation
    tfidf_sql = bm25_sql.replace(
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score",
        # ratio first (parenthesized): equal rational tf/dl pairs tie exactly
        # on both engines regardless of the idf ULP (see TfIdfScorer)
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf / dl.dl) AS score",
    )
    assert tfidf_sql != bm25_sql
    # LM Dirichlet similarity (mu=2000): needs a cf CTE (collection term
    # frequency) + corpus token total; per-term contribution clamped at 0
    # (Lucene LMDirichletSimilarity). Float-op association mirrors
    # LmDirichletScorer exactly: mup = 2000.0 * (cf / total), then
    # ln(1 + tf/mup) + ln(2000/(2000+dl)), every ln through libm on both
    # engines (DuckDB ln == libm log; the scorer uses math.log per distinct
    # operand).
    lmd_sql = bm25_sql.replace(
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, "
        "(SELECT avg(dl) FROM dl) AS avgdl), ",
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, "
        "(SELECT avg(dl) FROM dl) AS avgdl, (SELECT sum(dl) FROM dl) AS total), "
        f"cf AS (SELECT term, count(*) AS cf FROM ({terms}) GROUP BY term), ",
    ).replace(
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM qt JOIN tf ON tf.term = qt.term JOIN df ON df.term = qt.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), ",
        "greatest(ln(1 + (tf.tf / (2000.0 * (cf.cf / s.total)))) "
        "+ ln(2000.0 / (2000.0 + dl.dl)), 0.0) AS score "
        "FROM qt JOIN tf ON tf.term = qt.term JOIN df ON df.term = qt.term "
        "JOIN cf ON cf.term = qt.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), ",
    )
    assert lmd_sql != bm25_sql and "cf AS" in lmd_sql and "greatest" in lmd_sql
    # BM25F integer-weight fielded index == plain BM25 over the weighted
    # pseudo-document toks2 = first-8-tokens || toks (title 2x, body 1x).
    # df is UNCHANGED by the duplication (doc membership is), so the qt
    # query-derivation CTE stays on the original terms — identical queries
    # to bm25_topk (the engine derives them from the base index).
    fielded_sql = (
        f"WITH t AS (SELECT doc_id, {toks} AS tk FROM documents), "
        "t2 AS (SELECT doc_id, tk[1:8] || tk AS toks2 FROM t), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM "
        "(SELECT doc_id, unnest(toks2) AS term FROM t2) GROUP BY doc_id, term), "
        "dl AS (SELECT doc_id, len(toks2) AS dl FROM t2), "
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, "
        "(SELECT avg(dl) FROM dl) AS avgdl), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 20), "
        "scored AS (SELECT qt.query_id, tf.doc_id, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM qt JOIN tf ON tf.term = qt.term JOIN df ON df.term = qt.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "ranked AS (SELECT query_id, doc_id, row_number() OVER "
        "(PARTITION BY query_id ORDER BY score DESC, doc_id ASC) - 1 AS rank FROM scored) "
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank"
    )
    # two-pass rescore (Lucene/ES rescore window): bm25 top-30 window,
    # exact tfidf second pass on those pairs, final = 1.0*bm25 + 2.0*tfidf
    # re-ranked WITHIN the window (docs outside can never enter).
    rescored_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents), "
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, (SELECT avg(dl) FROM dl) AS avgdl), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 20), "
        "scored AS (SELECT qt.query_id, tf.doc_id, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf / dl.dl) AS score2 "
        "FROM qt JOIN tf ON tf.term = qt.term JOIN df ON df.term = qt.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "win AS (SELECT query_id, doc_id, score, score2, row_number() OVER "
        "(PARTITION BY query_id ORDER BY score DESC, doc_id ASC) - 1 AS r FROM scored), "
        "final AS (SELECT query_id, doc_id, 1.0 * score + 2.0 * score2 AS fs "
        "FROM win WHERE r < 30), "
        "ranked AS (SELECT query_id, doc_id, row_number() OVER "
        "(PARTITION BY query_id ORDER BY fs DESC, doc_id ASC) - 1 AS rank FROM final) "
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank"
    )
    # dense_url docid strategy (O4): scores unchanged, but exact-score ties
    # break by the DENSE id = rank-of-url-within-partition * P + partition
    # (P = 8, partition = doc_id % 8, url = source || '/' || doc_id) — the
    # SQL reconstructs that order; output stays the ORIGINAL doc_id.
    dense_sql = bm25_sql.replace(
        "ranked AS (SELECT query_id, doc_id, row_number() OVER "
        "(PARTITION BY query_id ORDER BY score DESC, doc_id ASC) - 1 AS rank FROM scored) ",
        "dense AS (SELECT doc_id, (row_number() OVER (PARTITION BY doc_id % 8 "
        "ORDER BY source || '/' || CAST(doc_id AS VARCHAR) ASC) - 1) * 8 + doc_id % 8 AS did "
        "FROM documents), "
        "ranked AS (SELECT s.query_id, s.doc_id, row_number() OVER "
        "(PARTITION BY s.query_id ORDER BY s.score DESC, d.did ASC) - 1 AS rank "
        "FROM scored s JOIN dense d ON d.doc_id = s.doc_id) ",
    )
    assert dense_sql != bm25_sql
    # tombstone deletes: docs with doc_id % 7 == 3 deleted after the build —
    # scoring stats (tf/dl/n/avgdl/df) come from the LIVE corpus only, while
    # the query set still derives from FULL-corpus df (the engine derives its
    # queries from the undeleted base index, like bm25_topk_incremental).
    deleted_sql = (
        bm25_sql.replace(
            f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) "
            "GROUP BY doc_id, term), ",
            f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) "
            "WHERE doc_id % 7 <> 3 GROUP BY doc_id, term), ",
        )
        .replace(
            f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents), ",
            f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents "
            "WHERE doc_id % 7 <> 3), ",
        )
        .replace(
            "(SELECT count(*) FROM documents) AS n",
            "(SELECT count(*) FROM documents WHERE doc_id % 7 <> 3) AS n",
        )
        .replace(
            f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) "
            "GROUP BY term), ",
            f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) "
            "WHERE doc_id % 7 <> 3 GROUP BY term), "
            f"fdf AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) "
            "GROUP BY term), ",
        )
        .replace(
            "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df)",
            "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM fdf)",
        )
    )
    assert deleted_sql != bm25_sql and "fdf" in deleted_sql
    assert deleted_sql.count("doc_id % 7 <> 3") == 4
    # pagination (page 2): same scoring, ranks 10..19 with GLOBAL rank
    # numbers — the engine fetches top-(offset+k) partials and slices.
    page2_sql = bm25_sql.replace(
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ",
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank >= 10 AND rank < 20 ",
    )
    assert page2_sql != bm25_sql
    # cursor pagination (search_after): cursor = page-1 rank 9, so the page
    # is exactly ranks 10..19 RENUMBERED 0..9 (page-relative ranks)
    after_sql = bm25_sql.replace(
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ",
        "SELECT query_id, rank - 10 AS rank, doc_id FROM ranked "
        "WHERE rank >= 10 AND rank < 20 ",
    )
    assert after_sql != bm25_sql
    # multi-term queries: query i pairs top-df term rank i with rank i+10
    # (pipelines/documents.py bm25_topk_multi); the per-doc score is the sum
    # of the two single-term score streams — query_id % 10 folds them. A sum
    # of two doubles is order-exact, so the hash compare holds bit-for-bit.
    multi_sql = bm25_sql.replace(
        "scored AS (SELECT qt.query_id, tf.doc_id, ",
        "scored1 AS (SELECT qt.query_id, tf.doc_id, ",
    ).replace(
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), ",
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "scored AS (SELECT query_id % 10 AS query_id, doc_id, sum(score) AS score "
        "FROM scored1 GROUP BY 1, 2), ",
    )
    assert multi_sql != bm25_sql
    # highlighting: the multi-term top-10 set, each result annotated with
    # the earliest query-term occurrence (strpos — char-based, = python
    # str.find + 1) and a 60-char snippet starting 20 chars before the hit;
    # ties (pos asc, term asc)
    highlight_sql = multi_sql.replace(
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank",
        ", gm AS (SELECT DISTINCT query_id % 10 AS query_id, term FROM qt), "
        "hl AS (SELECT r.query_id, r.doc_id, g.term, strpos(d.text, g.term) AS pos "
        "FROM ranked r JOIN gm g ON g.query_id = r.query_id "
        "JOIN documents d ON d.doc_id = r.doc_id "
        "WHERE r.rank < 10 AND strpos(d.text, g.term) > 0), "
        "fh AS (SELECT query_id, doc_id, term AS first_term, pos AS first_pos, "
        "row_number() OVER (PARTITION BY query_id, doc_id ORDER BY pos, term) AS rn FROM hl) "
        "SELECT f.query_id, f.doc_id, f.first_term, CAST(f.first_pos AS BIGINT) AS first_pos, "
        "substr(d.text, greatest(1, f.first_pos - 20), 60) AS snippet "
        "FROM fh f JOIN documents d ON d.doc_id = f.doc_id WHERE f.rn = 1 "
        "ORDER BY f.query_id, f.doc_id",
    )
    assert highlight_sql != multi_sql
    # synonym groups (Lucene SynonymQuery): same i/(i+10) term pairs as
    # multi, but the pair scores as ONE pseudo-term — tf POOLED per doc
    # (sum before the saturation formula), df = max of the two dfs. One
    # group per query means a single accumulation: order-exactness is
    # trivial, and the hash check proves the pooled-tf semantics differ
    # from multi's per-term disjunction.
    syn_sql = bm25_sql.replace(
        "scored AS (SELECT qt.query_id, tf.doc_id, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM qt JOIN tf ON tf.term = qt.term JOIN df ON df.term = qt.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), ",
        "gm AS (SELECT query_id % 10 AS query_id, term FROM qt), "
        "gtf AS (SELECT gm.query_id, tf.doc_id, sum(tf.tf) AS tf "
        "FROM gm JOIN tf ON tf.term = gm.term GROUP BY 1, 2), "
        "gdf AS (SELECT gm.query_id, max(df.df) AS df "
        "FROM gm JOIN df ON df.term = gm.term GROUP BY 1), "
        "scored AS (SELECT g.query_id, g.doc_id, "
        "ln(1 + (s.n - gd.df + 0.5) / (gd.df + 0.5)) * (g.tf * 2.2) / "
        "(g.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM gtf g JOIN gdf gd ON gd.query_id = g.query_id "
        "JOIN dl ON dl.doc_id = g.doc_id CROSS JOIN stats s), ",
    )
    assert syn_sql != bm25_sql and "gtf" in syn_sql
    # per-term boosts (Lucene term^boost): the multi 2-term queries with the
    # second term's stream scaled 3.0x AFTER tf saturation — one float
    # multiply on one stream, then the commutative-exact 2-double sum.
    boost_sql = multi_sql.replace(
        "scored AS (SELECT query_id % 10 AS query_id, doc_id, sum(score) AS score "
        "FROM scored1 GROUP BY 1, 2), ",
        "scored AS (SELECT query_id % 10 AS query_id, doc_id, "
        "sum(CASE WHEN query_id >= 10 THEN score * 3.0 ELSE score END) AS score "
        "FROM scored1 GROUP BY 1, 2), ",
    )
    assert boost_sql != multi_sql
    # Lucene explain: per (query, top-k doc, term) contribution rows — the
    # per-term score streams (each engine addend) joined onto the summed
    # top-10 ranking of the same 2-term queries.
    _prefix = bm25_sql.split("scored AS (")[0]
    explain_sql = _prefix + (
        "scored1 AS (SELECT qt.query_id, qt.term, tf.doc_id, df.df AS dfv, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM qt JOIN tf ON tf.term = qt.term JOIN df ON df.term = qt.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "scored AS (SELECT query_id % 10 AS query_id, doc_id, sum(score) AS score "
        "FROM scored1 GROUP BY 1, 2), "
        "ranked AS (SELECT query_id, doc_id, row_number() OVER "
        "(PARTITION BY query_id ORDER BY score DESC, doc_id ASC) - 1 AS rank FROM scored) "
        "SELECT s1.query_id % 10 AS query_id, s1.doc_id AS doc_id, s1.term AS term, "
        "s1.dfv AS df, CAST(round(s1.score * 1000000) AS BIGINT) AS contribution_e6 "
        "FROM scored1 s1 JOIN ranked r ON r.query_id = s1.query_id % 10 "
        "AND r.doc_id = s1.doc_id WHERE r.rank < 10 "
        "ORDER BY query_id, s1.doc_id, s1.term"
    )
    assert "tf AS (" in _prefix and "qt AS (" in _prefix
    # conjunctive AND: same 2-term matrix, but a doc must match BOTH terms —
    # the per-(query, doc) fold sees exactly one row per matched term, so
    # HAVING count(*) = 2 is the intersection predicate.
    and_sql = multi_sql.replace(
        "FROM scored1 GROUP BY 1, 2), ",
        "FROM scored1 GROUP BY 1, 2 HAVING count(*) = 2), ",
    )
    assert and_sql != multi_sql
    # minimum_should_match: 3-term queries (df ranks i, i+10, i+20), doc
    # qualifies with >= 2 matched terms. A 3-double sum is order-SENSITIVE,
    # so the fold is the ordered aggregate sum(score ORDER BY term) — DuckDB
    # folds sequentially in that order, bit-identical to the engine's pinned
    # lexicographic accumulation.
    msm_sql = bm25_sql.replace(
        "WHERE query_id < 20), ",
        "WHERE query_id < 30), ",
    ).replace(
        "scored AS (SELECT qt.query_id, tf.doc_id, ",
        "scored1 AS (SELECT qt.query_id, tf.doc_id, qt.term, ",
    ).replace(
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), ",
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "scored AS (SELECT query_id % 10 AS query_id, doc_id, "
        "sum(score ORDER BY term) AS score "
        "FROM scored1 GROUP BY 1, 2 HAVING count(*) >= 2), ",
    )
    assert msm_sql != bm25_sql
    # negation (NOT / -term): query i (i < 10) scores term rank i, excluding
    # every doc that contains term rank i+10 — survivor scores are unchanged,
    # so this is the bm25 SQL with an anti-join on the negated term's
    # postings (pipelines/documents.py bm25_topk_not derives the same pairs).
    neg_sql = bm25_sql.replace(
        "scored AS (SELECT qt.query_id, tf.doc_id, ",
        "neg AS (SELECT query_id - 10 AS query_id, term FROM qt WHERE query_id >= 10), "
        "negdoc AS (SELECT DISTINCT n.query_id, t2.doc_id FROM neg n "
        "JOIN tf t2 ON t2.term = n.term), "
        "scored AS (SELECT qt.query_id, tf.doc_id, ",
    ).replace(
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), ",
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s "
        "WHERE qt.query_id < 10 AND NOT EXISTS (SELECT 1 FROM negdoc nd "
        "WHERE nd.query_id = qt.query_id AND nd.doc_id = tf.doc_id)), ",
    )
    assert neg_sql != bm25_sql
    # boolean MUST + SHOULD: query i REQUIRES terms rank i and i+10 and
    # optionally scores rank i+20 — the 3-stream ordered fold restricted to
    # docs that match BOTH must terms (HAVING count(*) = 2 over must joins);
    # must terms score too, exactly like the engine's folded counts.
    must_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents), "
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, (SELECT avg(dl) FROM dl) AS avgdl), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 30), "
        "must AS (SELECT query_id % 10 AS query_id, term FROM qt WHERE query_id < 20), "
        "allq AS (SELECT query_id % 10 AS query_id, term FROM qt), "
        "elig AS (SELECT m.query_id, tf.doc_id FROM must m JOIN tf ON tf.term = m.term "
        "GROUP BY 1, 2 HAVING count(*) = 2), "
        "scored1 AS (SELECT a.query_id, tf.doc_id, a.term, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM allq a JOIN tf ON tf.term = a.term JOIN df ON df.term = a.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "scored AS (SELECT s1.query_id, s1.doc_id, sum(score ORDER BY term) AS score "
        "FROM scored1 s1 JOIN elig e ON e.query_id = s1.query_id AND e.doc_id = s1.doc_id "
        "GROUP BY 1, 2), "
        "ranked AS (SELECT query_id, doc_id, row_number() OVER "
        "(PARTITION BY query_id ORDER BY score DESC, doc_id ASC) - 1 AS rank FROM scored) "
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank"
    )
    # full BooleanQuery mix: must = rank i (gates + scores), should =
    # rank i+20 (scores), must_not = rank i+10 (anti-join); ordered 2-stream
    # fold over {must, should} restricted to eligible docs
    bool_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents), "
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, (SELECT avg(dl) FROM dl) AS avgdl), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 30), "
        "must AS (SELECT query_id, term FROM qt WHERE query_id < 10), "
        "ng AS (SELECT query_id - 10 AS query_id, term FROM qt "
        "WHERE query_id >= 10 AND query_id < 20), "
        "should AS (SELECT query_id - 20 AS query_id, term FROM qt WHERE query_id >= 20), "
        "allq AS (SELECT * FROM must UNION ALL SELECT * FROM should), "
        "elig AS (SELECT m.query_id, tf.doc_id FROM must m JOIN tf ON tf.term = m.term "
        "WHERE NOT EXISTS (SELECT 1 FROM ng JOIN tf t2 ON t2.term = ng.term "
        "WHERE ng.query_id = m.query_id AND t2.doc_id = tf.doc_id)), "
        "scored1 AS (SELECT a.query_id, tf.doc_id, a.term, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM allq a JOIN tf ON tf.term = a.term JOIN df ON df.term = a.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "scored AS (SELECT s1.query_id, s1.doc_id, sum(score ORDER BY term) AS score "
        "FROM scored1 s1 JOIN elig e ON e.query_id = s1.query_id AND e.doc_id = s1.doc_id "
        "GROUP BY 1, 2), "
        "ranked AS (SELECT query_id, doc_id, row_number() OVER "
        "(PARTITION BY query_id ORDER BY score DESC, doc_id ASC) - 1 AS rank FROM scored) "
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank"
    )
    # fuzzy term~1: the top-10 df-ranked single-term queries, each expanded
    # to ALL dictionary terms within levenshtein distance 1; a doc's score is
    # the ORDERED sum over its matched expansions (the engine accumulates in
    # pinned lexicographic term order — sum(score ORDER BY term) matches it
    # bit-for-bit, as in the msm oracle).
    fuzzy_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents), "
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, (SELECT avg(dl) FROM dl) AS avgdl), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 10), "
        "exp AS (SELECT qt.query_id, d2.term FROM qt JOIN df d2 "
        "ON levenshtein(qt.term, d2.term) <= 1), "
        "scored1 AS (SELECT e.query_id, tf.doc_id, e.term, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM exp e JOIN tf ON tf.term = e.term JOIN df ON df.term = e.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "scored AS (SELECT query_id, doc_id, sum(score ORDER BY term) AS score "
        "FROM scored1 GROUP BY 1, 2), "
        "ranked AS (SELECT query_id, doc_id, row_number() OVER "
        "(PARTITION BY query_id ORDER BY score DESC, doc_id ASC) - 1 AS rank FROM scored) "
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank"
    )
    # more-like-this: sources = the 5 smallest doc_ids; per source, the top-3
    # within-doc tf x idf terms (idf = the same ln-form; exact ties term-asc)
    # become a disjunctive query; rank over the ordered per-doc fold AFTER
    # excluding the source doc itself (pipelines/query.py more_like_this).
    mlt_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents), "
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, (SELECT avg(dl) FROM dl) AS avgdl), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "src AS (SELECT doc_id, row_number() OVER (ORDER BY doc_id) - 1 AS query_id "
        "FROM documents ORDER BY doc_id LIMIT 5), "
        "qterms AS (SELECT query_id, term FROM ("
        "SELECT s.query_id, t.term, row_number() OVER (PARTITION BY s.query_id "
        "ORDER BY t.tf * ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5)) DESC, t.term ASC) AS rn "
        "FROM src s JOIN tf t ON t.doc_id = s.doc_id JOIN df ON df.term = t.term "
        "CROSS JOIN stats st) WHERE rn <= 3), "
        "scored1 AS (SELECT q.query_id, tf.doc_id, q.term, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM qterms q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "scored AS (SELECT query_id, doc_id, sum(score ORDER BY term) AS score "
        "FROM scored1 GROUP BY 1, 2), "
        "ranked AS (SELECT sc.query_id, sc.doc_id, row_number() OVER "
        "(PARTITION BY sc.query_id ORDER BY sc.score DESC, sc.doc_id ASC) - 1 AS rank "
        "FROM scored sc JOIN src ON src.query_id = sc.query_id "
        "WHERE sc.doc_id <> src.doc_id) "
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank"
    )
    # exact phrase: queries = first-two-token phrases of the 10 smallest-
    # doc_id docs (>= 2 tokens, distinct first two); a doc qualifies iff the
    # phrase occurs as ADJACENT tokens — checked via substring containment on
    # the space-joined token sequence (exactly the engine's positional
    # adjacency: both observe the post-filter token sequence). Scores: the
    # 2-term ordered BM25 fold, as multi/msm.
    phrase_sql = (
        f"WITH tok AS (SELECT doc_id, {toks} AS toks FROM documents), "
        "pq AS (SELECT row_number() OVER (ORDER BY doc_id) - 1 AS query_id, "
        "toks[1] AS t1, toks[2] AS t2 FROM tok "
        "WHERE len(toks) >= 2 AND toks[1] <> toks[2] ORDER BY doc_id LIMIT 10), "
        f"tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents), "
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, (SELECT avg(dl) FROM dl) AS avgdl), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT query_id, t1 AS term FROM pq UNION ALL SELECT query_id, t2 FROM pq), "
        "hits AS (SELECT p.query_id, t.doc_id FROM pq p JOIN tok t ON "
        "contains(' ' || array_to_string(t.toks, ' ') || ' ', "
        "' ' || p.t1 || ' ' || p.t2 || ' ')), "
        "scored1 AS (SELECT qt.query_id, tf.doc_id, qt.term, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM qt JOIN tf ON tf.term = qt.term JOIN df ON df.term = qt.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "scored AS (SELECT s1.query_id, s1.doc_id, sum(score ORDER BY term) AS score "
        "FROM scored1 s1 JOIN hits h ON h.query_id = s1.query_id AND h.doc_id = s1.doc_id "
        "GROUP BY 1, 2), "
        "ranked AS (SELECT query_id, doc_id, row_number() OVER "
        "(PARTITION BY query_id ORDER BY score DESC, doc_id ASC) - 1 AS rank FROM scored) "
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank"
    )
    # faceted search / total hits: per 2-term query, the FULL match set
    # (union of the two terms' postings — DISTINCT (query, doc)), counted by
    # documents.lang / in total. Exact integers: no float fragility.
    facets_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 20), "
        "matches AS (SELECT DISTINCT qt.query_id % 10 AS query_id, tf.doc_id "
        "FROM qt JOIN tf ON tf.term = qt.term) "
        "SELECT m.query_id, d.lang, count(*) AS n_docs FROM matches m "
        "JOIN documents d ON d.doc_id = m.doc_id GROUP BY 1, 2 ORDER BY 1, 2"
    )
    # significant terms: same match set; per (query, term) foreground df,
    # background lift = (match_df::DOUBLE * N) / (match_n::DOUBLE * df) —
    # two float64 products + ONE division, same association as the engine.
    # top 5 per query by (lift desc, term asc).
    sig_terms_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 20), "
        "matches AS (SELECT DISTINCT qt.query_id % 10 AS query_id, tf.doc_id "
        "FROM qt JOIN tf ON tf.term = qt.term), "
        "mn AS (SELECT query_id, count(*) AS match_n FROM matches GROUP BY 1), "
        "mt AS (SELECT m.query_id, t.term, count(DISTINCT t.doc_id) AS match_df "
        "FROM matches m JOIN tf t ON t.doc_id = m.doc_id GROUP BY 1, 2), "
        "nn AS (SELECT count(*) AS n FROM documents), "
        "sc AS (SELECT mt.query_id, mt.term, mt.match_df, mn.match_n, df.df, "
        "(CAST(mt.match_df AS DOUBLE) * nn.n) / (CAST(mn.match_n AS DOUBLE) * df.df) AS lift "
        "FROM mt JOIN mn USING (query_id) JOIN df ON df.term = mt.term CROSS JOIN nn) "
        "SELECT query_id, term, match_df, match_n, df, "
        "CAST(round(lift * 1000000) AS BIGINT) AS lift_e6 FROM "
        "(SELECT *, row_number() OVER (PARTITION BY query_id "
        "ORDER BY lift DESC, term ASC) AS rn FROM sc) "
        "WHERE rn <= 5 ORDER BY query_id, lift DESC, term"
    )
    # numeric range facet: same match set, bucketed by doc_len // 20
    # (integer division — DuckDB // == numpy int64 //, exact)
    lenhist_sql = facets_sql.replace(
        "SELECT m.query_id, d.lang, count(*) AS n_docs FROM matches m "
        "JOIN documents d ON d.doc_id = m.doc_id GROUP BY 1, 2 ORDER BY 1, 2",
        f"SELECT m.query_id, len({toks}) // 20 AS bucket, count(*) AS n_docs "
        "FROM matches m JOIN documents d ON d.doc_id = m.doc_id "
        "GROUP BY 1, 2 ORDER BY 1, 2",
    )
    assert lenhist_sql != facets_sql and "bucket" in lenhist_sql
    # percolator: doc matches stored 2-term query iff it contains BOTH
    # distinct terms (conjunctive MUST) — count(DISTINCT term) == per-query
    # required count handles a query whose two df-ranks share one term
    percolate_sql = (
        f"WITH df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id % 10 AS query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 20), "
        "need AS (SELECT query_id, count(DISTINCT term) AS n FROM qt GROUP BY 1), "
        f"dt AS (SELECT DISTINCT doc_id, term FROM ({terms})), "
        "hit AS (SELECT qt.query_id, dt.doc_id, count(DISTINCT dt.term) AS c "
        "FROM qt JOIN dt ON dt.term = qt.term GROUP BY 1, 2) "
        "SELECT h.doc_id, h.query_id FROM hit h JOIN need n ON n.query_id = h.query_id "
        "WHERE h.c = n.n ORDER BY h.doc_id, h.query_id"
    )
    hits_sql = facets_sql.replace(
        "SELECT m.query_id, d.lang, count(*) AS n_docs FROM matches m "
        "JOIN documents d ON d.doc_id = m.doc_id GROUP BY 1, 2 ORDER BY 1, 2",
        "SELECT m.query_id, count(*) AS n_docs FROM matches m GROUP BY 1 ORDER BY 1",
    )
    assert hits_sql != facets_sql
    # field collapsing: the 2-term queries' best doc per lang (ordered-sum
    # fold; score desc, doc_id asc) then a per-query rank over the collapsed
    # rows — mirrors pipelines/query.py search_collapsed
    collapse_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents), "
        "stats AS (SELECT (SELECT count(*) FROM documents) AS n, (SELECT avg(dl) FROM dl) AS avgdl), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 20), "
        "scored1 AS (SELECT qt.query_id % 10 AS query_id, tf.doc_id, qt.term, "
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * (tf.tf * 2.2) / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score "
        "FROM qt JOIN tf ON tf.term = qt.term JOIN df ON df.term = qt.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "scored AS (SELECT query_id, doc_id, sum(score ORDER BY term) AS score "
        "FROM scored1 GROUP BY 1, 2), "
        "best AS (SELECT sc.query_id, d.lang, sc.doc_id, sc.score, "
        "row_number() OVER (PARTITION BY sc.query_id, d.lang "
        "ORDER BY sc.score DESC, sc.doc_id ASC) AS rn "
        "FROM scored sc JOIN documents d ON d.doc_id = sc.doc_id), "
        "ranked AS (SELECT query_id, lang, doc_id, row_number() OVER "
        "(PARTITION BY query_id ORDER BY score DESC, doc_id ASC) - 1 AS rank "
        "FROM best WHERE rn = 1) "
        "SELECT query_id, rank, lang, doc_id FROM ranked WHERE rank < 10 "
        "ORDER BY query_id, rank"
    )
    # stopword analyzer: every token list filtered by the stop set — replaces
    # _TOKS everywhere it appears (incl. inside the exploded-terms subquery),
    # which IS the stop-filtered pipeline: tf, df, doc_len, query derivation
    # and scores all recompute over the filtered token streams.
    stop_sql = bm25_sql.replace(
        toks, f"list_filter({toks}, x -> NOT list_contains({_STOP_SQL}, x))"
    )
    assert stop_sql != bm25_sql
    # filtered search: candidates restricted to the modal lang (count desc,
    # lang asc tie); idf / avgdl / query derivation stay corpus-wide.
    filtered_sql = bm25_sql.replace(
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), ",
        "JOIN dl ON dl.doc_id = tf.doc_id "
        "JOIN documents doc ON doc.doc_id = tf.doc_id CROSS JOIN stats s "
        "WHERE doc.lang = (SELECT lang FROM documents GROUP BY 1 "
        "ORDER BY count(*) DESC, lang ASC LIMIT 1)), ",
    )
    assert filtered_sql != bm25_sql
    # numeric range filter: candidates with dl in [min, (min+max)//2]; the
    # bounds derive from the corpus identically on both engines
    lenfilter_sql = bm25_sql.replace(
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), ",
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s "
        "WHERE dl.dl BETWEEN (SELECT min(dl) FROM dl) "
        "AND (SELECT (min(dl) + max(dl)) // 2 FROM dl)), ",
    )
    assert lenfilter_sql != bm25_sql
    # wildcard term*: prefixes = first 3 chars of the top-10 df-ranked terms;
    # n_docs = count of docs containing ANY term with that prefix
    prefix_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT substr(term, 1, 3) AS prefix, query_id FROM "
        "(SELECT term, row_number() OVER (ORDER BY df DESC, term ASC) - 1 AS query_id "
        "FROM df) WHERE query_id < 10), "
        "matches AS (SELECT DISTINCT qt.query_id, tf.doc_id "
        "FROM qt JOIN tf ON starts_with(tf.term, qt.prefix)) "
        "SELECT query_id, count(*) AS n_docs FROM matches GROUP BY 1 ORDER BY 1"
    )
    # wildcard *term*: infixes = chars 2..4 of the top-10 df-ranked terms;
    # a doc counts if ANY of its terms CONTAINS the infix
    infix_sql = prefix_sql.replace(
        "substr(term, 1, 3) AS prefix", "substr(term, 2, 3) AS prefix"
    ).replace(
        "ON starts_with(tf.term, qt.prefix)", "ON contains(tf.term, qt.prefix)"
    )
    assert infix_sql != prefix_sql
    # regex terms: patterns = '^' + first-2-chars + '.*' + last-char + '$'
    # of the top-10 df-ranked terms (the analyzer alphabet [a-z0-9] has no
    # regex metacharacters); unanchored RE2 on both engines
    regex_sql = prefix_sql.replace(
        "substr(term, 1, 3) AS prefix",
        "'^' || substr(term, 1, 2) || '.*' || substr(term, -1) || '$' AS prefix",
    ).replace(
        "ON starts_with(tf.term, qt.prefix)",
        "ON regexp_matches(tf.term, qt.prefix)",
    )
    assert regex_sql != prefix_sql
    # autocomplete suggester: per prefix (same derivation as prefix_sql),
    # the top-10 dictionary terms by global df, ties term-asc
    suggest_sql = (
        f"WITH df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT substr(term, 1, 1) AS prefix, query_id FROM "
        "(SELECT term, row_number() OVER (ORDER BY df DESC, term ASC) - 1 AS query_id "
        "FROM df) WHERE query_id < 10), "
        "cand AS (SELECT qt.query_id, d2.term, d2.df FROM qt JOIN df d2 "
        "ON starts_with(d2.term, qt.prefix)), "
        "ranked AS (SELECT query_id, term, df, row_number() OVER "
        "(PARTITION BY query_id ORDER BY df DESC, term ASC) - 1 AS rank FROM cand) "
        "SELECT query_id, rank, term, df FROM ranked WHERE rank < 10 "
        "ORDER BY query_id, rank"
    )
    # sort-by-field: the 2-term queries' DISTINCT match set ranked by
    # doc_len desc (doc_id asc ties) — integer keys, no float fragility
    sortby_sql = (
        f"WITH tf AS (SELECT doc_id, term, count(*) AS tf FROM ({terms}) GROUP BY doc_id, term), "
        f"dl AS (SELECT doc_id, len({toks}) AS dl FROM documents), "
        f"df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
        "qt AS (SELECT term, query_id FROM (SELECT term, row_number() OVER "
        "(ORDER BY df DESC, term ASC) - 1 AS query_id FROM df) WHERE query_id < 20), "
        "matches AS (SELECT DISTINCT qt.query_id % 10 AS query_id, tf.doc_id "
        "FROM qt JOIN tf ON tf.term = qt.term), "
        "ranked AS (SELECT m.query_id, m.doc_id, row_number() OVER "
        "(PARTITION BY m.query_id ORDER BY dl.dl DESC, m.doc_id ASC) - 1 AS rank "
        "FROM matches m JOIN dl ON dl.doc_id = m.doc_id) "
        "SELECT query_id, rank, doc_id FROM ranked WHERE rank < 10 ORDER BY query_id, rank"
    )
    return {
        # star-schema join: lineitem x orders x customer x nation. Revenue
        # in exact scaled integers: round() recovers each 2-decimal column
        # alone (never near .5 — half-even vs half-away cannot disagree),
        # then the product cents*(100-disc_bp) is pure int64 (1e-4 units)
        "revenue_by_nation": (
            "WITH l AS (SELECT l_orderkey, "
            "CAST(round(l_extendedprice * 100) AS BIGINT) AS pc, "
            "CAST(round(l_discount * 100) AS BIGINT) AS db FROM lineitem) "
            "SELECT n.n_name, CAST(sum(l.pc * (100 - l.db)) AS BIGINT) AS revenue_e4 "
            "FROM l JOIN orders o ON o.o_orderkey = l.l_orderkey "
            "JOIN customer c ON c.c_custkey = o.o_custkey "
            "JOIN nation n ON n.n_nationkey = c.c_nationkey "
            "GROUP BY n.n_name ORDER BY n.n_name"
        ),
        # TPC-H Q1 shape: per-column decimal->integer recovery only, then
        # pure int64 products (disc term 1e-4 units, charge term 1e-6)
        "pricing_summary": (
            "WITH l AS (SELECT l_returnflag, l_linestatus, "
            "CAST(round(l_quantity) AS BIGINT) AS qi, "
            "CAST(round(l_extendedprice * 100) AS BIGINT) AS pc, "
            "CAST(round(l_discount * 100) AS BIGINT) AS db, "
            "CAST(round(l_tax * 100) AS BIGINT) AS tb FROM lineitem) "
            "SELECT l_returnflag, l_linestatus, count(*) AS n_rows, "
            "CAST(sum(qi) AS BIGINT) AS sum_qty, "
            "CAST(sum(pc) AS BIGINT) AS sum_base_cents, "
            "CAST(sum(pc * (100 - db)) AS BIGINT) AS sum_disc_e4, "
            "CAST(sum(pc * (100 - db) * (100 + tb)) AS BIGINT) AS sum_charge_e6 "
            "FROM l GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "suppliers_by_region": (
            "SELECT r.r_name, count(*) AS n_suppliers, "
            "CAST(sum(CAST(round(s.s_acctbal * 100) AS BIGINT)) AS BIGINT) AS sum_acctbal_cents "
            "FROM supplier s JOIN nation n ON n.n_nationkey = s.s_nationkey "
            "JOIN region r ON r.r_regionkey = n.n_regionkey "
            "GROUP BY 1 ORDER BY 1"
        ),
        "parts_brand_stats": (
            "SELECT p_brand, p_type, count(*) AS n_parts, "
            "CAST(min(p_size) AS BIGINT) AS size_min, "
            "CAST(max(p_size) AS BIGINT) AS size_max "
            "FROM part GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "events_windowed": (
            # integer-cents sum: distributed partial-sum order cannot perturb
            # float low bits, so the hash compare is exact (stages/events.py)
            "SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS window_start, "
            "event_type, count(*) AS n_events, "
            "CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents "
            "FROM events GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "events_hopping": (
            # hopping 1h window / 30min hop: each event belongs to the 2
            # hop-aligned windows covering it — unnest the 2 starts
            "WITH e AS (SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cents, "
            "(epoch_us(ts) // 1800000000) * 1800000000 AS last_start FROM events), "
            "x AS (SELECT event_type, cents, last_start - j * 1800000000 AS window_start "
            "FROM e, unnest([0, 1]) AS u(j)) "
            "SELECT window_start, event_type, count(*) AS n_events, "
            "CAST(sum(cents) AS BIGINT) AS sum_value_cents FROM x "
            "GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "events_sessions": (
            "WITH o AS (SELECT event_id, user_id, ts, "
            "CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) > 1800000000 "
            "THEN 1 ELSE 0 END AS brk FROM events) "
            "SELECT event_id, user_id, CAST(sum(brk) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_seq "
            "FROM o ORDER BY event_id"
        ),
        "events_asof": (
            # as-of join: strict (ts, event_id) priority — the 1-PRECEDING
            # frame excludes the row itself, matching stages/relational.py
            "WITH e AS (SELECT event_id, user_id, ts, event_type FROM events "
            "WHERE event_type IN ('purchase', 'click')), "
            "o AS (SELECT event_id, user_id, event_type, "
            "last_value(CASE WHEN event_type = 'click' THEN event_id END IGNORE NULLS) "
            "OVER (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS m FROM e) "
            "SELECT event_id, user_id, COALESCE(m, -1) AS matched_event_id "
            "FROM o WHERE event_type = 'purchase' ORDER BY event_id"
        ),
        "events_range_join": (
            # band join, left-inclusive right-exclusive 30-min window
            "SELECT c.event_id AS left_event_id, p.event_id AS right_event_id, "
            "c.user_id, CAST(epoch_us(p.ts) - epoch_us(c.ts) AS BIGINT) AS gap_us "
            "FROM events c JOIN events p ON c.user_id = p.user_id "
            "AND c.event_type = 'click' AND p.event_type = 'purchase' "
            "AND p.ts >= c.ts AND p.ts < c.ts + INTERVAL 30 MINUTE "
            "ORDER BY left_event_id, right_event_id"
        ),
        # semi-structured extraction: integer field k from the props JSON
        # string (RE2 on the Ray side, same regex here; NULLIF guards the
        # no-match empty string), exact integer rollups per event_type
        "events_json_rollup": (
            "WITH x AS (SELECT event_type, "
            "CAST(NULLIF(regexp_extract(props, '\"k\"\\s*:\\s*(-?\\d+)', 1), '') AS BIGINT) AS k "
            "FROM events) "
            "SELECT event_type, count(*) AS n_events, "
            "count(*) - count(k) AS n_missing, "
            # CAST: sum(BIGINT) is HUGEINT, which pandas renders float64 —
            # the driver's exact value-hash then sees 123.0 vs the engine's
            # 123 (the r4 driver-env hash-fail class)
            "CAST(coalesce(sum(k), 0) AS BIGINT) AS k_sum, "
            "min(k) AS k_min, max(k) AS k_max "
            "FROM x GROUP BY event_type ORDER BY event_type"
        ),
        "docs_sample": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE doc_id % 20 = 3 ORDER BY doc_id"
        ),
        # hash split: bucket = splitmix64(doc_id) % 100 (bit-exact splitmix
        # replica, same as the MinHash oracle), split = test iff bucket < 10
        "docs_split": (
            "WITH h AS (SELECT doc_id, "
            + _sm_cols_sql("doc_id::UBIGINT", "h64", "sp")
            + " FROM documents) "
            "SELECT doc_id, (h64 % 100)::BIGINT AS bucket, "
            "CASE WHEN h64 % 100 < 10 THEN 'test' ELSE 'train' END AS split "
            "FROM h ORDER BY doc_id"
        ),
        # DSIR: per-doc target/background unigram log likelihood ratio,
        # add-1 smoothed; per-doc fold ORDER BY term == the engine's pinned
        # accumulation; V = global distinct-term count
        "dsir_logratio": (
            f"WITH tok AS (SELECT d.doc_id, d.lang, u.t AS term FROM "
            f"(SELECT doc_id, lang, {toks} AS tk FROM documents) d, unnest(d.tk) AS u(t)), "
            "cf AS (SELECT term, sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS cft, "
            "count(*) AS cfb FROM tok GROUP BY term), "
            "tot AS (SELECT sum(cft) AS nt, sum(cfb) AS nb, count(*) AS v FROM cf), "
            "w AS (SELECT term, ln((cft + 1.0) / (nt + v)) - ln((cfb + 1.0) / (nb + v)) AS w "
            "FROM cf CROSS JOIN tot), "
            "tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2), "
            "per AS (SELECT tf.doc_id, sum(tf.tf * w.w ORDER BY tf.term) AS logratio, "
            "sum(tf.tf) AS n_tokens FROM tf JOIN w ON w.term = tf.term GROUP BY 1) "
            # n_tokens: sum(BIGINT) is HUGEINT -> pandas float64 (hash
            # class); logratio: quantized to 1e-6 BIGINT, the float fold
            # differs sub-ULP between engines
            "SELECT d.doc_id, CAST(coalesce(p.n_tokens, 0) AS BIGINT) AS n_tokens, "
            "CAST(round(coalesce(p.logratio, 0.0) * 1000000) AS BIGINT) AS logratio_e6 "
            "FROM documents d "
            "LEFT JOIN per p ON p.doc_id = d.doc_id ORDER BY d.doc_id"
        ),
        # unigram LM perplexity: ppl = exp(-(sum tf ln p ORDER BY term)/n)
        # under the add-1 corpus model; libm ln/exp both engines
        "unigram_ppl": (
            f"WITH tok AS (SELECT d.doc_id, u.t AS term FROM "
            f"(SELECT doc_id, {toks} AS tk FROM documents) d, unnest(d.tk) AS u(t)), "
            "cf AS (SELECT term, count(*) AS cf FROM tok GROUP BY term), "
            "tot AS (SELECT sum(cf) AS nb, count(*) AS v FROM cf), "
            "lp AS (SELECT term, ln((cf + 1.0) / (nb + v)) AS lp FROM cf CROSS JOIN tot), "
            "tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2), "
            "per AS (SELECT tf.doc_id, sum(tf.tf * lp.lp ORDER BY tf.term) AS ll, "
            "sum(tf.tf) AS n_tokens FROM tf JOIN lp ON lp.term = tf.term GROUP BY 1) "
            # n_tokens CAST (HUGEINT->float64 hash class); ppl quantized to
            # 1e-6 BIGINT (raw float drifted ~1e-14 between engines)
            "SELECT d.doc_id, CAST(coalesce(p.n_tokens, 0) AS BIGINT) AS n_tokens, "
            "CAST(round((CASE WHEN p.n_tokens > 0 THEN exp(-(p.ll / p.n_tokens)) "
            "ELSE 0.0 END) * 1000000) AS BIGINT) AS ppl_e6 "
            "FROM documents d LEFT JOIN per p ON p.doc_id = d.doc_id ORDER BY d.doc_id"
        ),
        # first BPE iteration: occurrence-weighted adjacent char pairs
        # within analyzer tokens; top 20 by (cnt desc, pair asc)
        "bpe_top_merges": (
            f"WITH w AS (SELECT u.t AS w FROM (SELECT {toks} AS tk FROM documents) d, "
            "unnest(d.tk) AS u(t)), "
            "pr AS (SELECT substr(w, i, 2) AS pair FROM "
            "(SELECT w, unnest(range(1, len(w))) AS i FROM w WHERE len(w) >= 2)), "
            "c AS (SELECT pair, count(*) AS cnt FROM pr GROUP BY pair), "
            "r AS (SELECT pair, cnt, row_number() OVER "
            "(ORDER BY cnt DESC, pair ASC) - 1 AS rank FROM c) "
            "SELECT rank, pair, cnt FROM r WHERE rank < 20 ORDER BY rank"
        ),
        # THE composed curation pipeline: gopher gate -> exact text dedup
        # (min doc_id per text) -> decontamination (drop the %31 benchmark
        # slice AND docs sharing a 4-gram with it) -> 400-token per-source
        # mixture cut. Each clause is the already-hash-green oracle of its
        # stage, chained.
        "curate_pipeline": (
            f"WITH t AS (SELECT doc_id, source, text, {toks} AS tk FROM documents), "
            "base AS (SELECT doc_id, len(tk) AS n_tokens, "
            "len(list_distinct(tk)) AS n_distinct, "
            "coalesce(list_sum(list_transform(tk, x -> len(x))), 0) AS sum_tok_len, "
            f"len(list_filter(tk, x -> list_contains({_STOP_SQL}, x))) AS n_stop "
            "FROM t), "
            "bg AS (SELECT doc_id, unnest(list_transform(range(1, len(tk)), "
            "i -> tk[i] || ' ' || tk[i + 1])) AS b FROM t WHERE len(tk) >= 2), "
            "bm AS (SELECT doc_id, max(c) AS maxc FROM "
            "(SELECT doc_id, b, count(*) AS c FROM bg GROUP BY 1, 2) GROUP BY 1), "
            "keep1 AS (SELECT t.doc_id, t.source, t.text FROM base "
            "JOIN t ON t.doc_id = base.doc_id "
            "LEFT JOIN bm ON bm.doc_id = base.doc_id "
            "WHERE n_tokens >= 20 AND n_tokens <= 90 "
            "AND 3 * n_tokens <= sum_tok_len AND sum_tok_len <= 5 * n_tokens "
            "AND 5 * (n_tokens - n_distinct) <= 3 * n_tokens "
            "AND 50 * coalesce(bm.maxc, 0) <= 3 * n_tokens AND n_stop >= 1), "
            "ded AS (SELECT min(doc_id) AS doc_id FROM keep1 GROUP BY text), "
            "keep2 AS (SELECT k.* FROM keep1 k JOIN ded ON ded.doc_id = k.doc_id), "
            "sh AS (SELECT DISTINCT doc_id, unnest([tk[i] || ' ' || tk[i+1] || ' ' "
            "|| tk[i+2] || ' ' || tk[i+3] FOR i IN generate_series(1, len(tk)-3)]) AS s "
            "FROM t WHERE len(tk) >= 4), "
            "bench AS (SELECT DISTINCT s FROM sh WHERE doc_id % 31 = 0), "
            "flagged AS (SELECT DISTINCT c.doc_id FROM sh c JOIN bench USING (s) "
            "WHERE c.doc_id % 31 <> 0), "
            "keep3 AS (SELECT * FROM keep2 WHERE doc_id % 31 <> 0 "
            "AND doc_id NOT IN (SELECT doc_id FROM flagged)), "
            "tc AS (SELECT doc_id, source, "
            "len(regexp_extract_all(text, '\\S+')) AS n_tokens FROM keep3), "
            "hh AS (SELECT doc_id, source, n_tokens, "
            + _sm_cols_sql("doc_id::UBIGINT", "h64", "cu")
            + " FROM tc), "
            "c AS (SELECT doc_id, source, n_tokens, sum(n_tokens) OVER "
            "(PARTITION BY source ORDER BY h64, doc_id "
            "ROWS UNBOUNDED PRECEDING) AS cum FROM hh) "
            "SELECT doc_id, source, n_tokens FROM c WHERE cum <= 400 "
            "ORDER BY doc_id"
        ),
        # sharded-shuffle export plan: shard = splitmix64(doc_id) % 8,
        # pos = within-shard rank under (h64, doc_id) — bit-exact splitmix
        # replica + one window row_number
        "export_shuffle_plan": (
            "WITH hh AS (SELECT doc_id, "
            + _sm_cols_sql("doc_id::UBIGINT", "h64", "xp")
            + " FROM documents) "
            "SELECT doc_id, (h64 % 8)::BIGINT AS shard, "
            "row_number() OVER (PARTITION BY h64 % 8 ORDER BY h64, doc_id) - 1 AS pos "
            "FROM hh ORDER BY doc_id"
        ),
        # PII detection: same RE2 patterns as functions/textstats.py
        # PII_{EMAIL,PHONE,IPV4}_RE; the corpus is PII-free so counts are 0
        # — the entry proves cross-engine regex parity, planted-text
        # behavior is pytest-covered
        "pii_counts": (
            "SELECT doc_id, "
            "len(regexp_extract_all(text, "
            "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS n_emails, "
            "len(regexp_extract_all(text, "
            "'\\+?[0-9]{1,3}[-. ]?\\(?[0-9]{3}\\)?[-. ][0-9]{3}[-. ][0-9]{4}')) AS n_phones, "
            "len(regexp_extract_all(text, "
            "'\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b')) AS n_ipv4 "
            "FROM documents ORDER BY doc_id"
        ),
        # composite Gopher-style quality gate: integer signals + keep
        # decision via cross-multiplied ratio thresholds (no floats
        # anywhere — bit-exact by construction). Rules mirror
        # functions/textstats.gopher_keep R1..R5.
        "gopher_filter": (
            f"WITH t AS (SELECT doc_id, {toks} AS tk FROM documents), "
            "base AS (SELECT doc_id, len(tk) AS n_tokens, "
            "len(list_distinct(tk)) AS n_distinct, "
            # CAST: list_sum yields HUGEINT -> pandas float64 -> driver
            # hash divergence vs the engine's int64 (r4 hash-fail class)
            "CAST(coalesce(list_sum(list_transform(tk, x -> len(x))), 0) AS BIGINT) AS sum_tok_len, "
            f"len(list_filter(tk, x -> list_contains({_STOP_SQL}, x))) AS n_stop "
            "FROM t), "
            "bg AS (SELECT doc_id, unnest(list_transform(range(1, len(tk)), "
            "i -> tk[i] || ' ' || tk[i + 1])) AS b FROM t WHERE len(tk) >= 2), "
            "bm AS (SELECT doc_id, max(c) AS maxc FROM "
            "(SELECT doc_id, b, count(*) AS c FROM bg GROUP BY 1, 2) GROUP BY 1) "
            "SELECT base.doc_id, n_tokens, n_distinct, sum_tok_len, "
            "coalesce(bm.maxc, 0) AS max_bigram_c, n_stop, "
            "(n_tokens >= 20 AND n_tokens <= 90 "
            "AND 3 * n_tokens <= sum_tok_len AND sum_tok_len <= 5 * n_tokens "
            "AND 5 * (n_tokens - n_distinct) <= 3 * n_tokens "
            "AND 50 * coalesce(bm.maxc, 0) <= 3 * n_tokens "
            "AND n_stop >= 1) AS keep "
            "FROM base LEFT JOIN bm ON bm.doc_id = base.doc_id "
            "ORDER BY base.doc_id"
        ),
        # stratified split: per lang, test = first ceil(10% * n_lang) in
        # (splitmix64(doc_id), doc_id) order — exact per-stratum quota
        "docs_split_stratified": (
            "WITH hh AS (SELECT doc_id, lang, "
            + _sm_cols_sql("doc_id::UBIGINT", "h64", "st")
            + " FROM documents), "
            "r AS (SELECT doc_id, lang, "
            "row_number() OVER (PARTITION BY lang ORDER BY h64, doc_id) AS rn, "
            "count(*) OVER (PARTITION BY lang) AS cnt FROM hh) "
            "SELECT doc_id, lang, CASE WHEN rn <= ceil(0.1 * cnt) "
            "THEN 'test' ELSE 'train' END AS split FROM r ORDER BY doc_id"
        ),
        # token-budget mixture sampling: per source, keep the
        # (splitmix64(doc_id), doc_id)-ordered prefix whose inclusive
        # whitespace-token cumsum fits the 400-token budget — bit-exact
        # splitmix replica + window cumsum
        "mixture_sample": (
            "WITH tc AS (SELECT doc_id, source, "
            "len(regexp_extract_all(text, '\\S+')) AS n_tokens FROM documents), "
            "hh AS (SELECT doc_id, source, n_tokens, "
            + _sm_cols_sql("doc_id::UBIGINT", "h64", "mx")
            + " FROM tc), "
            "c AS (SELECT doc_id, source, n_tokens, sum(n_tokens) OVER "
            "(PARTITION BY source ORDER BY h64, doc_id "
            "ROWS UNBOUNDED PRECEDING) AS cum FROM hh) "
            "SELECT doc_id, source, n_tokens FROM c WHERE cum <= 400 "
            "ORDER BY doc_id"
        ),
        # Gopher repetition signals (token-level): dup_token_frac =
        # (n_tokens - n_distinct)/n_tokens; top_bigram_frac = 2.0*maxc/n —
        # identical float-op association as repetition_stats
        "doc_repetition": (
            f"WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents), "
            "dl AS (SELECT doc_id, len(toks) AS n_tokens FROM t), "
            "dist AS (SELECT doc_id, count(DISTINCT term) AS nd FROM "
            f"({_TERMS}) GROUP BY doc_id), "
            "bg AS (SELECT doc_id, unnest(list_transform(range(1, len(toks)), "
            "i -> toks[i] || ' ' || toks[i + 1])) AS bgram FROM t WHERE len(toks) >= 2), "
            "bgc AS (SELECT doc_id, bgram, count(*) AS c FROM bg GROUP BY 1, 2), "
            "bmax AS (SELECT doc_id, max(c) AS maxc FROM bgc GROUP BY 1) "
            # 1e-6-quantized BIGINT fracs: the driver's exact value-hash
            # must not see raw float columns (dtype/ULP robustness)
            "SELECT dl.doc_id, dl.n_tokens, "
            "CAST(round((CASE WHEN dl.n_tokens > 0 THEN (dl.n_tokens - coalesce(dist.nd, 0)) "
            "/ dl.n_tokens ELSE 0.0 END) * 1000000) AS BIGINT) AS dup_token_frac_e6, "
            "CAST(round((CASE WHEN dl.n_tokens >= 2 THEN 2.0 * coalesce(bmax.maxc, 0) / dl.n_tokens "
            "ELSE 0.0 END) * 1000000) AS BIGINT) AS top_bigram_frac_e6 "
            "FROM dl LEFT JOIN dist ON dist.doc_id = dl.doc_id "
            "LEFT JOIN bmax ON bmax.doc_id = dl.doc_id ORDER BY dl.doc_id"
        ),
        "top_docs_per_lang": (
            "WITH r AS (SELECT lang, doc_id, n_chars, row_number() OVER "
            "(PARTITION BY lang ORDER BY n_chars DESC, doc_id ASC) - 1 AS rank "
            "FROM documents) "
            "SELECT lang, rank, doc_id, n_chars FROM r WHERE rank < 3 ORDER BY lang, rank"
        ),
        "doc_token_stats": (
            f"SELECT doc_id, len({toks}) AS n_tokens FROM documents ORDER BY doc_id"
        ),
        "term_df": (
            f"SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term ORDER BY term"
        ),
        "term_cf": (
            f"SELECT term, count(*) AS cf FROM ({terms}) GROUP BY term ORDER BY term"
        ),
        "top_terms": (
            f"SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term "
            "ORDER BY df DESC, term ASC LIMIT 50"
        ),
        "lang_counts": (
            "SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang ORDER BY lang"
        ),
        "doc_quality": (
            f"SELECT doc_id, len({toks}) AS n_tokens, "
            f"len(list_filter({toks}, x -> list_contains({_STOP_SQL}, x))) AS n_stopwords "
            "FROM documents ORDER BY doc_id"
        ),
        "token_counts": (
            # same RE2 patterns as functions/textstats.py WS_TOKEN_RE /
            # BPE_TOKEN_RE; both engines count non-overlapping leftmost matches
            "SELECT doc_id, len(regexp_extract_all(text, '\\S+')) AS n_ws_tokens, "
            "len(regexp_extract_all(text, "
            "'(?:''s|''t|''re|''ve|''m|''ll|''d)|[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\\s]+'"
            ")) AS n_bpe_tokens FROM documents ORDER BY doc_id"
        ),
        "langid_pred": (
            f"WITH scores AS (SELECT doc_id, {lang_scores} FROM documents) "
            "SELECT doc_id, CASE "
            "WHEN greatest(s_de, s_en, s_es, s_fr, s_zh) = 0 THEN 'und' "
            "WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr AND s_de >= s_zh THEN 'de' "
            "WHEN s_en >= s_es AND s_en >= s_fr AND s_en >= s_zh THEN 'en' "
            "WHEN s_es >= s_fr AND s_es >= s_zh THEN 'es' "
            "WHEN s_fr >= s_zh THEN 'fr' ELSE 'zh' END AS lang_pred "
            "FROM scores ORDER BY doc_id"
        ),
        "fingerprints": _fingerprint_sql(),
        "minhash_clusters": _minhash_sql(),
        "simhash_dups": _simhash_sql(),
        # streamed (Dataset-returning) label assembly — identical values, so
        # the same oracles gate the 100-TB return path end-to-end
        "minhash_clusters_stream": _minhash_sql(),
        "simhash_dups_stream": _simhash_sql(),
        "dedup_exact": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text ORDER BY doc_id"
        ),
        "jaccard_pairs": (
            # hot-shingle cap mirrored from stages/dedup.py ngram_jaccard_pairs
            # (max_shingle_df=128): capped shingles are excluded from pair
            # generation AND intersection counts; doc sizes stay exact.
            f"WITH toksl AS (SELECT doc_id, {toks} AS t FROM documents), "
            "sh AS (SELECT DISTINCT doc_id, unnest([t[i] || ' ' || t[i+1] || ' ' || t[i+2] "
            "FOR i IN generate_series(1, len(t)-2)]) AS s FROM toksl WHERE len(t) >= 3), "
            "sizes AS (SELECT doc_id, count(*) AS sz FROM sh GROUP BY doc_id), "
            "shok AS (SELECT s FROM sh GROUP BY s HAVING count(*) <= 128), "
            "pairs AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter "
            "FROM sh a JOIN shok ON shok.s = a.s JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id "
            "GROUP BY 1, 2) "
            "SELECT doc_a, doc_b, CAST(round(CAST(inter AS DOUBLE) / "
            "(sa.sz + sb.sz - inter) * 1000000) AS BIGINT) AS jaccard_e6 "
            "FROM pairs JOIN sizes sa ON sa.doc_id = doc_a JOIN sizes sb ON sb.doc_id = doc_b "
            "WHERE CAST(inter AS DOUBLE) / (sa.sz + sb.sz - inter) >= 0.2 ORDER BY doc_a, doc_b"
        ),
        "decontam_overlap": (
            # same 4-gram construction as the engine's token_shingles
            # (distinct per doc; hashed engine-side — 64-bit collisions are
            # negligible at this shingle count); benchmark slice is
            # doc_id % 31 == 0, pooled DISTINCT n-grams; flagged docs carry
            # their distinct-overlap count
            f"WITH toksl AS (SELECT doc_id, {toks} AS t FROM documents), "
            "sh AS (SELECT DISTINCT doc_id, unnest([t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' || t[i+3] "
            "FOR i IN generate_series(1, len(t)-3)]) AS s FROM toksl WHERE len(t) >= 4), "
            "bench AS (SELECT DISTINCT s FROM sh WHERE doc_id % 31 = 0) "
            "SELECT c.doc_id, count(*) AS n_overlap FROM sh c JOIN bench USING (s) "
            "WHERE c.doc_id % 31 <> 0 GROUP BY c.doc_id ORDER BY c.doc_id"
        ),
        "knn_cosine": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 10), "
            "s AS (SELECT q.query_id, e.vec_id, list_cosine_similarity(q.qe, e.embedding) AS cosine "
            "FROM q CROSS JOIN embeddings e), "
            "r AS (SELECT query_id, vec_id, "
            "row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id ASC) - 1 AS rank FROM s) "
            "SELECT query_id, rank, vec_id FROM r WHERE rank < 10 ORDER BY query_id, rank"
        ),
        # filtered vector search: same top-k, corpus restricted by the
        # label % 3 == 1 metadata predicate (pre-filter => exact recall)
        "knn_cosine_filtered": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 10), "
            "s AS (SELECT q.query_id, e.vec_id, list_cosine_similarity(q.qe, e.embedding) AS cosine "
            "FROM q CROSS JOIN embeddings e WHERE e.label % 3 = 1), "
            "r AS (SELECT query_id, vec_id, "
            "row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id ASC) - 1 AS rank FROM s) "
            "SELECT query_id, rank, vec_id FROM r WHERE rank < 10 ORDER BY query_id, rank"
        ),
        # radius query: every (query, vec) pair with cosine >= 0.25 —
        # unbounded result set, integer ids only
        "knn_range": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 10) "
            "SELECT q.query_id, e.vec_id FROM q CROSS JOIN embeddings e "
            "WHERE list_cosine_similarity(q.qe, e.embedding) >= 0.25 "
            "ORDER BY q.query_id, e.vec_id"
        ),
        "knn_l2": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 10), "
            "s AS (SELECT q.query_id, e.vec_id, list_distance(q.qe, e.embedding) AS l2 "
            "FROM q CROSS JOIN embeddings e), "
            "r AS (SELECT query_id, vec_id, "
            "row_number() OVER (PARTITION BY query_id ORDER BY l2 ASC, vec_id ASC) - 1 AS rank FROM s) "
            "SELECT query_id, rank, vec_id FROM r WHERE rank < 10 ORDER BY query_id, rank"
        ),
        "knn_ip": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 10), "
            "s AS (SELECT q.query_id, e.vec_id, list_inner_product(q.qe, e.embedding) AS ip "
            "FROM q CROSS JOIN embeddings e), "
            "r AS (SELECT query_id, vec_id, "
            "row_number() OVER (PARTITION BY query_id ORDER BY ip DESC, vec_id ASC) - 1 AS rank FROM s) "
            "SELECT query_id, rank, vec_id FROM r WHERE rank < 10 ORDER BY query_id, rank"
        ),
        # quantized-dtype exact kNN: same floor(clip(x,-1,1)*127+0.5) scalar
        # quantization as the Ray side (IEEE double ops, bit-identical), then
        # PURE INTEGER distances -> int64 scores hash-checked exactly.
        # list_inner_product sums are integers < 2^53, so its double
        # accumulation is exact regardless of order.
        "knn_l2_u8": (
            "WITH z AS (SELECT vec_id, list_transform(embedding, x -> "
            "CAST(floor(least(greatest(CAST(x AS DOUBLE), -1), 1) * 127 + 0.5) AS BIGINT) + 127) AS v "
            "FROM embeddings), "
            "q AS (SELECT vec_id AS query_id, v AS qv FROM z WHERE vec_id < 10), "
            "s AS (SELECT q.query_id, z.vec_id, CAST(list_inner_product(q.qv, q.qv) "
            "- 2 * list_inner_product(q.qv, z.v) + list_inner_product(z.v, z.v) AS BIGINT) AS l2sq "
            "FROM q CROSS JOIN z), "
            "r AS (SELECT query_id, vec_id, l2sq, "
            "row_number() OVER (PARTITION BY query_id ORDER BY l2sq ASC, vec_id ASC) - 1 AS rank FROM s) "
            "SELECT query_id, rank, vec_id, l2sq FROM r WHERE rank < 10 ORDER BY query_id, rank"
        ),
        "knn_ip_i8": (
            "WITH z AS (SELECT vec_id, list_transform(embedding, x -> "
            "CAST(floor(least(greatest(CAST(x AS DOUBLE), -1), 1) * 127 + 0.5) AS BIGINT)) AS v "
            "FROM embeddings), "
            "q AS (SELECT vec_id AS query_id, v AS qv FROM z WHERE vec_id < 10), "
            "s AS (SELECT q.query_id, z.vec_id, CAST(list_inner_product(q.qv, z.v) AS BIGINT) AS ip "
            "FROM q CROSS JOIN z), "
            "r AS (SELECT query_id, vec_id, ip, "
            "row_number() OVER (PARTITION BY query_id ORDER BY ip DESC, vec_id ASC) - 1 AS rank FROM s) "
            "SELECT query_id, rank, vec_id, ip FROM r WHERE rank < 10 ORDER BY query_id, rank"
        ),
        "embedding_dups": (
            "SELECT a.vec_id AS doc_a, b.vec_id AS doc_b FROM embeddings a JOIN embeddings b "
            "ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3 ORDER BY 1, 2"
        ),
        # approximate ANN entries (gate folded in): DuckDB recomputes the
        # exact cosine top-k (the reference set the Ray side used for its
        # overlap) and emits the floor constant; hash-green iff the Ray
        # exact set matches AND every query's approximate overlap clears
        # the floor (test_index.py:62's recall gate made driver-checkable).
        "knn_ivf": _recall_floor_sql(4),
        "knn_ivfpq": _recall_floor_sql(4),
        "knn_nsw": _recall_floor_sql(9),
        # quantized-NSW gate: the reference set is the INTEGER-exact uint8
        # L2 top-k (knn_l2_u8's oracle, incl. exact int64 l2sq values) +
        # the clamped-overlap floor for the quantized graph's result
        "knn_nsw_u8": (
            "WITH z AS (SELECT vec_id, list_transform(embedding, x -> "
            "CAST(floor(least(greatest(CAST(x AS DOUBLE), -1), 1) * 127 + 0.5) AS BIGINT) + 127) AS v "
            "FROM embeddings), "
            "q AS (SELECT vec_id AS query_id, v AS qv FROM z WHERE vec_id < 10), "
            "s AS (SELECT q.query_id, z.vec_id, CAST(list_inner_product(q.qv, q.qv) "
            "- 2 * list_inner_product(q.qv, z.v) + list_inner_product(z.v, z.v) AS BIGINT) AS l2sq "
            "FROM q CROSS JOIN z), "
            "r AS (SELECT query_id, vec_id, l2sq, "
            "row_number() OVER (PARTITION BY query_id ORDER BY l2sq ASC, vec_id ASC) - 1 AS rank FROM s) "
            "SELECT query_id, rank, vec_id, l2sq, CAST(9 AS BIGINT) AS overlap_at_least "
            "FROM r WHERE rank < 10 ORDER BY query_id, rank"
        ),
        "embedding_dups_lsh": (
            "SELECT count(*) AS n_exact_pairs, CAST(0 AS BIGINT) AS false_pairs, "
            "CAST(300 AS BIGINT) AS found_true_at_least "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3"
        ),
        # SemDeDup gate (folded into embedding_semdedup): exact near-dup
        # pair count + clamped recall floor (>=500 pairs must have a
        # flagged endpoint; deterministic engine measured 600@sf0.001 /
        # 639@sf0.01) + missed-above-cap must be 0
        "embedding_semdedup": (
            "SELECT count(*) AS n_exact_pairs, CAST(500 AS BIGINT) AS caught_at_least, "
            "CAST(0 AS BIGINT) AS missed_above_cap "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3"
        ),
        "bm25_topk": bm25_sql,
        "bm25_topk_gorder": reorder_gate_sql,
        "bm25_topk_rcm": reorder_gate_sql,
        "bm25_topk_page2": page2_sql,
        "bm25_topk_after": after_sql,
        "bm25_topk_federated": bm25_sql,
        "bm25_topk_wand": bm25_sql,
        "bm25_topk_termlayout": bm25_sql,
        "bm25_topk_multi": multi_sql,
        "bm25_topk_highlight": highlight_sql,
        "bm25_topk_synonyms": syn_sql,
        "bm25_topk_boost": boost_sql,
        "bm25_explain": explain_sql,
        "bm25_topk_and": and_sql,
        "bm25_topk_msm": msm_sql,
        "bm25_topk_not": neg_sql,
        "bm25_topk_must": must_sql,
        "bm25_topk_bool": bool_sql,
        "bm25_topk_fuzzy": fuzzy_sql,
        "more_like_this": mlt_sql,
        "bm25_topk_phrase": phrase_sql,
        "bm25_facets": facets_sql,
        "bm25_len_histogram": lenhist_sql,
        "percolate_matches": percolate_sql,
        # stored fields: docmap rows for the strided-sample ids; url is the
        # documents->pages adapter reconstruction, doc_len the analyzed count
        "fetch_stored_docs": (
            f"SELECT doc_id, source || '/' || CAST(doc_id AS VARCHAR) AS url, "
            f"len({_TOKS}) AS doc_len, lang FROM documents "
            "WHERE doc_id % 20 = 3 ORDER BY doc_id"
        ),
        "bm25_hit_counts": hits_sql,
        # stats aggregation over the match set: exact integer count/min/max/
        # sum of dl (same analyzer token count) + one final exact-int
        # division for the mean (IEEE-identical on both engines)
        # terms agg with size=2 + other bucket: top-2 langs per query by
        # (count desc, lang asc), remainder pooled under '__other__'
        "bm25_facets_top": facets_sql.replace(
            "SELECT m.query_id, d.lang, count(*) AS n_docs FROM matches m "
            "JOIN documents d ON d.doc_id = m.doc_id GROUP BY 1, 2 ORDER BY 1, 2",
            ", fc AS (SELECT m.query_id, d.lang, count(*) AS n_docs FROM matches m "
            "JOIN documents d ON d.doc_id = m.doc_id GROUP BY 1, 2), "
            "rk AS (SELECT *, row_number() OVER (PARTITION BY query_id "
            "ORDER BY n_docs DESC, lang ASC) AS rn FROM fc) "
            "SELECT query_id, lang, n_docs FROM rk WHERE rn <= 2 "
            "UNION ALL SELECT query_id, '__other__' AS lang, "
            "CAST(coalesce(sum(CASE WHEN rn > 2 THEN n_docs END), 0) AS BIGINT) AS n_docs "
            "FROM rk GROUP BY query_id ORDER BY query_id, lang",
        ),
        "bm25_significant_terms": sig_terms_sql,
        # exact cardinality agg: distinct langs + total hits per match set
        "bm25_cardinality": facets_sql.replace(
            "SELECT m.query_id, d.lang, count(*) AS n_docs FROM matches m "
            "JOIN documents d ON d.doc_id = m.doc_id GROUP BY 1, 2 ORDER BY 1, 2",
            "SELECT m.query_id, count(*) AS n_docs, "
            "count(DISTINCT d.lang) AS n_langs FROM matches m "
            "JOIN documents d ON d.doc_id = m.doc_id GROUP BY 1 ORDER BY 1",
        ),
        # exact percentiles (type-7 == quantile_cont) of match-set doc
        # lens; dl = the analyzer token count, same as bm25_match_stats
        "bm25_len_percentiles": facets_sql.replace(
            "SELECT m.query_id, d.lang, count(*) AS n_docs FROM matches m "
            "JOIN documents d ON d.doc_id = m.doc_id GROUP BY 1, 2 ORDER BY 1, 2",
            f", dl AS (SELECT doc_id, len({toks}) AS dl FROM documents) "
            "SELECT m.query_id, count(*) AS n_docs, "
            "CAST(round(quantile_cont(dl.dl, 0.25) * 1000000) AS BIGINT) AS p25_e6, "
            "CAST(round(quantile_cont(dl.dl, 0.5) * 1000000) AS BIGINT) AS p50_e6, "
            "CAST(round(quantile_cont(dl.dl, 0.75) * 1000000) AS BIGINT) AS p75_e6 "
            "FROM matches m JOIN dl ON dl.doc_id = m.doc_id "
            "GROUP BY 1 ORDER BY 1",
        ),
        # TermVectors: sampled docs' (term, tf) read from the index's own
        # postings; oracle recomputes from raw text (integrity check)
        "term_vectors_sample": (
            f"SELECT doc_id, term, count(*) AS tf FROM ({terms}) "
            "WHERE doc_id % 20 = 3 GROUP BY doc_id, term "
            "ORDER BY doc_id, term"
        ),
        "bm25_match_stats": facets_sql.replace(
            "SELECT m.query_id, d.lang, count(*) AS n_docs FROM matches m "
            "JOIN documents d ON d.doc_id = m.doc_id GROUP BY 1, 2 ORDER BY 1, 2",
            f", dl AS (SELECT doc_id, len({toks}) AS dl FROM documents) "
            "SELECT m.query_id, count(*) AS n_docs, min(dl.dl) AS dl_min, "
            "max(dl.dl) AS dl_max, CAST(sum(dl.dl) AS BIGINT) AS dl_sum, "
            "CAST(round(CAST(sum(dl.dl) AS DOUBLE) / count(*) * 1000000) AS BIGINT) AS dl_avg_e6 "
            "FROM matches m JOIN dl ON dl.doc_id = m.doc_id "
            "GROUP BY 1 ORDER BY 1",
        ),
        "bm25_collapse_lang": collapse_sql,
        "prefix_hit_counts": prefix_sql,
        "infix_hit_counts": infix_sql,
        "regex_hit_counts": regex_sql,
        # did-you-mean: inputs = top-df terms minus their last char;
        # suggestion = (levenshtein asc, df desc, term asc) among d<=1
        "suggest_spell": (
            f"WITH df AS (SELECT term, count(DISTINCT doc_id) AS df FROM ({terms}) GROUP BY term), "
            "qt AS (SELECT term, row_number() OVER (ORDER BY df DESC, term ASC) - 1 AS query_id "
            "FROM df QUALIFY query_id < 10), "
            "q AS (SELECT query_id, substr(term, 1, len(term) - 1) AS input FROM qt), "
            "cand AS (SELECT q.query_id, q.input, d.term AS suggestion, "
            "levenshtein(q.input, d.term) AS distance, d.df "
            "FROM q JOIN df d ON levenshtein(q.input, d.term) <= 1), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY query_id "
            "ORDER BY distance, df DESC, suggestion) AS rn FROM cand) "
            "SELECT query_id, input, suggestion, CAST(distance AS BIGINT) AS distance, df "
            "FROM r WHERE rn = 1 ORDER BY query_id"
        ),
        "suggest_prefix": suggest_sql,
        "bm25_sortby_len": sortby_sql,
        "bm25_topk_stopfilter": stop_sql,
        "bm25_topk_filtered": filtered_sql,
        "bm25_topk_lenfilter": lenfilter_sql,
        "bm25_topk_tfidf": tfidf_sql,
        "bm25_topk_lmd": lmd_sql,
        "bm25_topk_rescored": rescored_sql,
        "bm25_topk_fielded": fielded_sql,
        "bm25_topk_compacted": bm25_sql,
        "bm25_topk_incremental": bm25_sql,
        "bm25_topk_deleted": deleted_sql,
        "bm25_topk_dense": dense_sql,
    }
