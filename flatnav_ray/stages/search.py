"""Query serving — shard state, capability-checked planning, actor pool and
top-k merge.

Graft of the reference's search path
(/root/reference/python-bindings/src/flatnav/bindings.cpp:161-228 `searchImpl`,
/root/reference/include/flatnav/index/Index.h:387-409 `search`, 606-659
`beamSearch`): a loaded, read-mostly index served by a pool of workers.

Two serving modes share one front end and one scoring core (`_ShardState`):

* One-shot mode (pipelines/query.py): every op is a plain Ray task that
  loads its group of partitions once and runs a `_ShardState` method —
  `ShardSearcher` for search; nothing outlives the call.
* Server mode: `SearchSession` — persistent `@ray.remote` shard actors that
  load segments once and serve many query batches (the reference's
  load-once/serve-many lifecycle, Index.h:442-479 loadIndex; bench + any
  interactive use). A call is one `search_packed` per actor and one driver
  wait: the plan travels inside the call's one pickled request (by value,
  or via ray.put for large batches), the actors fill in the df of the
  terms the session has not cached, and each sends its partial back as one
  pickled reply of plain columns; partials merge driver-side when small,
  on Ray tasks by query range when not. The actors come from a warm pool
  that outlives sessions, so shutdown + reopen reuses the actor processes
  and every unchanged segment.

Both modes check the query against one capability table
(`QueryConfig.check`), plan it with one planner (`make_query_plan`, fed by
the caller's df / fuzzy / cf sources) and page it with one wrapper
(`paged`) — the reference's one checked, planned search entry
(bindings.cpp:161-228). Both score a worker's whole share of the index as
one shard: a one-shot task's partitions, or a session actor's partitions ×
generations, form one `_ShardGroup` (docmaps end to end, one dead mask, one
scratch set, one term-contribution cache), so taat/maxscore/wand cost one decode
pass, one score call and one top-k per query per worker — the reference's
one pass over one flat arena (Index.h:56,177-178). method="and" and
min_should_match run in that loop as a match-count floor. phrase reads
each segment's positional sidecar, so it runs per member `_ShardState`
(`_ShardGroup.partials`, the one search step of tasks and actors).

Scoring: per-term BM25 contributions are query-independent (idf, tf, doc_len
are all fixed at index time), so each decoded term is scored ONCE and cached;
a query batch then costs one fused multiply-add per (query, term) —
the vectorized-kernel analog of the reference's SIMD distance dispatch.
`method="taat"`, `"maxscore"` and `"wand"` name that one exact loop and
return identical results (tests assert it).

Per-query instrumentation (docs_scored, blocks_decoded) grafts the reference's
distance-computation counters (`Index.h:83-84,689-691`).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import QueryConfig
from ..functions.bm25 import SCORERS, idf as idf_fn, topk_select
from ..functions.codec import binary_views, decode_postings_rows
from ..functions.codec import decode_postings  # noqa: F401  perfbench/tracing.py traces it here
from ..functions.tokenize import tokenize_py
from .build import POSTING_COLUMNS, docmap_path, segment_path


@dataclass
class QueryPlan:
    """Tokenized queries + global stats, broadcast to every shard — the
    small side never reshuffles (SURVEY.md §2.4 J3 broadcast pattern). A
    session call pickles it once into its request bytes (by value, or one
    ray.put for a large batch); a one-shot op ray.puts it once."""

    query_ids: np.ndarray          # (Q,) int64
    query_terms: list[list[tuple[str, int]]]  # per query: [(term, qtf)] sorted
    term_idf: dict[str, float]     # global idf per distinct query term
    term_df: dict[str, int]
    n_docs: int
    avgdl: float
    k: int
    # ordered token sequence per query (duplicates kept) — what phrase
    # adjacency matches against (method="phrase"); None on old pickles
    query_seqs: list[list[str]] | None = None
    # negation (Lucene NOT / -term): per query, terms whose matching docs are
    # EXCLUDED from the candidate set (scores of survivors unchanged). Built
    # from an optional `neg_text` queries column; None = no negation.
    query_neg_terms: list[list[str]] | None = None
    # boolean MUST (Lucene +term): per query, terms a doc MUST contain to
    # qualify; must terms also score (they are folded into query_terms).
    # Built from an optional `must_text` queries column.
    query_must_terms: list[list[str]] | None = None
    # cursor pagination (search_after): per query, an optional
    # (after_score, after_doc) cursor — only results strictly AFTER it in
    # (score desc, doc_id asc) order qualify. Shards filter BEFORE their
    # top-k, so a deep page ships O(k) rows per shard (offset ships
    # O(offset+k) — the cursor is the 100-TB deep-paging path). Built from
    # optional `after_score`/`after_doc` queries columns.
    query_after: list[tuple[float, int] | None] | None = None
    # synonym groups (Lucene SynonymQuery semantics): per query, a sorted
    # list of (members, qtf) scoring UNITS. A group scores as ONE pseudo-term
    # over the UNION of its members' postings: per-doc tf = sum of member
    # tfs, df = max of member global dfs — BM25's tf saturation applies once
    # to the pooled tf, which is what distinguishes a synonym group from a
    # plain disjunction (bm25_topk_multi). None = no synonym mode.
    query_syn_groups: list[list[tuple[tuple[str, ...], int]]] | None = None
    # per-term boosts (Lucene term^boost): multiplies that term's score
    # contribution AFTER tf saturation, exactly Lucene's query-time boost.
    # Keyed on literal index terms (under fuzzy, on the EXPANDED term).
    # None/missing term = 1.0. Default scoring methods only.
    query_boosts: dict[str, float] | None = None
    # collection frequency per distinct query term + total corpus token count
    # — populated ONLY for scorers with needs_cf (LM Dirichlet): cf is loaded
    # lazily for the plan's terms via a pruned per-partition read
    # (load_term_cf), never by a full-vocabulary scan.
    term_cf: dict[str, int] | None = None
    total_len: int | None = None

    def set_df(self, dfs: dict[str, int]) -> None:
        """Set the df and idf of the terms in `dfs` (an absent term, df 0,
        scores nothing) — the planner's and the shard actor's one rule."""
        for t, df in dfs.items():
            self.term_df[t] = int(df)
            self.term_idf[t] = float(idf_fn(df, self.n_docs)) if df > 0 else 0.0


def load_term_cf(
    index_dir: str, partitions: list[int], terms: list[str], block_size: int
) -> dict[str, int]:
    """Global collection frequency for a SMALL term set (the query plan's
    distinct terms): one Ray task per partition reads only those terms'
    segment rows (parquet row filter), decodes their tf blobs, and returns
    per-term sums; the driver adds the dicts. O(|terms| × partitions), never
    O(vocabulary)."""
    import ray

    terms = sorted(set(terms))
    if not terms:
        return {}

    def _one(index_dir: str, p: int, block_size: int, terms: list[str]) -> dict:
        st = _ShardState(index_dir, p, block_size, terms)
        row_of, _, tfs = st._decode_rows(None)  # the state holds only `terms`
        # per-term tf sums are integers far below 2**53: exact in float64
        cf = np.bincount(row_of, weights=tfs, minlength=len(st._terms_list))
        return dict(zip(st._terms_list, cf.astype(np.int64).tolist()))

    task = ray.remote(num_cpus=1)(_one)
    parts = ray.get(
        [task.remote(index_dir, int(p), block_size, terms) for p in partitions]
    )
    cf: dict[str, int] = {t: 0 for t in terms}
    for d in parts:
        for t, v in d.items():
            cf[t] += v
    return cf


def make_query_plan(
    queries: pa.Table, term_df, n_docs: int, avgdl: float, k: int,
    cfg: QueryConfig | None = None, expand=None, term_cf=None, total_len: int | None = None,
    pre_tokens: list[list[str]] | None = None,
) -> QueryPlan:
    """The one query planner of both serving stacks: tokenize the query
    table once (same analyzer as build — SURVEY.md M5), look up the df of
    every term the plan scores, negates or requires, and pre-compute idf.
    Terms within a query are sorted lexicographically: the fixed
    accumulation order that pins float summation (§7 'hard parts' #1).

    The caller says where the corpus figures come from: `term_df(terms)`
    maps the sorted distinct terms to their df (a term left out plans as
    df 0); `expand(tokens, max_edits)` maps query tokens to the dictionary
    terms they fuzzy-match; `term_cf(terms)` and `total_len` give the
    collection frequencies and corpus token count a cf-based scorer needs.
    A one-shot op reads them from the index files; a session plans with the
    df it has cached and its shard actors fill in the rest
    (`QueryPlan.set_df`, in `ShardActor.search_packed`). `pre_tokens`: the
    query texts already tokenized by the caller (each text is tokenized
    once). `cfg` (checked by `QueryConfig.check`) supplies:

    `fuzzy_max_edits`: each query token expands to the dictionary terms it
    matches (functions/fuzzy.py); each match scores with its OWN df/idf and
    the doc's score is the ordered sum over matched terms — Lucene's
    fuzzy-as-disjunction rewrite. A token with no dictionary neighbour
    contributes nothing.

    `synonyms` (SynonymQuery): maps a query token to its synonym terms; the
    token and its synonyms form ONE scoring group (see QueryPlan
    .query_syn_groups). Each token's group is {token} | synonyms[token] —
    the analyzer's synonym-graph analog, applied query-side only (the index
    stays literal).

    `boosts` (term^boost) and the scorer (cf is loaded only for scorers with
    needs_cf)."""
    cfg = cfg or QueryConfig()
    synonyms = cfg.synonyms or None
    qids = queries.column("query_id").to_numpy(zero_copy_only=False).astype(np.int64)
    toks_all = pre_tokens if pre_tokens is not None else [
        tokenize_py(t) for t in queries.column("text").to_pylist()
    ]
    # fuzzy applies to POSITIVE tokens only (negation and must stay exact)
    expansions = (
        expand(sorted({t for toks in toks_all for t in toks}), cfg.fuzzy_max_edits)
        if cfg.fuzzy_max_edits else None
    )
    # boolean MUST: required terms score like should terms but also gate the
    # candidate set (Lucene BooleanQuery MUST + SHOULD)
    must_texts = (
        queries.column("must_text").to_pylist()
        if "must_text" in queries.column_names
        else None
    )
    qmusts: list[list[str]] | None = [] if must_texts is not None else None
    qterms: list[list[tuple[str, int]]] = []
    qgroups: list[list[tuple[tuple[str, ...], int]]] | None = (
        [] if synonyms is not None else None
    )
    qseqs: list[list[str]] = []
    distinct: set[str] = set()
    for i, toks in enumerate(toks_all):
        counts: dict[str, int] = {}
        if qgroups is not None:
            # each token expands to one GROUP {token} | synonyms[token];
            # duplicate tokens raise the group's qtf, not its tf pooling
            gcounts: dict[tuple[str, ...], int] = {}
            for tok in toks:
                grp = tuple(sorted({tok, *synonyms.get(tok, ())}))
                gcounts[grp] = gcounts.get(grp, 0) + 1
            qgroups.append(sorted(gcounts.items()))
            for grp, c in gcounts.items():
                for m in grp:  # flattened members: df loading + introspection
                    counts[m] = counts.get(m, 0) + c
        else:
            for tok in toks:
                if expansions is not None:
                    for e in expansions.get(tok, ()):
                        counts[e] = counts.get(e, 0) + 1
                else:
                    counts[tok] = counts.get(tok, 0) + 1
        if must_texts is not None:
            mtoks = tokenize_py(must_texts[i] or "")
            for tok in mtoks:  # must terms score too (no fuzzy on must)
                counts[tok] = counts.get(tok, 0) + 1
            qmusts.append(sorted(set(mtoks)))
        qterms.append(sorted(counts.items()))
        qseqs.append(toks)
        distinct.update(counts)
    # negation: tokenize the optional neg_text column with the SAME analyzer;
    # neg terms join the distinct set so shard states load their postings
    # (the exclusion needs positions, and a term that is positive in one
    # query and negative in another must score with its true df)
    qnegs: list[list[str]] | None = None
    if "neg_text" in queries.column_names:
        qnegs = []
        for t in queries.column("neg_text").to_pylist():
            toks = sorted(set(tokenize_py(t or "")))
            qnegs.append(toks)
            distinct.update(toks)
    # cursor pagination: optional per-query (after_score, after_doc) columns
    qafter: list[tuple[float, int] | None] | None = None
    if "after_score" in queries.column_names or "after_doc" in queries.column_names:
        if not (
            "after_score" in queries.column_names
            and "after_doc" in queries.column_names
        ):
            raise ValueError(
                "search_after needs BOTH after_score and after_doc columns"
            )
        sc = queries.column("after_score").to_pylist()
        dc = queries.column("after_doc").to_pylist()
        qafter = []
        for s, d in zip(sc, dc):
            if s is None and d is None:
                qafter.append(None)  # no cursor: page 1 for this query
            elif s is None or d is None:
                raise ValueError(
                    "search_after cursor needs BOTH after_score and "
                    "after_doc set (or both null)"
                )
            else:
                qafter.append((float(s), int(d)))
    found = term_df(sorted(distinct))
    plan = QueryPlan(
        query_ids=qids, query_terms=qterms, term_idf={}, term_df={},
        n_docs=n_docs, avgdl=avgdl, k=k, query_seqs=qseqs, query_neg_terms=qnegs,
        query_after=qafter, query_must_terms=qmusts, query_syn_groups=qgroups,
        query_boosts=(dict(cfg.boosts) if cfg.boosts else None),
    )
    plan.set_df({t: found.get(t, 0) for t in distinct})
    if getattr(SCORERS[cfg.scorer], "needs_cf", False):
        plan.term_cf = term_cf(sorted(distinct))
        plan.total_len = int(total_len)
    return plan


def _matching(pos_lists: list[np.ndarray], need: int) -> np.ndarray:
    """The ascending positions found in at least `need` of `pos_lists`
    (each sorted and duplicate-free) — the one posting-list match count
    behind method="and", min_should_match, MUST terms and phrase
    candidates. When every list is needed it is a smallest-first
    searchsorted sweep (the vectorized galloping merge: each probe of a
    larger list is a binary search); otherwise one count over the lists
    laid end to end (a doc occurs at most once per list, so its
    multiplicity is its matched-list count)."""
    if not pos_lists or need > len(pos_lists):
        return np.empty(0, dtype=np.int64)
    if need == len(pos_lists):
        lists = sorted(pos_lists, key=len)
        out = lists[0]
        for p in lists[1:]:
            if out.size == 0:
                break
            j = np.searchsorted(p, out)
            v = j < p.size
            v[v] = p[j[v]] == out[v]
            out = out[v]
        return out
    pos, counts = np.unique(np.concatenate(pos_lists), return_counts=True)
    return pos[counts >= need]


class _ShardState:
    """One partition's loaded segment + docmap + per-term score cache.

    A load reads the segment's `POSTING_COLUMNS` (the dictionary, df and
    the two posting blobs), only the `terms_filter` rows when one is given, and
    the whole docmap. A row's block count follows from its df (every block
    but a list's last holds `block_size` postings).

    `dead_ids` (sorted int64) marks documents shadowed by a NEWER generation
    in stacked serving (StackedSearchSession): their postings are dropped at
    decode time, so scores, candidate sets and live-df counts see only live
    documents — bit-identical to serving the fully compacted index."""

    def __init__(self, index_dir: str, partition: int, block_size: int,
                 terms_filter: list[str] | None = None,
                 dead_ids: np.ndarray | None = None):
        self.block_size = block_size
        self.index_dir = index_dir
        self.partition = partition
        self._terms_filter = terms_filter
        filters = [("term", "in", terms_filter)] if terms_filter is not None else None
        t = pq.read_table(segment_path(index_dir, partition), columns=POSTING_COLUMNS,
                          filters=filters).combine_chunks()
        # the dictionary: an Arrow column (the wildcard scans), its str list
        # (sorted: merge writes segment rows in global-vocab order, so
        # bisect range scans work) and term -> row. The list comes through
        # numpy: to_pylist builds one Arrow scalar per term, ~13x slower
        self._terms_arr = t.column("term")
        self._terms_list = self._terms_arr.to_numpy(zero_copy_only=False).tolist()
        self.term_row = dict(zip(self._terms_list, range(len(self._terms_list))))
        # decode the columnar layout into flat numpy views ONCE at load — the
        # per-term hot path then does O(1) slicing, no Arrow scalar conversion
        self._df = t.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        self._doc_offs, self._doc_vals = binary_views(t.column("doc_blob"))
        self._tf_offs, self._tf_vals = binary_views(t.column("tf_blob"))
        # per row, ceil(df / block_size): the blocks_decoded counter's unit.
        # _bl_off lays them out as offsets (perfbench's shard counter reads it)
        n_blocks = -(-self._df // block_size)
        self._n_blocks = n_blocks.tolist()
        self._bl_off = np.concatenate(([0], np.cumsum(n_blocks)))

        dm = pq.read_table(docmap_path(index_dir, partition))
        self.docmap_ids = dm.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        self.docmap_lens = dm.column("doc_len").to_numpy(zero_copy_only=False).astype(np.int64)
        self.docmap_urls = dm.column("url")
        self.docmap_langs = dm.column("lang")
        # everything above is read from the segment and docmap files only;
        # with_dead_ids shares it, the rest is per state
        self._file_attrs = dict(self.__dict__)
        self._init_serving(dead_ids)

    def with_dead_ids(self, dead_ids: np.ndarray | None) -> "_ShardState":
        """A fresh state over this state's already-loaded files: the
        file-derived arrays are shared, the dead mask, caches and scratch are
        new (ShardActor reuses unchanged segments across sessions this way)."""
        st = object.__new__(_ShardState)
        st.__dict__.update(self._file_attrs)
        st._file_attrs = self._file_attrs
        st._init_serving(dead_ids)
        return st

    def _init_serving(self, dead_ids: np.ndarray | None) -> None:
        # stacked-serving shadow mask over docmap positions (None = all live)
        self._dead_pos: np.ndarray | None = None
        if dead_ids is not None and dead_ids.size:
            pos = np.searchsorted(self.docmap_ids, dead_ids)
            valid = pos < self.docmap_ids.size
            valid[valid] = self.docmap_ids[pos[valid]] == dead_ids[valid]
            if valid.any():
                dead = np.zeros(self.docmap_ids.size, dtype=bool)
                dead[pos[valid]] = True
                self._dead_pos = dead
        self._init_caches()

    def _init_caches(self) -> None:
        # positional sidecar (phrase path) — loaded lazily on first phrase query
        self._pos_row: dict[str, int] | None = None
        self._facet_cache: dict[str, tuple[np.ndarray, list]] = {}
        # caches (query-independent once (scorer, stats) fixed)
        self._contrib: dict[str, tuple[np.ndarray, np.ndarray, int] | None] = {}
        # synonym-group cache: members tuple -> (positions, contrib, blocks)
        self._gcontrib: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray, int] | None] = {}
        self._live_df: dict[str, int] = {}
        self._stats_key: tuple | None = None
        # reusable scratch (the VisitedSetPool analog, SURVEY.md T3)
        self._scores = np.zeros(self.docmap_ids.size, dtype=np.float64)
        self._touched = np.zeros(self.docmap_ids.size, dtype=bool)
        # candidate-union scratch, SEPARATE from _touched (which marks
        # negation exclusions within the same query body)
        self._cand_mask = np.zeros(self.docmap_ids.size, dtype=bool)

    def _union_positions(self, pos_lists: list[np.ndarray]) -> np.ndarray:
        """Ascending union of docmap-position lists via the candidate
        scratch mask: O(total + n_docs) scatter+scan instead of
        np.unique's O(total log total) sort — the sort was 40%+ of batched
        shard scoring. Output values/order identical to
        np.unique(np.concatenate(pos_lists))."""
        if len(pos_lists) == 1:
            return pos_lists[0]
        total = sum(p.size for p in pos_lists)
        if total < (self.docmap_ids.size >> 6):
            # sparse regime: sorting a handful of positions beats paying the
            # O(n_docs) mask scan+reset per call (per-query loops on a large
            # shard would otherwise scan the whole docmap-sized mask for a
            # union of a few dozen rows)
            return np.unique(np.concatenate(pos_lists))
        mask = self._cand_mask
        for p in pos_lists:
            mask[p] = True
        cand = np.flatnonzero(mask)
        mask[cand] = False
        return cand

    def _row(self, term: str) -> int | None:
        """The term's segment row, None when this shard lacks it."""
        return self.term_row.get(term)

    def _id_index(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(sorted doc_ids, their docmap positions; None = the identity):
        the docmap itself is id-sorted."""
        return self.docmap_ids, None

    def _id_positions(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(found, docmap position) per doc_id of `ids`."""
        sid, order = self._id_index()
        if sid.size == 0:
            return np.zeros(ids.size, dtype=bool), np.zeros(ids.size, dtype=np.int64)
        j = np.minimum(np.searchsorted(sid, ids), sid.size - 1)
        return sid[j] == ids, (j if order is None else order[j])

    def _sync_stats(self, plan: QueryPlan, scorer) -> None:
        """Empty the score caches when the corpus stats or the scorer change."""
        key = (plan.n_docs, plan.avgdl, scorer.name)
        if key != self._stats_key:
            self._contrib.clear()
            self._gcontrib.clear()
            self._stats_key = key

    def _decode_rows(self, rows: np.ndarray | None):
        """(index into `rows`, docmap position, tf) per live posting of the
        segment rows `rows` (every row when None) — one bulk decode,
        shadowed docs dropped."""
        return self._drop_dead(*decode_postings_rows(
            self._df, self._doc_offs, self._doc_vals, self._tf_offs, self._tf_vals,
            rows, self.block_size,
        ))

    def _drop_dead(self, row_of, pos, tfs):
        if self._dead_pos is not None:
            keep = ~self._dead_pos[pos]
            row_of, pos, tfs = row_of[keep], pos[keep], tfs[keep]
        return row_of, pos, tfs

    def fill_contrib(self, terms, plan: QueryPlan, scorer) -> None:
        """Cache (local_positions, per-posting score contribution, n_blocks)
        for every uncached term of `terms` (None when absent from this
        shard): their posting lists decode in one pass and score in one
        scorer call, however many terms there are. Contributions are
        query-independent, so each term is decoded and scored once and reused
        by every query in every batch."""
        self._sync_stats(plan, scorer)
        if len(self._contrib) > 100_000:  # bounded actor memory
            self._contrib.clear()  # (arena-sizing analog)
        todo: dict[str, int] = {}
        for t in terms:
            if t in self._contrib or t in todo:
                continue
            i = self._row(t)
            if i is None:
                self._contrib[t] = None
            else:
                todo[t] = i
        if not todo:
            return
        names, row_list = list(todo), list(todo.values())
        rows = np.array(row_list, dtype=np.int64)
        row_of, pos, tfs = self._decode_rows(rows)
        contrib = scorer.many_term_scores(
            tfs, self.docmap_lens[pos], row_of, [plan.term_df[t] for t in names],
            plan.n_docs, plan.avgdl, terms=names, plan=plan,
        )
        ends = (
            np.searchsorted(row_of, np.arange(1, rows.size + 1)).tolist()
            if rows.size > 1 else [pos.size]
        )
        lo = 0
        for t, hi, r in zip(names, ends, row_list):
            self._contrib[t] = (pos[lo:hi], contrib[lo:hi], self._n_blocks[r])
            lo = hi

    def term_contrib(self, term: str, plan: QueryPlan, scorer):
        """(local_positions, per-posting score contribution, n_blocks) for one
        term, or None when this shard lacks it (see fill_contrib)."""
        if term not in self._contrib or self._stats_key != (
            plan.n_docs, plan.avgdl, scorer.name
        ):
            self.fill_contrib((term,), plan, scorer)
        return self._contrib[term]

    def group_contrib(self, members: tuple[str, ...], plan: QueryPlan, scorer):
        """(local_positions, contribution, n_blocks) for ONE synonym group
        (Lucene SynonymQuery): union of member postings, per-doc tf = sum of
        member tfs, df = max of member GLOBAL dfs — BM25 saturation applies
        once to the pooled tf. Decoded + scored once, cached per group."""
        self._sync_stats(plan, scorer)
        hit = self._gcontrib.get(members)
        if hit is not None or members in self._gcontrib:
            return hit
        df_g = max((plan.term_df.get(m, 0) for m in members), default=0)
        row_list = (
            [r for m in members if (r := self._row(m)) is not None] if df_g > 0 else []
        )
        rows = np.array(row_list, dtype=np.int64)
        _, allpos, alltf = self._decode_rows(rows)
        n_blocks = sum(self._n_blocks[r] for r in row_list)
        if allpos.size == 0:
            out = None
        else:
            if rows.size == 1:
                upos, utf = allpos, alltf
            else:
                upos, inv = np.unique(allpos, return_inverse=True)
                # tf sums are small ints: float64 bincount is exact
                utf = np.bincount(inv, weights=alltf).astype(np.int64)
            dls = self.docmap_lens[upos]
            contrib = scorer.term_scores(utf, dls, df_g, plan.n_docs, plan.avgdl)
            out = (upos, contrib, n_blocks)
        if len(self._gcontrib) > 100_000:
            self._gcontrib.clear()
        self._gcontrib[members] = out
        return out

    def live_counts(self) -> tuple[int, int]:
        """(n_live_docs, sum_live_doc_len) — the shard's contribution to the
        stacked session's global n_docs / avgdl."""
        if self._dead_pos is None:
            return int(self.docmap_ids.size), int(self.docmap_lens.sum())
        live = ~self._dead_pos
        return int(live.sum()), int(self.docmap_lens[live].sum())

    def live_term_dfs(self, terms: list[str]) -> list[int]:
        """Live-document df per term (postings minus shadowed docs) — exact
        global df across a generation stack sums these. The uncached terms
        decode in one pass and are cached; no mask -> the stored df, no
        decode."""
        if self._dead_pos is None:
            return [int(self._df[i]) if (i := self._row(t)) is not None else 0 for t in terms]
        todo = {
            t: i for t in terms
            if t not in self._live_df and (i := self._row(t)) is not None
        }
        if todo:
            row_of, _, _ = self._decode_rows(np.array(list(todo.values()), dtype=np.int64))
            self._live_df.update(zip(todo, np.bincount(row_of, minlength=len(todo)).tolist()))
        return [self._live_df.get(t, 0) for t in terms]

    def live_term_doc_ids(self, term: str) -> np.ndarray:
        """Sorted doc_ids of LIVE documents containing `term` — the match
        set primitive behind delete_by_query (pipelines/ingest.py): postings
        decoded once, shadow/tombstone mask applied, ids resolved through
        the docmap."""
        i = self.term_row.get(term)
        if i is None:
            return np.empty(0, dtype=np.int64)
        return self.docmap_ids[self._decode_rows(np.array([i]))[1]]

    def _lang_mask(self, lang: str) -> np.ndarray:
        """Boolean docmap-row mask for one lang (filtered search) — computed
        once per shard per lang, cached in the facet cache's sibling slot."""
        hit = self._facet_cache.get(f"__mask:{lang}")
        if hit is not None:
            return hit[0]
        import pyarrow.compute as pc

        col = self.docmap_langs
        mask = pc.equal(
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col, lang
        ).to_numpy(zero_copy_only=False)
        self._facet_cache[f"__mask:{lang}"] = (mask, [])
        return mask

    def _len_mask(self, lo: int | None, hi: int | None) -> np.ndarray:
        """Boolean docmap-row mask for a doc_len range (numeric filtered
        search) — computed once per shard per (lo, hi), cached."""
        key = f"__lenmask:{lo}:{hi}"
        hit = self._facet_cache.get(key)
        if hit is not None:
            return hit[0]
        mask = np.ones(self.docmap_lens.size, dtype=bool)
        if lo is not None:
            mask &= self.docmap_lens >= lo
        if hi is not None:
            mask &= self.docmap_lens <= hi
        # bound the cache: unlike lang masks (#langs keys) the (lo, hi)
        # key space is caller-controlled — evict oldest range masks so a
        # long-lived serving actor can't grow without limit
        lenkeys = [k for k in self._facet_cache if k.startswith("__lenmask:")]
        if len(lenkeys) >= 32:
            del self._facet_cache[lenkeys[0]]
        self._facet_cache[key] = (mask, [])
        return mask

    def search_batch(self, plan: QueryPlan, scorer, method: str = "maxscore", msm: int = 0,
                     slop: int = 0, flt: str | None = None,
                     sort_by: str | None = None,
                     flt_len: tuple[int | None, int | None] | None = None,
                     with_urls: bool = True) -> pa.Table:
        """Score every query in the plan against this shard; return partial
        top-k rows (the url column only `with_urls`). Accumulation order per
        query: lexicographic terms (pinned float order).

        method="taat"/"maxscore"/"wand": cached term-at-a-time (contributions
        decoded + scored once per term, reused across the whole batch) —
        three names for one exact loop. method="and" and `msm` > 0 run it with a
        match-count floor per query, `need`: a doc qualifies when it is in at
        least `need` of the query's posting lists — every query term for
        "and" (a corpus-absent term still counts, so nothing matches), `msm`
        otherwise (Lucene minimum_should_match; SURVEY.md §2.7, the grafted
        set-intersect). The floor only filters candidates, so a survivor's
        score is its disjunctive score bit for bit. method="phrase":
        positional verification (`search_one_phrase`). All exact. Which
        features combine with which method is decided before any shard runs
        (`QueryConfig.check`)."""
        q_out: list[np.ndarray] = []
        d_out: list[np.ndarray] = []
        s_out: list[np.ndarray] = []
        n_out: list[tuple[int, int, int]] = []  # (n_results, n_cand, n_blocks)
        scores = self._scores
        # self-heal shared scratch: if a previous query on this long-lived
        # actor raised mid-body (after neg-marking / score accumulation but
        # before its reset), restore the all-False / all-zeros invariant so
        # THIS query doesn't silently exclude or double-count docs
        dirty_neg = getattr(self, "_neg_dirty", None)
        if dirty_neg:
            for np_ in dirty_neg:
                self._touched[np_] = False
            self._neg_dirty = None
        dirty_sc = getattr(self, "_scores_dirty", None)
        if dirty_sc is not None:
            scores[dirty_sc] = 0.0
            self._scores_dirty = None
        neg_lists = plan.query_neg_terms
        after_list = plan.query_after
        must_lists = plan.query_must_terms
        syn_lists = plan.query_syn_groups
        boosts = plan.query_boosts
        sort_vals: np.ndarray | None = None
        if sort_by is not None:  # "doc_len", the one sortable attribute
            sort_vals = getattr(self, "_len_f", None)
            if sort_vals is None:  # ints <= 2^53: exact as doubles
                sort_vals = self._len_f = self.docmap_lens.astype(np.float64)
        if method != "phrase" and syn_lists is None:
            # every term the query loop can look up (scored, negated, must):
            # decoded and scored in one pass instead of one per term
            self.fill_contrib(plan.term_idf, plan, scorer)
        fmask = self._lang_mask(flt) if flt is not None else None
        if flt_len is not None:  # numeric range filter composes by AND
            lm = self._len_mask(flt_len[0], flt_len[1])
            fmask = lm if fmask is None else (fmask & lm)
        for qi in range(len(plan.query_ids)):
            qid = int(plan.query_ids[qi])
            if method == "phrase":
                docs, ssc, n_cand, n_blocks = self.search_one_phrase(plan, qi, scorer, slop)
            else:
                need = len(plan.query_terms[qi]) if method == "and" else msm
                entries = []
                n_blocks = 0
                if syn_lists is not None:
                    # synonym mode: one entry per GROUP (pooled tf, max df);
                    # group order is the sorted members tuple — the pinned
                    # accumulation order, same discipline as plain terms
                    for members, qtf in syn_lists[qi]:
                        hit = self.group_contrib(tuple(members), plan, scorer)
                        if hit is None:
                            continue
                        entries.append((qtf, hit[0], hit[1]))
                        n_blocks += hit[2]
                else:
                    for term, qtf in plan.query_terms[qi]:
                        if plan.term_idf.get(term, 0.0) <= 0.0:
                            continue
                        hit = self.term_contrib(term, plan, scorer)
                        if hit is None:
                            continue
                        # Lucene term^boost: scales the term's contribution
                        # after tf saturation (weight rides the existing
                        # qtf multiply — float-exact, one multiply per term)
                        w = qtf * boosts[term] if boosts and term in boosts else qtf
                        entries.append((w, hit[0], hit[1]))
                        n_blocks += hit[2]
                if not entries or len(entries) < need:
                    continue
                # negation: mark excluded docmap rows in the shared touched
                # scratch (O(df_neg) set + reset); survivors' scores are
                # untouched — the NOT operator filters candidates only
                nparts: list[np.ndarray] = []
                for nt in (neg_lists[qi] if neg_lists is not None else ()):
                    nhit = self.term_contrib(nt, plan, scorer)
                    if nhit is not None and nhit[0].size:
                        nparts.append(nhit[0])
                        self._touched[nhit[0]] = True
                if nparts:
                    self._neg_dirty = nparts
                excl = self._touched if nparts else None
                aft = after_list[qi] if after_list is not None else None
                musts = must_lists[qi] if must_lists is not None else ()
                if len(entries) == 1 and not musts:
                    qtf, pos, contrib = entries[0]
                    if fmask is not None:  # slices: the cached arrays stay intact
                        sel = fmask[pos]
                        pos, contrib = pos[sel], contrib[sel]
                    if excl is not None:
                        sel = ~excl[pos]
                        pos, contrib = pos[sel], contrib[sel]
                    sc = contrib if qtf == 1 else qtf * contrib
                    if sort_vals is not None:  # rank by attribute, not score
                        sc = sort_vals[pos]
                    ids = self.docmap_ids[pos]
                    if aft is not None:  # strictly after the cursor in
                        # (score desc, doc_id asc) — exact float compare is
                        # safe: scores are a pure function of (term, tf, dl)
                        av, ad = aft
                        m = (sc < av) | ((sc == av) & (ids > ad))
                        sc, ids = sc[m], ids[m]
                    docs, ssc = topk_select(sc, ids, plan.k)
                    n_cand = pos.size
                else:
                    cand = self._union_positions([e[1] for e in entries])
                    scores[cand] = 0.0
                    self._scores_dirty = cand
                    for qtf, pos, contrib in entries:
                        if qtf == 1:
                            scores[pos] += contrib
                        else:
                            scores[pos] += qtf * contrib
                    # the and / min_should_match floor: candidates keep the
                    # docs found in at least `need` of the query's lists
                    cand_sel = _matching([e[1] for e in entries], need) if need > 1 else cand
                    # boolean MUST: candidates restrict to docs containing
                    # EVERY must term (a must term absent here matches
                    # nothing); must terms already scored above
                    if musts:
                        mlists = [h[0] for mt in musts
                                  if (h := self.term_contrib(mt, plan, scorer)) is not None]
                        cand_sel = _matching([cand_sel, *mlists], 1 + len(musts))
                    # filtered search selects from masked candidates; the
                    # scratch reset below still covers EVERY touched row
                    if fmask is not None:
                        cand_sel = cand_sel[fmask[cand_sel]]
                    if excl is not None:
                        cand_sel = cand_sel[~excl[cand_sel]]
                    csc = (
                        sort_vals[cand_sel] if sort_vals is not None
                        else scores[cand_sel]
                    )
                    cids = self.docmap_ids[cand_sel]
                    if aft is not None:
                        av, ad = aft
                        m = (csc < av) | ((csc == av) & (cids > ad))
                        csc, cids = csc[m], cids[m]
                    docs, ssc = topk_select(csc, cids, plan.k)
                    scores[cand] = 0.0  # keep the shared scratch all-zeros
                    self._scores_dirty = None
                    n_cand = cand.size
                for np_ in nparts:  # keep the shared scratch all-False
                    self._touched[np_] = False
                self._neg_dirty = None
            if not isinstance(docs, np.ndarray) or docs.size == 0:
                continue
            q_out.append(np.full(docs.size, qid, dtype=np.int64))
            d_out.append(docs)
            s_out.append(ssc)
            n_out.append((docs.size, n_cand, n_blocks))
        if not d_out:
            return _empty_partials(with_urls)
        all_docs = np.concatenate(d_out)
        sizes = np.array([x[0] for x in n_out], dtype=np.int64)
        cols = {
            "query_id": pa.array(np.concatenate(q_out), type=pa.int64()),
            "doc_id": pa.array(all_docs, type=pa.int64()),
        }
        if with_urls:
            found, url_pos = self._id_positions(all_docs)
            if not found.all():
                raise RuntimeError("a winner doc_id has no row in the shard's docmap")
            cols["url"] = self.docmap_urls.take(pa.array(url_pos))
        cols["score"] = pa.array(np.concatenate(s_out), type=pa.float64())
        cols["docs_scored"] = pa.array(
            np.repeat(np.array([x[1] for x in n_out], dtype=np.int64), sizes)
        )
        cols["blocks_decoded"] = pa.array(
            np.repeat(np.array([x[2] for x in n_out], dtype=np.int64), sizes)
        )
        return pa.table(cols)

    # ---- facet / hit counting over the match set (serving aggregations) ----

    def _facet_codes(self, facet: str) -> tuple[np.ndarray, list]:
        """(code per docmap row, dictionary values) for a docmap attribute —
        encoded once per shard, cached."""
        hit = self._facet_cache.get(facet)
        if hit is not None:
            return hit
        import pyarrow.compute as pc

        if facet.startswith("len:"):
            # numeric range facet (Lucene RangeFacetCounts / ES histogram
            # aggregation): bucket = doc_len // width, exact integers
            width = int(facet.split(":", 1)[1])
            if width <= 0:
                raise ValueError(f"invalid bucket width in facet {facet!r}")
            buckets = self.docmap_lens.astype(np.int64) // width
            vals_arr, codes = np.unique(buckets, return_inverse=True)
            out = (codes.astype(np.int64), [int(v) for v in vals_arr])
            self._facet_cache[facet] = out
            return out
        col = {"lang": self.docmap_langs}.get(facet)
        if col is None:
            raise ValueError(f"unknown facet {facet!r} (supported: lang, len:<width>)")
        enc = pc.dictionary_encode(
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        )
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = enc.dictionary.to_pylist()
        self._facet_cache[facet] = (codes, vals)
        return codes, vals

    def facet_counts(self, plan: QueryPlan, facet: str = "lang") -> pa.Table:
        """Per query: count MATCHING docs (union of the query terms' posting
        lists — the full disjunctive match set, not top-k) grouped by a
        docmap attribute. Exact across the cluster because shards partition
        documents disjointly: per-shard counts sum with no overlap.
        The faceted-search / aggregations surface of a fulltext engine."""
        scorer = SCORERS["bm25"]  # contrib cache reused; scores ignored
        codes, vals = self._facet_codes(facet)
        q_out: list[int] = []
        f_out: list[str] = []
        n_out: list[int] = []
        for qi in range(plan.query_ids.size):
            pos_lists = []
            for term, _qtf in plan.query_terms[qi]:
                if plan.term_idf.get(term, 0.0) <= 0.0:
                    continue
                hit = self.term_contrib(term, plan, scorer)
                if hit is not None:
                    pos_lists.append(hit[0])
            if not pos_lists:
                continue
            cand = self._union_positions(pos_lists)
            cnt = np.bincount(codes[cand], minlength=len(vals))
            for j in np.flatnonzero(cnt):
                q_out.append(int(plan.query_ids[qi]))
                f_out.append(vals[j])
                n_out.append(int(cnt[j]))
        numeric = facet.startswith("len:")
        return pa.table(
            {
                "query_id": pa.array(q_out, type=pa.int64()),
                ("bucket" if numeric else facet): pa.array(
                    f_out, type=pa.int64() if numeric else pa.string()
                ),
                "n_docs": pa.array(n_out, type=pa.int64()),
            }
        )

    def match_stats(self, plan: QueryPlan) -> pa.Table:
        """Per query, exact INTEGER doc_len statistics over the FULL match
        set (the ES `stats` aggregation surface): (n_docs, dl_min, dl_max,
        dl_sum). Shards partition docs disjointly, so the cross-shard merge
        is sum / min / max / sum — all int64-exact, hash-checkable; the
        derived mean divides once at the very end (one IEEE division on
        exact integers, identical on both engines)."""
        scorer = SCORERS["bm25"]  # contrib cache reused; scores ignored
        q_out: list[int] = []
        n_out: list[int] = []
        mn_out: list[int] = []
        mx_out: list[int] = []
        sm_out: list[int] = []
        for qi in range(plan.query_ids.size):
            pos_lists = []
            for term, _qtf in plan.query_terms[qi]:
                if plan.term_idf.get(term, 0.0) <= 0.0:
                    continue
                hit = self.term_contrib(term, plan, scorer)
                if hit is not None:
                    pos_lists.append(hit[0])
            if not pos_lists:
                continue
            cand = self._union_positions(pos_lists)
            if cand.size == 0:
                continue
            dls = self.docmap_lens[cand]
            q_out.append(int(plan.query_ids[qi]))
            n_out.append(int(cand.size))
            mn_out.append(int(dls.min()))
            mx_out.append(int(dls.max()))
            sm_out.append(int(dls.sum()))
        return pa.table(
            {
                "query_id": pa.array(q_out, type=pa.int64()),
                "n_docs": pa.array(n_out, type=pa.int64()),
                "dl_min": pa.array(mn_out, type=pa.int64()),
                "dl_max": pa.array(mx_out, type=pa.int64()),
                "dl_sum": pa.array(sm_out, type=pa.int64()),
            }
        )

    def match_dl_hist(self, plan: QueryPlan) -> pa.Table:
        """Per query, the (dl, count) histogram of the match set's doc
        lengths — integer partials that merge by SUM across shards and
        support EXACT quantiles at any scale (doc lengths are a small
        integer domain, so the histogram stays tiny no matter the corpus —
        the exact alternative to ES's t-digest percentiles)."""
        scorer = SCORERS["bm25"]
        q_out: list[np.ndarray] = []
        d_out: list[np.ndarray] = []
        n_out: list[np.ndarray] = []
        for qi in range(plan.query_ids.size):
            pos_lists = []
            for term, _qtf in plan.query_terms[qi]:
                if plan.term_idf.get(term, 0.0) <= 0.0:
                    continue
                hit = self.term_contrib(term, plan, scorer)
                if hit is not None:
                    pos_lists.append(hit[0])
            if not pos_lists:
                continue
            cand = self._union_positions(pos_lists)
            if cand.size == 0:
                continue
            vals, cnts = np.unique(self.docmap_lens[cand], return_counts=True)
            q_out.append(np.full(vals.size, int(plan.query_ids[qi]), dtype=np.int64))
            d_out.append(vals.astype(np.int64))
            n_out.append(cnts.astype(np.int64))
        if not q_out:
            return pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    "dl": pa.array([], type=pa.int64()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(q_out), type=pa.int64()),
                "dl": pa.array(np.concatenate(d_out), type=pa.int64()),
                "n": pa.array(np.concatenate(n_out), type=pa.int64()),
            }
        )

    def sig_term_counts(self, plan: QueryPlan) -> pa.Table:
        """Per query, for EVERY dictionary term of this shard: the number of
        match-set docs containing it (the ES `significant_terms` foreground
        counts). Integer partials; shards partition docs disjointly so the
        cross-shard merge is a plain sum. Requires the state loaded WITHOUT
        a terms filter (full dictionary). The full-dictionary scan per shard
        is the documented cost of exact significant_terms — ES bounds it by
        sampling instead; exactness is what makes this SQL-checkable."""
        # every dictionary term is visited: decode the whole segment at once
        row_of, pos, _ = self._decode_rows(None)
        ends = np.searchsorted(row_of, np.arange(1, len(self._terms_list) + 1)).tolist()
        dec = dict(zip(self._terms_list, np.split(pos, ends[:-1])))
        empty = np.empty(0, dtype=np.int64)

        def _pos(term: str) -> np.ndarray:
            return dec.get(term, empty)

        q_out: list[int] = []
        t_out: list[str] = []
        m_out: list[int] = []
        for qi in range(plan.query_ids.size):
            pos_lists = [
                _pos(term)
                for term, _qtf in plan.query_terms[qi]
                if plan.term_idf.get(term, 0.0) > 0.0
            ]
            pos_lists = [p for p in pos_lists if p.size]
            if not pos_lists:
                continue
            cand = self._union_positions(pos_lists)
            qid = int(plan.query_ids[qi])
            # marker row (term "" is never a real token — the analyzer
            # strips empties): this shard's match-set size, summable to the
            # global match_n with no second actor-pool pass
            q_out.append(qid)
            t_out.append("")
            m_out.append(int(cand.size))
            for term in self._terms_list:
                p = _pos(term)
                if p.size == 0:
                    continue
                j = np.searchsorted(p, cand)
                v = j < p.size
                v[v] = p[j[v]] == cand[v]
                m = int(v.sum())
                if m:
                    q_out.append(qid)
                    t_out.append(term)
                    m_out.append(m)
        return pa.table(
            {
                "query_id": pa.array(q_out, type=pa.int64()),
                "term": pa.array(t_out, type=pa.string()),
                "match_df": pa.array(m_out, type=pa.int64()),
            }
        )

    def collapse_best(self, plan: QueryPlan, scorer, facet: str = "lang") -> pa.Table:
        """Field collapsing (the ES `collapse` surface): per query and facet
        value, the single BEST-scoring matching doc (score desc, doc_id-asc
        ties) over the FULL match set. A shard emits at most |facet dict|
        rows per query — bounded partials, no matter the match set — and the
        cross-shard merge picks the best per (query, facet) again, so the
        collapsed list is exact. Scores use the pinned lexicographic fold
        (bit-identical to search_batch)."""
        codes, vals = self._facet_codes(facet)
        scores = self._scores
        q_out: list[int] = []
        f_out: list[str] = []
        d_out: list[int] = []
        s_out: list[float] = []
        for qi in range(plan.query_ids.size):
            entries = []
            for term, qtf in plan.query_terms[qi]:
                if plan.term_idf.get(term, 0.0) <= 0.0:
                    continue
                hit = self.term_contrib(term, plan, scorer)
                if hit is not None:
                    entries.append((qtf, hit[0], hit[1]))
            if not entries:
                continue
            if len(entries) == 1:
                qtf, pos, contrib = entries[0]
                cand = pos
                csc = contrib if qtf == 1 else qtf * contrib
            else:
                cand = self._union_positions([e[1] for e in entries])
                scores[cand] = 0.0
                for qtf, pos, contrib in entries:
                    if qtf == 1:
                        scores[pos] += contrib
                    else:
                        scores[pos] += qtf * contrib
                csc = scores[cand].copy()
                scores[cand] = 0.0  # keep the shared scratch all-zeros
            ids = self.docmap_ids[cand]
            lab = codes[cand]
            order = np.lexsort((ids, -csc))
            # first occurrence per label in score order == best per group
            _, first = np.unique(lab[order], return_index=True)
            for i in order[np.sort(first)]:
                q_out.append(int(plan.query_ids[qi]))
                f_out.append(vals[int(lab[i])])
                d_out.append(int(ids[i]))
                s_out.append(float(csc[i]))
        return pa.table(
            {
                "query_id": pa.array(q_out, type=pa.int64()),
                facet: pa.array(f_out, type=pa.string()),
                "doc_id": pa.array(d_out, type=pa.int64()),
                "score": pa.array(s_out, type=pa.float64()),
            }
        )

    # ---- snippet extraction (positions-based highlight) ----

    def snippet_window(self, plan: QueryPlan, qi: int, doc_id: int) -> tuple[int, int]:
        """Best snippet window for one RESULT doc: the smallest token window
        [start, start+len) containing >= 1 occurrence of EVERY query term
        that occurs in the doc (ties: smallest start). Runs on final top-k
        rows only — k x Q docs, each with a handful of short position lists,
        so the classic merge + two-pointer sweep is result-side work, not a
        posting-stream loop. Requires the positional sidecar."""
        self._load_positions()
        scorer = SCORERS["bm25"]
        dpos = int(np.searchsorted(self.docmap_ids, doc_id))
        if dpos >= self.docmap_ids.size or self.docmap_ids[dpos] != doc_id:
            return (-1, 0)
        lists: list[np.ndarray] = []
        for term, _qtf in plan.query_terms[qi]:
            hit = self.term_contrib(term, plan, scorer)
            if hit is None:
                continue
            j = int(np.searchsorted(hit[0], dpos))
            if j >= hit[0].size or hit[0][j] != dpos:
                continue  # term not in this doc: not required for coverage
            tp = self._term_positions(term)
            if tp is None:
                continue
            offs, flat = tp
            lists.append(flat[offs[j]: offs[j + 1]])
        if not lists:
            return (-1, 0)
        if len(lists) == 1:
            return (int(lists[0][0]), 1)
        merged = np.concatenate(lists)
        labels = np.concatenate(
            [np.full(ls.size, i, dtype=np.int32) for i, ls in enumerate(lists)]
        )
        order = np.argsort(merged, kind="stable")
        mpos, mlab = merged[order], labels[order]
        need = len(lists)
        count = np.zeros(need, dtype=np.int64)
        covered = 0
        best = (-1, 1 << 30)
        lo = 0
        for hi in range(mpos.size):
            c = mlab[hi]
            count[c] += 1
            if count[c] == 1:
                covered += 1
            while covered == need:
                width = int(mpos[hi] - mpos[lo]) + 1
                if width < best[1] or (width == best[1] and int(mpos[lo]) < best[0]):
                    best = (int(mpos[lo]), width)
                cl = mlab[lo]
                count[cl] -= 1
                if count[cl] == 0:
                    covered -= 1
                lo += 1
        return best if best[0] >= 0 else (int(mpos[0]), 1)

    def snippet_windows(self, plan: QueryPlan, rows: pa.Table, num_partitions: int) -> pa.Table:
        """`rows` (final results) of the docs this partition owns (doc_id %
        num_partitions locates the shard under every docid strategy —
        reordered ids are constructed to preserve it), each with its best
        highlight window appended as (snippet_start, snippet_len)."""
        ids = rows.column("doc_id").to_numpy(zero_copy_only=False)
        rows = rows.filter(pa.array(ids % num_partitions == self.partition))
        qi_of = {int(q): i for i, q in enumerate(plan.query_ids)}
        win = [
            self.snippet_window(plan, qi_of[q], d)
            for q, d in zip(rows.column("query_id").to_pylist(), rows.column("doc_id").to_pylist())
        ]
        return rows.append_column(
            "snippet_start", pa.array([w[0] for w in win], type=pa.int64())
        ).append_column("snippet_len", pa.array([w[1] for w in win], type=pa.int64()))

    # ---- prefix (wildcard term*) dictionary range scan ----

    def pattern_doc_counts(self, patterns: list[str], mode: str) -> pa.Table:
        """(query_id = pattern index, n_docs) for every pattern: this
        shard's docs holding ANY term that matches it — mode "prefix"
        (`term*`), "infix" (`*term*`) or "regex". Partials sum exactly
        across shards (disjoint docs)."""
        count = {
            "prefix": self.prefix_doc_count,
            "infix": self.substr_doc_count,
            "regex": self.regex_doc_count,
        }[mode]
        return pa.table({
            "query_id": pa.array(np.arange(len(patterns)), type=pa.int64()),
            "n_docs": pa.array([count(p) for p in patterns], type=pa.int64()),
        })

    def suggest_partials(self, prefixes: list[str]) -> pa.Table:
        """(query_id = prefix index, term, local df) for each prefix's
        dictionary range — the suggester's shard partial; callers sum df per
        term across shards and rank."""
        q_out: list[int] = []
        t_out: list[str] = []
        d_out: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for qi, prefix in enumerate(prefixes):
            terms, dfs = self.prefix_terms(prefix)
            q_out += [qi] * len(terms)
            t_out += terms
            d_out.append(dfs)
        return pa.table({
            "query_id": pa.array(q_out, type=pa.int64()),
            "term": pa.array(t_out, type=pa.string()),
            "df": pa.array(np.concatenate(d_out), type=pa.int64()),
        })

    def prefix_doc_count(self, prefix: str) -> int:
        """Count docs containing ANY term with the given prefix: bisect the
        sorted term dictionary for the prefix range (the wildcard/multi-term
        expansion of a fulltext engine), decode the range's postings, count
        the union. Exact across the cluster: shards hold disjoint docs."""
        import bisect

        if not prefix:
            return 0
        lo = bisect.bisect_left(self._terms_list, prefix)
        hi = bisect.bisect_left(self._terms_list, prefix[:-1] + chr(ord(prefix[-1]) + 1))
        if lo >= hi:
            return 0
        return self._postings_union_count(range(lo, hi))

    def substr_doc_count(self, infix: str) -> int:
        """Count docs containing ANY term that contains `infix` (the *term*
        wildcard). No sorted-range shortcut exists for infixes — real engines
        burn a permuterm/n-gram auxiliary index; the honest baseline is a
        VECTORIZED substring scan of the dictionary (O(|dict|) bytes per
        query, embarrassingly parallel across shards), then the same
        postings-union count as the prefix path. Empty infix matches every
        term (SQL contains(s, '') semantics)."""
        import pyarrow.compute as pc

        mask = pc.match_substring(self._terms_arr, infix).to_numpy(zero_copy_only=False)
        return self._postings_union_count(np.nonzero(mask)[0])

    def prefix_terms(self, prefix: str) -> tuple[list[str], np.ndarray]:
        """(terms, local df) for the dictionary range matching a prefix —
        the suggester's shard partial. Dictionary rows only (no postings
        decode); global df = sum of shard partials per term."""
        import bisect

        if not prefix:
            return [], np.empty(0, dtype=np.int64)
        lo = bisect.bisect_left(self._terms_list, prefix)
        hi = bisect.bisect_left(
            self._terms_list, prefix[:-1] + chr(ord(prefix[-1]) + 1)
        )
        if lo >= hi:
            return [], np.empty(0, dtype=np.int64)
        if self._dead_pos is None:
            return self._terms_list[lo:hi], self._df[lo:hi].copy()
        dfs = np.array(
            self.live_term_dfs(self._terms_list[lo:hi]), dtype=np.int64
        )
        return self._terms_list[lo:hi], dfs

    def regex_doc_count(self, pattern: str) -> int:
        """Count docs containing ANY term matching an (unanchored, RE2)
        regex — the third wildcard mode after prefix and infix: a vectorized
        `match_substring_regex` scan of the dictionary, then the shared
        postings-union count. Oracle parity: DuckDB regexp_matches is the
        same unanchored-RE2 semantics."""
        import pyarrow.compute as pc

        mask = pc.match_substring_regex(self._terms_arr, pattern).to_numpy(zero_copy_only=False)
        return self._postings_union_count(np.nonzero(mask)[0])

    def _postings_union_count(self, term_indices) -> int:
        """|union of postings| over dictionary rows — shared by the prefix
        and infix wildcard scans (shards hold disjoint docs, so counts sum
        exactly across the cluster)."""
        _, pos, _ = self._decode_rows(np.asarray(term_indices, dtype=np.int64))
        return int(np.unique(pos).size)

    # ---- exact phrase path (method="phrase") ----

    def _load_positions(self) -> None:
        """Lazy-load the positional sidecar (stages/positions.py) — phrase
        queries only; workloads without phrases never read it."""
        if self._pos_row is not None:
            return
        from .positions import positions_path

        p = positions_path(self.index_dir, self.partition)
        if not os.path.exists(p):
            raise FileNotFoundError(
                "phrase search needs the positional sidecar; run "
                f"build_position_sidecar over the build corpus (missing {p})"
            )
        filters = (
            [("term", "in", self._terms_filter)]
            if self._terms_filter is not None
            else None
        )
        t = pq.read_table(p, filters=filters).combine_chunks()
        terms = t.column("term").to_numpy(zero_copy_only=False).tolist()
        self._pos_row = dict(zip(terms, range(len(terms))))

        def _lv(col):
            arr = col.chunk(0) if isinstance(col, pa.ChunkedArray) else col
            return np.asarray(arr.offsets), np.asarray(arr.values).astype(np.int64)

        self._poffs_off, self._poffs_vals = _lv(t.column("pos_offs"))
        self._pflat_off, self._pflat_vals = _lv(t.column("pos_flat"))

    def _term_positions(self, term: str):
        """(pos_offs df+1, pos_flat) views for one term, aligned row-for-row
        with the term's posting order in the main segment (docmap-position
        ascending over the identical winner set — positions.py invariant)."""
        i = self._pos_row.get(term)
        if i is None:
            return None
        return (
            self._poffs_vals[self._poffs_off[i]: self._poffs_off[i + 1]],
            self._pflat_vals[self._pflat_off[i]: self._pflat_off[i + 1]],
        )

    def search_one_phrase(self, plan: QueryPlan, qi: int, scorer, slop: int = 0):
        """Exact phrase retrieval: conjunctive posting-list intersection over
        the phrase's distinct terms, then positional adjacency verification
        against the sidecar, fully vectorized — candidate position sets are
        packed (candidate_rank << 32 | token_position) and each phrase step
        is one searchsorted membership probe per allowed gap (slop=0: exactly
        one probe at +1; slop=s: ordered per-gap proximity, probes +1..+1+s —
        the Lucene slop analog).

        Survivor docs score exactly like the disjunctive path (pinned
        lexicographic accumulation over the phrase's distinct terms with
        phrase term counts as qtf), so phrase scores are bit-identical to the
        same doc's TAAT score for the bag-of-words query."""
        empty = np.empty(0, dtype=np.int64)
        seq = plan.query_seqs[qi] if plan.query_seqs else []
        if not seq:
            return empty, empty.astype(np.float64), 0, 0
        entries: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
        n_blocks = 0
        for term, _qtf in plan.query_terms[qi]:
            if plan.term_idf.get(term, 0.0) <= 0.0:
                return empty, empty.astype(np.float64), 0, 0
            hit = self.term_contrib(term, plan, scorer)
            if hit is None:
                return empty, empty.astype(np.float64), 0, n_blocks
            entries[term] = hit
            n_blocks += hit[2]
        isect = _matching([hit[0] for hit in entries.values()], len(entries))
        if isect.size == 0:
            return empty, empty.astype(np.float64), 0, n_blocks
        self._load_positions()

        def packed(term: str) -> np.ndarray:
            tp = self._term_positions(term)
            if tp is None:
                return np.empty(0, dtype=np.int64)
            offs, flat = tp
            j = np.searchsorted(entries[term][0], isect)  # candidate -> row
            starts, ends = offs[j], offs[j + 1]
            lens = (ends - starts).astype(np.int64)
            tot = int(lens.sum())
            if tot == 0:
                return np.empty(0, dtype=np.int64)
            doc_rep = np.repeat(np.arange(isect.size, dtype=np.int64), lens)
            base = np.repeat(starts, lens)
            run = np.arange(tot, dtype=np.int64) - np.repeat(
                np.cumsum(lens) - lens, lens
            )
            return (doc_rep << np.int64(32)) | flat[base + run]

        # `cur` tracks the packed position of the LAST matched token per
        # surviving chain; positions fit 31 bits so +g never carries into
        # the rank bits
        cur = packed(seq[0])
        for s in range(1, len(seq)):
            if cur.size == 0:
                break
            step = packed(seq[s])
            hits = []
            for g in range(1, slop + 2):
                probe = cur + np.int64(g)
                j = np.searchsorted(step, probe)
                valid = j < step.size
                valid[valid] = step[j[valid]] == probe[valid]
                hits.append(probe[valid])
            cur = hits[0] if len(hits) == 1 else np.unique(np.concatenate(hits))
        if cur.size == 0:
            return empty, empty.astype(np.float64), 0, n_blocks
        keep = isect[np.unique(cur >> np.int64(32))]
        out = np.zeros(keep.size, dtype=np.float64)
        for term, qtf in plan.query_terms[qi]:  # lexicographic (pinned order)
            pos, contrib = entries[term][0], entries[term][1]
            idx = np.searchsorted(pos, keep)
            out += contrib[idx] if qtf == 1 else qtf * contrib[idx]
        docs, ssc = topk_select(out, self.docmap_ids[keep], plan.k)
        return docs, ssc, int(keep.size), n_blocks

    def _rescore_exact(self, plan: QueryPlan, qi: int, docs: np.ndarray, scorer) -> np.ndarray:
        """Re-accumulate scores for a small doc set from the terms' cached
        contributions, in lexicographic term order (the search's own
        addends in its own float op order)."""
        out = np.zeros(docs.size, dtype=np.float64)
        # docs are real ids (the result surface); work in position space
        dpos = np.searchsorted(self.docmap_ids, docs)
        for term, qtf in plan.query_terms[qi]:
            if plan.term_idf.get(term, 0.0) <= 0.0:
                continue
            hit = self.term_contrib(term, plan, scorer)
            if hit is None:
                continue
            pos, contrib = hit[0], hit[1]
            pin = np.searchsorted(pos, dpos)
            valid = pin < pos.size
            valid[valid] = pos[pin[valid]] == dpos[valid]
            out[valid] += qtf * contrib[pin[valid]]
        return out


def _empty_partials(with_urls: bool) -> pa.Table:
    cols = {"query_id": pa.array([], type=pa.int64()), "doc_id": pa.array([], type=pa.int64())}
    if with_urls:
        cols["url"] = pa.array([], type=pa.string())
    cols["score"] = pa.array([], type=pa.float64())
    cols["docs_scored"] = pa.array([], type=pa.int64())
    cols["blocks_decoded"] = pa.array([], type=pa.int64())
    return pa.table(cols)


def _chunked(cols) -> pa.ChunkedArray:
    """Arrow columns end to end, zero-copy."""
    chunks = [c for col in cols for c in (col.chunks if isinstance(col, pa.ChunkedArray) else [col])]
    return pa.chunked_array(chunks, type=cols[0].type if cols else pa.string())


class _ShardGroup(_ShardState):
    """A shard worker's `_ShardState`s — its partitions, and in a generation
    stack every generation of each — scored as ONE shard: one decode, one
    score and one top-k per query per worker, not one per member.

    The members' docmap columns are laid end to end (member j's position p
    is group position `_base[j] + p`) under one dead mask, one scratch set
    and one term-contribution cache. A group row is a term: it stands for
    that term's segment row in every member holding it, so `_decode_rows`
    reads them all, term-major, as one stream per blob column
    (`decode_postings_rows` over several segments; no segment bytes are
    copied to keep), and the inherited body of `search_batch` with
    `fill_contrib`, `group_contrib` and `live_term_dfs` runs unchanged on
    group rows. The top-k equals the members' own top-k merged: positions
    are disjoint per member, each doc accumulates its terms in the same
    lexicographic order and `topk_select` keeps the (score desc, doc_id asc)
    order. The and / min_should_match match counts are exact over the
    group: a live doc has one copy in one member (shadowed copies drop at
    decode) and partitions are disjoint across workers. Phrase runs on the
    members (`partials`)."""

    def __init__(self, members: list[_ShardState], block_size: int):
        self.members = members
        self.block_size = block_size
        self._base = np.cumsum([0] + [m.docmap_ids.size for m in members])[:-1]
        self.docmap_ids = np.concatenate([m.docmap_ids for m in members] or [np.empty(0, np.int64)])
        self.docmap_lens = np.concatenate([m.docmap_lens for m in members] or [np.empty(0, np.int64)])
        self.docmap_langs = _chunked([m.docmap_langs for m in members])
        self._dead_pos = None
        if any(m._dead_pos is not None for m in members):
            self._dead_pos = np.concatenate([
                m._dead_pos if m._dead_pos is not None else np.zeros(m.docmap_ids.size, bool)
                for m in members
            ])
        # the members' segment views, as decode_postings_rows takes them
        self._views = tuple(
            [getattr(m, a) for m in members]
            for a in ("_df", "_doc_offs", "_doc_vals", "_tf_offs", "_tf_vals")
        )
        # group rows, added as terms are first looked up: per row the
        # (members, segment rows) holding the term, its stored df and block
        # count summed over them, and block-list offsets shaped as a
        # segment's, so code reading a state's block counts reads these
        self.term_row: dict[str, int] = {}
        self._pairs: list[tuple[list[int], list[int]]] = []
        self._df: list[int] = []
        self._n_blocks: list[int] = []
        self._bl_off: list[int] = [0]
        self._urls: pa.Array | None = None
        self._by_id: tuple[np.ndarray, np.ndarray] | None = None
        self._init_caches()

    def partials(self, plan: QueryPlan, cfg: QueryConfig, with_urls: bool = True) -> list[pa.Table]:
        """The worker's partial top-k tables for `plan` — the one search
        step of one-shot tasks and session actors: one table over the whole
        group, or one per member state for phrase (it reads each segment's
        positional sidecar)."""
        args = (plan, SCORERS[cfg.scorer], cfg.method, cfg.min_should_match,
                cfg.phrase_slop, cfg.filter_lang, cfg.sort_by, _len_bounds(cfg), with_urls)
        if cfg.method == "phrase":
            return [st.search_batch(*args) for st in self.members]
        return [self.search_batch(*args)]

    def _row(self, term: str) -> int | None:
        i = self.term_row.get(term)
        if i is not None:
            return i
        ms, rs, df, nb = [], [], 0, 0
        for j, m in enumerate(self.members):
            r = m.term_row.get(term)
            if r is not None:
                ms.append(j)
                rs.append(r)
                df += int(m._df[r])
                nb += m._n_blocks[r]
        if not ms:
            return None
        i = self.term_row[term] = len(self._pairs)
        self._pairs.append((ms, rs))
        self._df.append(df)
        self._n_blocks.append(nb)
        self._bl_off.append(self._bl_off[-1] + nb)
        return i

    def _decode_rows(self, rows: np.ndarray):
        """(index into `rows`, group position, tf) per live posting of the
        group rows `rows`: every member's segment row of each, in one
        decode pass, term-major and position-ascending within a term."""
        ms: list[int] = []
        rs: list[int] = []
        owner: list[int] = []
        for j, i in enumerate(rows.tolist()):
            m, r = self._pairs[i]
            ms += m
            rs += r
            owner += [j] * len(m)
        mem = np.array(ms, dtype=np.int64)
        pair_of, pos, tfs = decode_postings_rows(
            *self._views, np.array(rs, dtype=np.int64), self.block_size, members=mem
        )
        pos = pos + self._base[mem][pair_of]
        return self._drop_dead(np.array(owner, dtype=np.int64)[pair_of], pos, tfs)

    def _id_index(self) -> tuple[np.ndarray, np.ndarray]:
        # built on first use: the concatenated docmap is not id-sorted. A
        # shadowed copy may answer for its doc_id; it has the same url
        # (doc_id <-> url is 1:1 by construction)
        if self._by_id is None:
            order = np.argsort(self.docmap_ids, kind="stable")
            self._by_id = (self.docmap_ids[order], order)
        return self._by_id

    @property
    def docmap_urls(self) -> pa.Array:
        """The members' url columns end to end, built on first use."""
        if self._urls is None:
            self._urls = _chunked([m.docmap_urls for m in self.members]).combine_chunks()
        return self._urls


def score_docs_rows(
    index_dir: str, partition: int, block_size: int, plan: QueryPlan,
    scorer_name: str, qids: np.ndarray, docs: np.ndarray,
) -> pa.Table:
    """Exact full-query scores for given (query, doc) pairs in ONE partition
    — the second pass of the rescore pipeline (pipelines/query.rescore_topk).
    It decodes the same rows the first pass decoded (the plan's terms, whole
    posting lists) and scores them once through `term_contrib`; per query,
    `_rescore_exact` sums the docs' contributions in lexicographic term
    order, so the secondary score is bit-identical to what a full search
    under that scorer would produce. Docs must belong to this partition
    (doc_id % P routing — the hash docid_strategy invariant)."""
    st = _ShardState(index_dir, partition, block_size, sorted(plan.term_idf.keys()))
    scorer = SCORERS[scorer_name]
    qi_of = {int(q): i for i, q in enumerate(plan.query_ids)}
    by_q: dict[int, list[int]] = {}
    for q, d in zip(qids, docs):
        by_q.setdefault(int(q), []).append(int(d))
    out_q: list[np.ndarray] = []
    out_d: list[np.ndarray] = []
    out_s: list[np.ndarray] = []
    for q, ds in by_q.items():
        arr = np.asarray(sorted(ds), dtype=np.int64)
        sc = st._rescore_exact(plan, qi_of[q], arr, scorer)
        out_q.append(np.full(arr.size, q, dtype=np.int64))
        out_d.append(arr)
        out_s.append(sc)
    if not out_q:
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
                "score2": pa.array([], type=pa.float64()),
            }
        )
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q)),
            "doc_id": pa.array(np.concatenate(out_d)),
            "score2": pa.array(np.concatenate(out_s)),
        }
    )


def explain_rows(
    index_dir: str, partition: int, block_size: int, plan: QueryPlan,
    scorer_name: str, qids: np.ndarray, docs: np.ndarray,
) -> pa.Table:
    """Lucene `explain` analog for one partition: per (query, result doc,
    term) score-contribution rows. A row's `contribution` is EXACTLY the
    addend the search accumulated (qtf/boost multiplied), so summing a
    doc's rows in lexicographic term order reproduces its search score
    bit-for-bit. Runs over top-k result rows only — O(k) per query, never
    the corpus."""
    st = _ShardState(index_dir, partition, block_size, sorted(plan.term_idf.keys()))
    scorer = SCORERS[scorer_name]
    boosts = getattr(plan, "query_boosts", None) or {}
    dpos = np.searchsorted(st.docmap_ids, np.asarray(docs, dtype=np.int64))
    by_q: dict[int, list[tuple[int, int]]] = {}
    for q, d, dp in zip(qids, docs, dpos):
        by_q.setdefault(int(q), []).append((int(d), int(dp)))
    qi_of = {int(q): i for i, q in enumerate(plan.query_ids)}
    out_q: list[int] = []
    out_d: list[int] = []
    out_t: list[str] = []
    out_df: list[int] = []
    out_c: list[float] = []
    for q, pairs in by_q.items():
        qi = qi_of[q]
        for term, qtf in plan.query_terms[qi]:
            if plan.term_idf.get(term, 0.0) <= 0.0:
                continue
            hit = st.term_contrib(term, plan, scorer)
            if hit is None:
                continue
            pos, contrib = hit[0], hit[1]
            w = qtf * boosts[term] if term in boosts else qtf
            for d, dp in pairs:
                j = int(np.searchsorted(pos, dp))
                if j < pos.size and pos[j] == dp:
                    out_q.append(q)
                    out_d.append(d)
                    out_t.append(term)
                    out_df.append(plan.term_df[term])
                    out_c.append(float(contrib[j]) if w == 1 else float(w * contrib[j]))
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "doc_id": pa.array(out_d, type=pa.int64()),
            "term": pa.array(out_t, type=pa.string()),
            "df": pa.array(out_df, type=pa.int64()),
            "contribution": pa.array(out_c, type=pa.float64()),
        }
    )


class ShardSearcher:
    """The search op of a one-shot task (pipelines/query.py): the partial
    top-k of the task's partitions, which the task loaded once — as one
    `_ShardGroup` (one top-k per query per task), phrase one top-k per
    partition."""

    def __init__(self, plan: QueryPlan, query_cfg: QueryConfig):
        self.plan = plan
        self.cfg = query_cfg

    def __call__(self, states: list[_ShardState]) -> pa.Table:
        if not states:
            return _empty_partials(True)
        group = _ShardGroup(states, states[0].block_size)
        return pa.concat_tables(group.partials(self.plan, self.cfg))


def _len_bounds(cfg: QueryConfig) -> tuple[int | None, int | None] | None:
    """(filter_len_min, filter_len_max) from a QueryConfig, or None when the
    numeric range filter is off."""
    lo = getattr(cfg, "filter_len_min", None)
    hi = getattr(cfg, "filter_len_max", None)
    return None if lo is None and hi is None else (lo, hi)


def merge_topk(group: pa.Table, k: int) -> pa.Table:
    """Final per-query merge of shard partials (SURVEY.md A2): sort
    (score desc, doc_id asc), truncate to k, assign ranks. The partial/final
    aggregation graft of the reference's heap drain (Index.h:393-408)."""
    import pyarrow.compute as pc

    order = pc.sort_indices(
        group, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
    )
    top = group.take(order[:k])
    n = len(top)
    return pa.table(
        {
            "query_id": top.column("query_id"),
            "rank": pa.array(np.arange(n, dtype=np.int32)),
            "doc_id": top.column("doc_id"),
            "url": top.column("url"),
            "score": top.column("score"),
        }
    )


def merge_topk_table(partials: pa.Table, k: int) -> pa.Table:
    """Vectorized driver-side merge of ALL queries' partials at once:
    lexsort (query_id, -score, doc_id) then per-group head-k. Used when the
    partial set is small (k × partitions × queries); the distributed
    groupby(query_id) path handles the rest.

    The url column is OPTIONAL: the packed serving path (search_packed)
    ships partials without urls — 8 B x 3 columns per row instead of the
    ~80 B/row the string column made them — and the session resolves urls
    for the final winners only (lookup_urls)."""
    has_url = "url" in partials.column_names
    if len(partials) == 0:
        cols = {
            "query_id": pa.array([], type=pa.int64()),
            "rank": pa.array([], type=pa.int32()),
            "doc_id": pa.array([], type=pa.int64()),
        }
        if has_url:
            cols["url"] = pa.array([], type=pa.string())
        cols["score"] = pa.array([], type=pa.float64())
        return pa.table(cols)
    qid = partials.column("query_id").to_numpy(zero_copy_only=False)
    score = partials.column("score").to_numpy(zero_copy_only=False)
    doc = partials.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((doc, -score, qid))
    qs = qid[order]
    new_q = np.concatenate(([True], qs[1:] != qs[:-1]))
    grp_start = np.maximum.accumulate(np.where(new_q, np.arange(qs.size), 0))
    rank = np.arange(qs.size) - grp_start
    keep = rank < k
    sel = order[keep]
    cols = {
        "query_id": pa.array(qid[sel], type=pa.int64()),
        "rank": pa.array(rank[keep].astype(np.int32), type=pa.int32()),
        "doc_id": pa.array(doc[sel], type=pa.int64()),
    }
    if has_url:
        cols["url"] = partials.column("url").take(pa.array(sel))
    cols["score"] = pa.array(score[sel], type=pa.float64())
    return pa.table(cols)


def _expand_dedup_results(
    res: pa.Table, orig_qids: np.ndarray, rep: np.ndarray, n_distinct: int
) -> pa.Table:
    """Replicate per-distinct-query result rows back onto the original query
    ids (res is sorted by (query_id, rank) with distinct ids 0..n_distinct-1)."""
    import pyarrow.compute as pc

    rq = res.column("query_id").to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.bincount(rq, minlength=n_distinct)
    offs = np.concatenate(([0], np.cumsum(counts)))
    sizes = counts[rep]
    total = int(sizes.sum())
    if total == 0:
        return res.slice(0, 0)
    starts = np.repeat(offs[rep], sizes)
    within = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    out = res.take(pa.array(starts + within))
    out = out.set_column(
        out.schema.get_field_index("query_id"),
        "query_id",
        pa.array(np.repeat(orig_qids, sizes), type=pa.int64()),
    )
    return out.take(
        pc.sort_indices(out, sort_keys=[("query_id", "ascending"), ("rank", "ascending")])
    )


def paged(search, queries: pa.Table, query_cfg: QueryConfig) -> pa.Table:
    """Pagination for both serving stacks: `search(queries, cfg)` for the
    top-(offset+k), sliced to ranks offset..offset+k-1 — the rank column
    keeps GLOBAL rank numbers, exactly SQL's `WHERE rank >= offset AND rank
    < offset+k`."""
    import dataclasses

    import pyarrow.compute as pc

    if query_cfg.offset <= 0:
        return search(queries, query_cfg)
    deep = dataclasses.replace(query_cfg, k=query_cfg.k + query_cfg.offset, offset=0)
    res = search(queries, deep)
    return res.filter(pc.greater_equal(res.column("rank"), query_cfg.offset))


def _partials_table(replies: list[bytes]) -> pa.Table:
    """The shard actors' `search_packed` replies as one partial table,
    (query_id, doc_id, [url], score), for `merge_topk_table`. A reply is
    one pickled (query_id, doc_id, score, urls-or-None) tuple of plain
    columns; every reply of a call carries urls or none does."""
    parts = [pickle.loads(r) for r in replies]

    def col(i: int, dtype) -> np.ndarray:
        return np.concatenate([p[i] for p in parts] + [np.empty(0, dtype)])

    cols = {"query_id": col(0, np.int64), "doc_id": col(1, np.int64)}
    if parts and parts[0][3] is not None:
        cols["url"] = pa.array([u for p in parts for u in p[3]], type=pa.string())
    cols["score"] = col(2, np.float64)
    return pa.table(cols)


def _merge_partial_range(refs, lo, hi, k: int) -> pa.Table:
    """Raw-task merge worker: fetch every shard's partial reply, keep only
    queries in [lo, hi), run the vectorized top-k merge on that slice.
    Fanning the merge out by query range removes the driver's single-core
    lexsort bottleneck on k x P x Q partial rows."""
    import ray

    import pyarrow.compute as pc

    t = _partials_table(ray.get(list(refs)))
    m = pc.greater_equal(t.column("query_id"), lo)
    if hi is not None:
        m = pc.and_(m, pc.less(t.column("query_id"), hi))
    return merge_topk_table(t.filter(m), k)


# partial-row count above which SearchSession fans the final merge out to
# raw Ray tasks instead of a driver-side lexsort
_MERGE_FANOUT_ROWS = 200_000

# query-batch size (rows = queries x k) at or below which shard actors keep
# urls inline in their partials — the extra winner-url round trip would
# dominate single-query latency; above it the packed urlless shuffle wins
_INLINE_URL_ROWS = 4096


def stack_states(dirs: list[str], partition: int, tombstones, open_state):
    """Yield (g, state) newest-first for every generation in `dirs`
    (oldest-first) that holds `partition`, each opened by
    `open_state(g, dead_ids)`. A generation's dead ids are the doc_ids of
    every newer generation (an upsert shadows the older copy) united with
    its own tombstones (`tombstones`: per-generation sorted int64 arrays
    aligned with `dirs`, or None) — the one live-document rule that stacked
    serving and delete_by_query share. Both generations hash doc_id with the
    same num_partitions, so a shadowing copy always lands in the SAME
    partition and the mask is computable shard-locally."""
    seen: np.ndarray | None = None
    for g in range(len(dirs) - 1, -1, -1):
        if not os.path.exists(segment_path(dirs[g], partition)):
            continue
        dead = seen
        tomb = tombstones[g] if tombstones is not None else None
        if tomb is not None and len(tomb):
            tomb = np.asarray(tomb, dtype=np.int64)
            dead = tomb if dead is None else np.union1d(dead, tomb)
        st = open_state(g, dead)
        yield g, st
        if len(dirs) > 1:
            seen = st.docmap_ids if seen is None else np.union1d(seen, st.docmap_ids)


def _file_identity(index_dir: str, partition: int, block_size: int) -> tuple | None:
    """What a loaded `_ShardState`'s files are, for reuse across sessions:
    the location plus device, inode, size, mtime and ctime of the segment and
    its docmap (None when the generation lacks the partition). ctime is
    needed: a copytree onto the same path keeps mtimes and the filesystem
    may hand out the old inode numbers again, but every new file gets a new
    ctime."""
    try:
        seg = os.stat(segment_path(index_dir, partition))
    except FileNotFoundError:
        return None
    dm = os.stat(docmap_path(index_dir, partition))
    return (index_dir, partition, block_size) + tuple(
        (f.st_dev, f.st_ino, f.st_size, f.st_mtime_ns, f.st_ctime_ns) for f in (seg, dm)
    )


def _shard_actor_cls():
    import ray

    @ray.remote
    class ShardActor:
        """Server-mode shard (the persistent query server, SURVEY.md T2):
        `load` gives it a session's partitions, it serves many query batches.

        Its member states — one per (generation, partition) it serves — form
        one `_ShardGroup`, built once per `load`: a query batch, live df
        and url lookups are one group call each, so the actor's cost per
        query does not grow with its generation and partition count; phrase
        runs per member and the actor merges it.

        A session call is one `search_packed` per actor: the actor counts
        the df of the terms the session has not cached over its own group,
        adds the peers' `live_df` counts (object refs Ray resolves inside
        the cluster), completes the plan and scores it, so the driver waits
        once per call and, with one actor, runs one actor task.

        Actors outlive sessions (see `_acquire_actors`): an actor keeps the
        files it loaded keyed by `_file_identity`, and a later `load` that
        needs an unchanged file builds a fresh `_ShardState` over the same
        arrays instead of rereading it."""

        def __init__(self):
            self.group: _ShardGroup | None = None
            self._files: dict[tuple, _ShardState] = {}

        def load(self, index_dirs, partitions: list[int], block_size: int,
                 tombstones=None) -> tuple[int, int, int, int]:
            """Serve `partitions` of `index_dirs` (one directory, or a
            generation stack oldest-first, each generation masked by
            `stack_states`). Returns (live docs, live doc-length sum,
            segments loaded from disk, segments reused)."""
            dirs = [index_dirs] if isinstance(index_dirs, str) else list(index_dirs)
            keys = {
                (g, p): _file_identity(d, p, block_size)
                for p in partitions for g, d in enumerate(dirs)
            }
            # drop what this session does not need BEFORE loading, so the
            # actor never holds two sessions' worth of files
            wanted = set(keys.values())
            self.group = None
            self._files = {k: v for k, v in self._files.items() if k in wanted}
            counts = {"loaded": 0, "reused": 0}

            def open_state(g, p, dead):
                key = keys[(g, p)]
                old = self._files.get(key)
                if old is None:
                    st = _ShardState(dirs[g], p, block_size, dead_ids=dead)
                    counts["loaded"] += 1
                else:
                    st = old.with_dead_ids(dead)
                    counts["reused"] += 1
                self._files[key] = st
                return st

            states = [
                st for p in partitions
                for _, st in stack_states(dirs, p, tombstones, lambda g, dead: open_state(g, p, dead))
            ]
            self.group = _ShardGroup(states, block_size)
            n, s = self.group.live_counts()
            return n, s, counts["loaded"], counts["reused"]

        def live_df(self, terms: list[str]) -> dict[str, int]:
            """This actor's live df of `terms` — a peer's `search_packed`
            input."""
            return dict(zip(terms, self.group.live_term_dfs(terms)))

        @ray.method(num_returns=2)
        def search_packed(self, call: bytes, *peer_dfs: dict[str, int]):
            """This ACTOR's top-k per query for one session call.

            `call` is the session's one pickled request, (plan, query_cfg,
            with_urls, missing) — by value for a small batch, an object ref
            Ray resolves for a large one — and the partial goes back as one
            pickled reply of plain columns (query_id, doc_id and score
            arrays, plus a url list when `with_urls`; `_partials_table`
            rebuilds it): Ray ships one bytes object each way instead of
            serializing dataclasses and an Arrow table per call. An actor
            owning P/N partitions ships one bounded partial, not P/N. For
            LARGE batches urls resolve post-merge for the final winners
            only (lookup_urls) — the k x P x Q string traffic was the
            serving shuffle's dominant byte cost; for SMALL batches
            (with_urls) the partial keeps its urls so the session skips the
            extra lookup round trip that would dominate single-query
            latency.

            `missing`: the plan's terms whose df the session has not cached
            (planned as df 0). Their global df is this actor's live count
            plus every peer's (`peer_dfs`, the other actors' `live_df` of
            `missing`); it is set on the plan before scoring and returned
            as the second value (None when nothing was missing)."""
            plan, query_cfg, with_urls, missing = pickle.loads(call)
            df = None
            if missing:
                df = dict(zip(missing, self.group.live_term_dfs(missing)))
                for part in peer_dfs:
                    for t, n in part.items():
                        df[t] += n
                plan.set_df(df)
            outs = [t for t in self.group.partials(plan, query_cfg, with_urls) if len(t)]
            if len(outs) > 1:
                outs = [merge_topk_table(pa.concat_tables(outs), plan.k)]
            t = outs[0] if outs else _empty_partials(with_urls)
            reply = (
                t.column("query_id").to_numpy(),
                t.column("doc_id").to_numpy(),
                t.column("score").to_numpy(),
                t.column("url").to_pylist() if with_urls else None,
            )
            return pickle.dumps(reply, protocol=5), df

        def lookup_urls(self, doc_ids: np.ndarray) -> pa.Table | None:
            """Resolve urls for the doc_ids this actor owns (co-resident
            docmap, SURVEY.md J1). Ids owned by other actors are ignored."""
            ids = np.asarray(doc_ids, dtype=np.int64)
            hit, pos = self.group._id_positions(ids)
            if not hit.any():
                return None
            return pa.table({
                "doc_id": pa.array(ids[hit], type=pa.int64()),
                "url": self.group.docmap_urls.take(pa.array(pos[hit])),
            })

    return ShardActor


# Warm ShardActors shared by every session in this process, as
# [(actor, partition group it served last), ...]. SearchSession.shutdown()
# returns its actors here and the next session takes them back, so a reopen
# pays neither actor start-up nor the reload of unchanged segments. It is
# module state because the reopen is the plain shutdown() + open_session
# pair, which carries no pool object. Keyed by the Ray cluster: handles from
# an earlier ray.init are dropped, never reused.
_POOL: dict = {"cluster": None, "idle": []}


def _idle_actors() -> list:
    import ray

    ctx = ray.get_runtime_context()
    cluster = (ctx.get_node_id(), ctx.get_job_id())
    if _POOL["cluster"] != cluster:
        _POOL["cluster"], _POOL["idle"] = cluster, []
    return _POOL["idle"]


def _spawn_loaded(group: list[int], load_kw: dict):
    """A new shard actor serving `group`, and its `load` result."""
    import ray

    actor = _shard_actor_cls().remote()
    return actor, ray.get(actor.load.remote(partitions=group, **load_kw))


def _acquire_actors(parts: list[int], num_actors: int | None, load_kw: dict):
    """Loaded shard actors for a new session: partitions round-robin over
    `num_actors` (default: cluster CPUs) groups, each group served by an
    idle actor that served that group last, else by any idle actor, else by
    a new one; among idle actors the most recently released goes first.
    `load_kw` holds `ShardActor.load`'s other arguments. Returns (actors,
    groups, per-actor `load` results)."""
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8))
    n = max(1, min(num_actors or ncpu, len(parts)))
    groups = [parts[i::n] for i in range(n)]
    idle = _idle_actors()  # oldest first
    picked: list = [None] * n
    for i, g in enumerate(groups):
        j = next((j for j in range(len(idle) - 1, -1, -1) if idle[j][1] == g), None)
        if j is not None:
            picked[i] = idle.pop(j)[0]
    for i in range(n):
        if picked[i] is None:
            picked[i] = idle.pop()[0] if idle else _shard_actor_cls().remote()
    refs = [a.load.remote(partitions=g, **load_kw) for a, g in zip(picked, groups)]
    actors, results = [], []
    for a, g, ref in zip(picked, groups, refs):
        try:
            res = ray.get(ref)
        except ray.exceptions.RayActorError:  # died while pooled
            a, res = _spawn_loaded(g, load_kw)
        actors.append(a)
        results.append(res)
    return actors, groups, results


def _release_actors(actors: list, groups: list) -> None:
    """Return a session's actors to the warm pool; idle actors beyond the
    cluster's CPU count are killed."""
    import ray

    if not ray.is_initialized():
        return
    idle = _idle_actors()
    idle.extend(zip(actors, groups))
    cap = max(1, int(ray.cluster_resources().get("CPU", 1)))
    while len(idle) > cap:
        ray.kill(idle.pop(0)[0])


class SearchSession:
    """Persistent shard-actor pool over one index — create once, search many.

    The graft of the reference's loadIndex -> repeated search lifecycle
    (Index.h:442-479, bindings.cpp:161-228). Partitions are assigned
    round-robin to `num_actors` actors; each query batch is broadcast and
    partials are merged driver-side (k×P×Q rows is small by construction).

    The actors come from a process-wide warm pool and return to it on
    `shutdown()`: an idle actor keeps the last session's loaded files until
    the next open or `ray.shutdown()`, and a later session reuses every
    segment whose files did not change (Lucene's openIfChanged). A shard
    actor that dies mid-session is respawned and the call retried once.
    `files_loaded` / `files_reused` count the segments this session's open
    read from disk and took over from the pool."""

    # whether the actors mask dead documents (a generation stack or
    # tombstones) — an input of the capability table
    dead_docs = False

    def __init__(self, index_dir: str, num_actors: int | None = None):
        from ..state.stats import load_stats

        self.index_dir = index_dir
        self.stats = load_stats(index_dir)
        self._open([int(p) for p in self.stats["partitions"]], num_actors,
                   dict(index_dirs=index_dir, block_size=int(self.stats["block_size"])))
        self._n_docs = int(self.stats["n_docs"])
        self._avgdl = float(self.stats["avgdl"])
        # per-session term->df cache, filled from the df the shard actors
        # return for the terms a call missed (absent terms cached as 0)
        self._df_cache: dict[str, int] = {}

    def _open(self, parts: list[int], num_actors: int | None, load_kw: dict):
        """Acquire and load this session's actors; returns the summed
        (live docs, live doc-length sum)."""
        self._load_kw = load_kw
        self.actors, self._groups, res = _acquire_actors(parts, num_actors, load_kw)
        self.files_loaded = sum(r[2] for r in res)
        self.files_reused = sum(r[3] for r in res)
        return sum(r[0] for r in res), sum(r[1] for r in res)

    def _on_actors(self, call):
        """`call(actors)`; when a shard actor died during it, every dead
        actor is respawned with its partition group and the call runs once
        more (a second failure raises)."""
        import ray

        try:
            return call(self.actors)
        except ray.exceptions.RayActorError:
            for i, a in enumerate(self.actors):
                try:
                    ray.get(a.__ray_ready__.remote())
                except ray.exceptions.RayActorError:
                    self.actors[i], _ = _spawn_loaded(self._groups[i], self._load_kw)
            return call(self.actors)

    def _lookup_missing_df(self, missing: list[str], actors: list) -> list:
        """Submit every actor's `live_df` of the call's uncached terms and
        return the refs, without waiting: actor i's `search_packed` takes
        the others' refs and counts its own share itself. Nothing is
        submitted for one actor."""
        if len(actors) == 1:
            return []
        return [a.live_df.remote(missing) for a in actors]

    def _fuzzy_expand(self, terms: list[str], max_edits: int) -> dict[str, set[str]]:
        """Per-session expansion cache (the df-cache pattern): hot query
        terms repeat across serving calls, so only UNSEEN terms pay the
        vocabulary scan — one batched scan per call covers all misses.
        Subclasses override `_fuzzy_scan` (the miss path) only, keeping the
        cache; the generation set is fixed at session construction, so
        cached expansions never go stale within a session."""
        cache = getattr(self, "_fuzzy_cache", None)
        if cache is None:
            cache = self._fuzzy_cache = {}
        missing = [t for t in terms if t not in cache]
        if missing:
            cache.update(self._fuzzy_scan(missing, max_edits))
        return {t: cache[t] for t in terms}

    def _fuzzy_scan(self, terms: list[str], max_edits: int) -> dict[str, set[str]]:
        from ..functions.fuzzy import fuzzy_expand_terms

        return fuzzy_expand_terms(self.index_dir, terms, max_edits)

    # queries per broadcast plan: bounds the ray.put object and per-actor
    # accumulation for very large batches; chunks stream through the pool
    MAX_PLAN_QUERIES = 16_384

    def search(self, queries: pa.Table, query_cfg: QueryConfig | None = None) -> pa.Table:
        query_cfg = query_cfg or QueryConfig()
        query_cfg.check(queries.column_names, self.dead_docs)
        return paged(self._search, queries, query_cfg)

    def _search(self, queries: pa.Table, query_cfg: QueryConfig) -> pa.Table:
        import ray

        # collapse duplicate query texts: plan, broadcast, per-shard scoring
        # and merge all scale with DISTINCT queries; results are replicated
        # per original query_id afterwards (bit-identical — scoring is a pure
        # function of the text). Negated / must / cursored queries skip the
        # collapse (the dedup key would need the extra columns; such batches
        # are small); either half of the cursor pair disables it, so a
        # malformed half-cursor batch still reaches make_query_plan's check
        texts_all = queries.column("text").to_pylist()
        uniq: dict[str, int] = {}
        rep = np.fromiter(
            (uniq.setdefault(t, len(uniq)) for t in texts_all),
            dtype=np.int64, count=len(texts_all),
        )
        extra = {"neg_text", "must_text", "after_score", "after_doc"} & set(queries.column_names)
        if len(uniq) < len(texts_all) and not extra:
            dq = pa.table(
                {
                    "query_id": pa.array(np.arange(len(uniq), dtype=np.int64)),
                    "text": pa.array(list(uniq.keys()), type=pa.string()),
                }
            )
            res = self._search(dq, query_cfg)
            return _expand_dedup_results(
                res,
                queries.column("query_id").to_numpy(zero_copy_only=False).astype(np.int64),
                rep, len(uniq),
            )
        if len(queries) > self.MAX_PLAN_QUERIES:
            parts = [
                self._search(queries.slice(i, self.MAX_PLAN_QUERIES), query_cfg)
                for i in range(0, len(queries), self.MAX_PLAN_QUERIES)
            ]
            return pa.concat_tables(parts)
        # plan with the cached df; the terms it misses travel with the plan
        # and the shard actors fill in their df (ShardActor.search_packed)
        missing: list[str] = []

        def cached_df(terms: list[str]) -> dict[str, int]:
            missing.extend(t for t in terms if t not in self._df_cache)
            return {t: self._df_cache[t] for t in terms if t in self._df_cache}

        plan = make_query_plan(
            queries, cached_df, self._n_docs, self._avgdl, query_cfg.k, query_cfg,
            pre_tokens=[tokenize_py(t) for t in texts_all],
            expand=self._fuzzy_expand,
            term_cf=lambda terms: load_term_cf(
                self.index_dir, self.stats["partitions"], terms, int(self.stats["block_size"])
            ),
            total_len=self.stats.get("sum_doc_len"),
        )
        # the call is one pickled request. Small batches keep urls inline
        # (one fewer actor round trip — it would dominate single-query
        # latency) and send the request by value; large batches put it in
        # the object store once, ship packed urlless partials and resolve
        # winner urls post-merge
        inline_urls = len(queries) * query_cfg.k <= _INLINE_URL_ROWS
        call = pickle.dumps((plan, query_cfg, inline_urls, missing), protocol=5)
        call_arg = call if inline_urls else ray.put(call)

        def merged_topk(actors):
            peers = self._lookup_missing_df(missing, actors) if missing else []
            futs, dfs = [], []
            for i, a in enumerate(actors):
                f, d = a.search_packed.remote(
                    call_arg, *(r for j, r in enumerate(peers) if j != i)
                )
                futs.append(f)
                dfs.append(d)  # the same summed df from every actor
            # big batches: fan the k x P x Q merge out by query range — each raw
            # task reads the shard partials and merges its slice
            est_rows = len(queries) * len(actors) * query_cfg.k
            if est_rows >= _MERGE_FANOUT_ROWS and len(plan.query_ids) > 1:
                n_slices = min(8, max(2, est_rows // _MERGE_FANOUT_ROWS + 1))
                qs_sorted = np.sort(plan.query_ids)
                cuts = [int(qs_sorted[(i * qs_sorted.size) // n_slices]) for i in range(n_slices)]
                # dedupe cut points (repeated qids) while keeping coverage
                bounds = sorted(set(cuts))
                task = ray.remote(num_cpus=1)(_merge_partial_range)
                *outs, df = ray.get(
                    [
                        task.remote(
                            futs, bounds[i],
                            bounds[i + 1] if i + 1 < len(bounds) else None,
                            query_cfg.k,
                        )
                        for i in range(len(bounds))
                    ] + dfs[:1]
                )
                # query ranges in ascending order: rows stay (query_id, rank)
                merged = pa.concat_tables(outs)
            else:
                *replies, df = ray.get(futs + dfs[:1])  # the call's one wait
                merged = merge_topk_table(_partials_table(replies), query_cfg.k)
            return merged, df

        merged, df = self._on_actors(merged_topk)
        if df:
            self._df_cache.update(df)
        # merge_topk_table and _attach_urls keep (query_id, rank) order and
        # the (query_id, rank, doc_id, url, score) columns
        return merged if "url" in merged.column_names else self._attach_urls(merged)

    def _attach_urls(self, merged: pa.Table) -> pa.Table:
        """Resolve the winners' urls from the shard actors' co-resident
        docmaps (one bounded broadcast of the distinct winner ids; each
        actor answers only for ids it owns). The packed serving shuffle
        ships no strings — this is the only url traffic, O(final winners)
        instead of O(k x partitions x queries)."""
        import ray

        doc = merged.column("doc_id").to_numpy(zero_copy_only=False)
        uniq = np.unique(doc)
        if uniq.size:
            ids_ref = ray.put(uniq)
            tabs = [
                t
                for t in self._on_actors(
                    lambda actors: ray.get([a.lookup_urls.remote(ids_ref) for a in actors])
                )
                if t is not None and len(t)
            ]
        else:
            tabs = []
        found = np.zeros(doc.size, dtype=bool)
        if tabs:
            # vectorized join: sort the (id, url) catalog once, dedupe ids
            # (a generation stack can answer the same id from two states),
            # then one searchsorted resolves every output row — no Python
            # dict/listcomp over k x Q rows on the serial driver path
            cat = pa.concat_tables(tabs)
            ids = cat.column("doc_id").to_numpy(zero_copy_only=False)
            order = np.argsort(ids, kind="stable")
            ids_s = ids[order]
            first = np.concatenate(([True], ids_s[1:] != ids_s[:-1]))
            ids_u, pos_u = ids_s[first], order[first]
            loc = np.clip(np.searchsorted(ids_u, doc), 0, ids_u.size - 1)
            found = ids_u[loc] == doc
        # every winner was scored from some shard's docmap, so a winner no
        # actor can resolve is a broken docmap invariant, not a null url
        if not found.all():
            missing = np.unique(doc[~found])
            raise RuntimeError(
                f"{missing.size} winner doc_id(s) have no docmap row on any "
                f"shard: {missing[:20].tolist()}"
            )
        urls = (
            cat.column("url").combine_chunks().take(pa.array(pos_u[loc], type=pa.int64()))
            if tabs
            else pa.array([], type=pa.string())
        )
        out = {
            "query_id": merged.column("query_id"),
            "rank": merged.column("rank"),
            "doc_id": merged.column("doc_id"),
            "url": urls,
            "score": merged.column("score"),
        }
        return pa.table(out)

    def shutdown(self) -> None:
        """Hand this session's actors back to the warm pool (not a kill):
        they keep this session's loaded files until the next open reuses or
        drops them, or until `ray.shutdown()` ends them with the cluster."""
        _release_actors(self.actors, self._groups)
        self.actors = []


class StackedSearchSession(SearchSession):
    """Serve a GENERATION STACK — [base, delta1, delta2, ...] oldest-first —
    without compacting first, bit-identical to serving the compacted index.

    The Lucene point-in-time-segments analog of the reference's O(insert)
    `add` (Index.h:298-336): `add_documents(..., compact='stack')` only
    builds the delta, and this session resolves upserts at serve time. Three
    pieces make the results exactly equal the compacted index's:
      * shadow masks — older generations drop postings of any doc_id present
        in a newer generation (computed shard-locally; same num_partitions
        means collisions share a partition);
      * global stats — n_docs / avgdl sum the actors' live counts;
      * live df — per-term df is the sum of live posting counts across the
        stack: the batch's uncached terms travel with the plan, each actor
        counts them over its `_ShardGroup` in one decode pass and adds its
        peers' counts inside its `search_packed` call; the session caches
        the sums the actors return.
    """

    def __init__(self, index_dirs: list[str], num_actors: int | None = None,
                 tombstones: list | None = None):
        from ..state.stats import load_stats

        if not index_dirs:
            raise ValueError("empty generation stack")
        self.index_dir = index_dirs[-1]  # newest generation
        self.index_dirs = list(index_dirs)
        # per-generation deleted doc_ids (oldest-first, aligned with
        # index_dirs) from pipelines.ingest.load_tombstones — masked inside
        # the shard actors exactly like newer-generation shadows
        self._tombstones = tombstones
        self.dead_docs = len(index_dirs) > 1 or any(
            t is not None and len(t) for t in tombstones or ()
        )
        all_stats = [load_stats(d) for d in index_dirs]
        self.stats = dict(all_stats[-1])
        for st in all_stats:  # same config contract as compact.merge_indexes
            for key in ("num_partitions", "block_size", "analyzer", "scorer", "k1", "b"):
                if st[key] != self.stats[key]:
                    raise ValueError(f"generation stack config mismatch on {key}")
        parts = sorted({int(p) for st in all_stats for p in st["partitions"]})
        self._n_docs, sum_dl = self._open(
            parts, num_actors,
            dict(index_dirs=self.index_dirs, block_size=int(self.stats["block_size"]),
                 tombstones=self._tombstones),
        )
        self._avgdl = (sum_dl / self._n_docs) if self._n_docs else 0.0
        # the live corpus, not the newest generation's files
        self.stats.update(
            n_docs=self._n_docs, sum_doc_len=sum_dl, avgdl=self._avgdl, partitions=parts
        )
        self._df_cache: dict[str, int] = {}

    # the same submit as the base class, bound on this class too so a
    # tracer that wraps each class's own attribute sees stacked calls
    _lookup_missing_df = SearchSession._lookup_missing_df

    def _fuzzy_scan(self, terms: list[str], max_edits: int) -> dict[str, set[str]]:
        """Union the expansion over every generation's vocabulary (a term
        first introduced by a delta must still match); the base class's
        per-session cache wraps this miss path."""
        from ..functions.fuzzy import fuzzy_expand_terms

        out: dict[str, set[str]] = {t: set() for t in terms}
        for d in self.index_dirs:
            for t, s in fuzzy_expand_terms(d, terms, max_edits).items():
                out[t] |= s
        return out
