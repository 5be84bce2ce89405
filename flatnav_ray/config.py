"""Engine configuration — the tuning-knob surface (SURVEY.md §2.10).

Graft of the reference's knobs (M / ef_construction / ef_search /
num_initializations / num_threads, /root/reference/python-bindings/src/flatnav/
bindings.cpp:484-504): here the knobs are partition count, codec block size,
BM25 parameters, analyzer version and actor-pool sizing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from .functions.codec import BLOCK_SIZE
from .functions.tokenize import ANALYZER_VERSION
from .functions.extract import EXTRACTOR_VERSION


@dataclass(frozen=True)
class IndexConfig:
    num_partitions: int = 16
    block_size: int = BLOCK_SIZE
    k1: float = 1.2
    b: float = 0.75
    scorer: str = "bm25"
    analyzer: str = ANALYZER_VERSION
    extractor: str = EXTRACTOR_VERSION
    langs: tuple[str, ...] | None = None  # optional lang filter at build
    layout: str = "doc"  # "doc" (shard-per-doc-partition) or "term"
    # docid assignment (SURVEY.md O4 — the graft of flatnav's reorder():
    # gorder/rcm cache-locality orderings, Reordering.h:27-200):
    #   "hash"      — stable hash(url): parallelism- and partition-count-
    #                 independent ids (determinism tests rely on this)
    #   "dense_url" — per-partition url-sorted dense ids interleaved by
    #                 partition (id % P == partition): posting deltas become
    #                 small constants -> much better varint compression
    #   "gorder"    — Gorder sliding-window ordering (Reordering.h:27-117
    #                 graft) over the shared-term doc-similarity graph:
    #                 docs sharing rare terms get adjacent ids, shrinking
    #                 per-term posting deltas (stages/reorder.py)
    #   "rcm"       — reverse Cuthill–McKee BFS ordering over the same graph
    #                 (Reordering.h:120-200 graft): O(V+E) locality pass
    #   "gorder+rcm" (etc.) — '+'-sequenced graph strategies, applied
    #                 successively on the relabeled graph — the reference's
    #                 reorder(strategies=[...]) list (bindings.cpp:285-295)
    docid_strategy: str = "hash"

    def fingerprint(self) -> str:
        """Stable hash of everything that affects index bytes — manifest rows
        carry it so a resume never mixes configs."""
        d = asdict(self)
        d["langs"] = list(self.langs) if self.langs else None
        return hashlib.blake2b(
            json.dumps(d, sort_keys=True).encode(), digest_size=8
        ).hexdigest()


@dataclass(frozen=True)
class QueryConfig:
    k: int = 10
    # pagination: skip the first `offset` ranked results and return the next
    # k (ranks offset..offset+k-1, GLOBAL rank numbers kept — page 2 of a
    # result list). Internally shards return top-(offset+k) partials and the
    # final merge slices, so deep pages cost O(offset+k) per shard, never a
    # full re-sort.
    offset: int = 0
    # "taat"/"maxscore"/"wand": one cached exact disjunctive loop;
    # "and": that loop with every query term required (match ALL terms);
    # "phrase": that loop's "and" floor, whose survivors must hold the
    # query's tokens in order (adjacent, or per phrase_slop); it reads the
    # positional sidecar (stages/positions.py build_position_sidecar)
    method: str = "maxscore"
    # >0: a doc must match at least this many distinct query terms
    # (Lucene minimum_should_match analog; n_terms == conjunctive AND,
    # 1 == plain disjunction). taat/maxscore/wand only: check() refuses it with
    # any other method.
    min_should_match: int = 0
    # method="phrase" proximity: consecutive phrase tokens may be up to
    # 1+slop positions apart, in order (0 = exact adjacency). The per-gap
    # proximity analog of Lucene's slop knob.
    phrase_slop: int = 0
    # sort-by-field: rank MATCHING docs by a stored docmap attribute instead
    # of relevance (the ORDER BY serving surface). Supported: "doc_len"
    # (descending, doc_id-asc ties); the result's score column carries the
    # attribute value. Default scoring methods only (taat/maxscore/wand).
    sort_by: str | None = None
    # fuzzy matching (Lucene term~1): 1 = expand every query token to all
    # dictionary terms within Levenshtein distance 1 (functions/fuzzy.py)
    # and score the disjunction, each match with its own idf. Default
    # scoring methods only (taat/maxscore/wand). Only max_edits=1 is supported.
    fuzzy_max_edits: int = 0
    # filtered search: restrict candidates to docs with this docmap lang
    # (idf/avgdl stay corpus-wide — a filter, not a sub-corpus). Default
    # scoring methods only (taat/maxscore/wand).
    filter_lang: str | None = None
    # numeric range filter: restrict candidates to docs whose doc_len
    # (token count) lies in [filter_len_min, filter_len_max], inclusive;
    # None = unbounded on that side. Composes with filter_lang (AND).
    filter_len_min: int | None = None
    filter_len_max: int | None = None
    concurrency: int = 8
    scorer: str = "bm25"
    # query-time synonym map (Lucene SynonymQuery): token -> synonym terms.
    # Each query token scores as ONE group over {token} | synonyms[token]:
    # per-doc tf = sum of member tfs, df = max of member global dfs — BM25
    # saturation applies once to the pooled tf (NOT a disjunction of
    # independently-scored terms; that is what fuzzy does). The index stays
    # literal; expansion is query-side only. Default scoring methods only
    # (taat/maxscore/wand); mutually exclusive with fuzzy_max_edits / must_text.
    synonyms: dict[str, tuple[str, ...]] | None = None
    # per-term query boosts (Lucene term^boost): term -> multiplier applied
    # to that term's score contribution AFTER tf saturation. Keyed on
    # literal index terms (under fuzzy, the expanded term). Default scoring
    # methods only (taat/maxscore/wand); mutually exclusive with synonyms.
    boosts: dict[str, float] | None = None

    def _features(self, columns) -> dict[str, str]:
        """The non-default query features this config and the query table's
        `columns` use: feature -> how an error message names it."""
        from .functions.bm25 import SCORERS

        f = {}
        if self.method not in ("taat", "maxscore", "wand"):
            f["method"] = f"method={self.method!r}"
        for name in ("min_should_match", "offset", "fuzzy_max_edits", "synonyms", "boosts",
                     "filter_lang", "sort_by"):
            if getattr(self, name) not in (0, None, {}):
                f[name] = name
        if self.filter_len_min is not None or self.filter_len_max is not None:
            f["filter_len"] = "filter_len_min/filter_len_max"
        if getattr(SCORERS[self.scorer], "needs_cf", False):
            f["cf"] = f"scorer={self.scorer!r} (needs cf)"
        for col, what in _QUERY_COLUMNS.items():
            if col in columns:
                f[col] = f"{what} (query column {col})"
        return f

    def check(self, columns, dead_docs: bool = False, op: str | None = None,
              rejects: tuple[str, ...] = ()) -> None:
        """The capability table: raise ValueError when this config and the
        query table's `columns` ask for features that do not go together.
        Both serving stacks call it once per search, before any task or actor
        runs. `dead_docs`: the session masks dead documents (a generation
        stack or tombstones). An op that serves a stricter subset names
        itself in `op` and the features it refuses in `rejects`."""
        if self.method not in ("taat", "maxscore", "wand", "and", "phrase"):
            raise ValueError(f"unknown method {self.method!r} "
                             "(supported: taat, maxscore, wand, and, phrase)")
        f = self._features(columns)
        refused = [n for n in rejects if n in f]
        if refused:
            cols = [n for n in refused if n in _QUERY_COLUMNS]
            names = [f[n] for n in refused if n not in cols]
            names += [f"query columns {cols}"] if cols else []
            raise ValueError(f"{op} does not serve every query feature; "
                             f"unsupported here: {', '.join(names)}")
        if "method" in f and "min_should_match" in f:
            raise ValueError(
                "min_should_match is supported on the default scoring methods "
                f"(taat/maxscore/wand), not method={self.method!r}"
            )
        if "method" in f or "min_should_match" in f:
            for name in _DEFAULT_PATH_ONLY:
                if name in f:
                    raise ValueError(
                        f"{f[name]} is supported on the default scoring methods "
                        f"(taat/maxscore/wand without min_should_match), not "
                        f"method={self.method!r}/min_should_match={self.min_should_match}"
                    )
        for a, b, msg in _EXCLUSIVE:
            if a in f and b in f:
                raise ValueError(msg.format(scorer=self.scorer))
        if self.sort_by not in (None, "doc_len"):
            raise ValueError(f"unsupported sort_by attribute {self.sort_by!r}")
        if dead_docs and ("cf" in f or self.method == "phrase"):
            raise ValueError(
                f"{f.get('cf') or f['method']} is unsupported on a generation stack "
                "or a tombstoned index (cf sums and the positional sidecar count "
                "dead documents); compact the index first"
            )


# optional query-table columns, and what they ask for
_QUERY_COLUMNS = {
    "neg_text": "exclude terms",
    "must_text": "must terms",
    "after_score": "search_after cursors",
    "after_doc": "search_after cursors",
}

# features served only by taat/maxscore/wand with min_should_match 0.
# method="and", min_should_match and phrase score in the default loop:
# neg, must, after, sort_by, the filters and boosts pass through its
# candidate filters there, but no oracle case checks those pairs yet, so
# they stay refused; fuzzy and synonyms turn one query token into several
# terms, which the floor would count apart
_DEFAULT_PATH_ONLY = ("fuzzy_max_edits", "synonyms", "boosts", "filter_lang", "filter_len",
                      "sort_by", *_QUERY_COLUMNS)

# pairs of features that do not go together, and why
_EXCLUSIVE = (
    ("synonyms", "fuzzy_max_edits", "synonyms cannot combine with fuzzy_max_edits"),
    # must terms score through the plain term path, which the group scorer
    # replaces: their contribution would silently drop
    ("synonyms", "must_text", "synonyms cannot combine with must_text queries"),
    # a boost keyed on one member of a pooled group is ambiguous
    ("synonyms", "boosts", "boosts cannot combine with synonyms"),
    ("synonyms", "cf", "synonyms are unsupported with scorer {scorer!r} "
                       "(pooled-group cf semantics are ambiguous)"),
)
