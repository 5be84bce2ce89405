"""Shard-side posting decode and its work counters.

* `_ShardState.fill_contrib` decodes and scores many terms in one pass; its
  cache entries must equal the one-term decode + score bit for bit (float64
  scores, positions, block counts) on a generation stack with shadowed and
  tombstoned documents, for every scorer, including negated, must and
  absent terms.
* A `_ShardGroup` scores all of those states as one shard; its top-k must
  equal the members' own partials merged, for every scorer and query
  feature of the taat/maxscore path, for the and / min_should_match
  match-count floor and for phrase, and its live df the members' sum.
* The `docs_scored` / `blocks_decoded` columns of `search_partials` (the
  reference's distance-computation counters, Index.h:83-84) must equal a
  direct count over the segment files.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.functions.bm25 import SCORERS
from flatnav_ray.functions.codec import decode_postings
from flatnav_ray.functions.tokenize import tokenize_py
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.stages.build import docmap_path, segment_path
from flatnav_ray.stages.search import (
    _ShardGroup,
    _ShardState,
    make_query_plan,
    merge_topk_table,
    stack_states,
)

VOCAB = 1500


def _pages(n, seed):
    from flatnav_ray.sources.synth import PagesGenerator

    return PagesGenerator(seed=seed, vocab_size=VOCAB, mean_len=50, dup_rate=0.0).chunk(0, n)


@pytest.fixture(scope="module")
def stacked(ray_session, tmp_path_factory):
    """A base generation, a delta that re-adds 60 base urls (shadowing the
    base copies) plus 100 new pages, and 40 deleted urls; returns every
    (partition, generation) `_ShardState` with its dead mask."""
    import ray.data

    from flatnav_ray.pipelines.ingest import (
        add_documents,
        delete_documents,
        list_generations,
        load_tombstones,
    )

    base = _pages(500, seed=3)
    ix = str(tmp_path_factory.mktemp("stack") / "ix")
    build_index(ray.data.from_arrow(base), ix, IndexConfig(num_partitions=3))
    delta = pa.concat_tables([base.slice(0, 60), _pages(100, seed=4)])
    add_documents(ix, ray.data.from_arrow(delta), mode="stack")
    delete_documents(ix, urls=base.column("url").to_pylist()[100:140])
    gens, tombs = list_generations(ix), load_tombstones(ix)
    assert len(gens) == 2 and tombs is not None

    def states():
        out = []
        for p in range(3):
            out += [
                st for _, st in stack_states(
                    gens, p, tombs,
                    lambda g, dead: _ShardState(gens[g], p, 128, dead_ids=dead),
                )
            ]
        return out

    sts = states()
    assert sum(st._dead_pos is not None for st in sts) >= 3  # masks in play
    return states


def _queries():
    from flatnav_ray.sources.synth import queries_table

    return queries_table(30, seed=11, vocab_size=VOCAB)


def _plan(states, scorer_name, q=None, **kw):
    """A plan over the stack's live stats; by default for `_queries()` with a
    negated term and two must terms (one absent) per query."""
    if q is None:
        q = _queries()
        n = len(q)
        texts = q.column("text").to_pylist()
        q = q.append_column(
            "neg_text", pa.array([texts[(i + 1) % n].split(" ")[0] for i in range(n)])
        ).append_column(
            "must_text", pa.array([texts[i].split(" ")[-1] + " zzqqabsent" for i in range(n)])
        )
    terms = sorted(
        {t for c in ("text", "neg_text", "must_text") if c in q.column_names
         for x in q.column(c).to_pylist() for t in tokenize_py(x)}
        | {t for syn in kw.get("synonyms", {}).values() for t in syn}
    )
    df = dict.fromkeys(terms, 0)
    n_docs = total_len = 0
    for st in states:
        for t, v in zip(terms, st.live_term_dfs(terms)):
            df[t] += v
        a, b = st.live_counts()
        n_docs, total_len = n_docs + a, total_len + b
    plan = make_query_plan(q, lambda terms: df, n_docs, total_len / n_docs, 10, QueryConfig(**kw))
    if scorer_name == "lmd":  # any positive collection frequencies will do
        plan.term_cf = {t: 3 * d + 1 for t, d in df.items()}
        plan.total_len = total_len
    return plan


def _blobs(st, term):
    """The term's (doc_blob, tf_blob) bytes in state `st`, None when absent."""
    i = st.term_row.get(term)
    if i is None:
        return None
    return (st._doc_vals[st._doc_offs[i] : st._doc_offs[i + 1]],
            st._tf_vals[st._tf_offs[i] : st._tf_offs[i + 1]])


def _n_blocks(n_postings, block_size):
    return -(-n_postings // block_size)


def _one_term(st, term, plan, scorer):
    """The per-term decode + score the bulk pass must reproduce."""
    p = _blobs(st, term)
    if p is None:
        return None
    pos, tfs = decode_postings(*p, block_size=st.block_size)
    n_blocks = _n_blocks(pos.size, st.block_size)
    if st._dead_pos is not None:
        keep = ~st._dead_pos[pos]
        pos, tfs = pos[keep], tfs[keep]
    contrib = scorer.term_scores(
        tfs, st.docmap_lens[pos], plan.term_df[term], plan.n_docs, plan.avgdl,
        term=term, plan=plan,
    )
    return pos, contrib, n_blocks


@pytest.mark.parametrize("scorer_name", ["bm25", "tfidf", "lmd"])
def test_bulk_contrib_equals_one_term_decode(stacked, scorer_name):
    states = stacked()
    plan = _plan(states, scorer_name)
    scorer = SCORERS[scorer_name]
    terms = list(plan.term_idf)
    assert "zzqqabsent" in terms and plan.query_neg_terms and plan.query_must_terms
    n_checked = 0
    for st in states:
        st.fill_contrib(terms, plan, scorer)
        for t in terms:
            got, want = st._contrib[t], _one_term(st, t, plan, scorer)
            if want is None:
                assert got is None
                continue
            assert np.array_equal(got[0], want[0])
            assert got[1].dtype == np.float64
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
            n_checked += 1
    assert n_checked > 100


@pytest.mark.parametrize("scorer_name", ["bm25", "tfidf", "lmd"])
def test_search_batch_same_with_one_term_cache_fills(stacked, scorer_name):
    # a cache filled one term at a time serves the same partials (negated
    # and must terms included) as the batch's own bulk fill
    bulk, single = stacked(), stacked()
    plan = _plan(bulk, scorer_name)
    scorer = SCORERS[scorer_name]
    for a, b in zip(bulk, single):
        for t in plan.term_idf:
            b.term_contrib(t, plan, scorer)
        for method in ("maxscore", "taat"):
            got = a.search_batch(plan, scorer, method)
            assert got.equals(b.search_batch(plan, scorer, method))


def test_live_term_dfs_counts_live_postings(stacked):
    for st in stacked():
        terms = st._terms_list[::7] + ["zzqqabsent"]
        want = []
        for t in terms:
            p = _blobs(st, t)
            if p is None:
                want.append(0)
                continue
            pos, _ = decode_postings(*p, block_size=st.block_size)
            want.append(int(pos.size if st._dead_pos is None else (~st._dead_pos[pos]).sum()))
        assert st.live_term_dfs(terms) == want


def _variants(states, scorer_name):
    """(name, plan, search_batch keyword arguments) for each query feature of
    the taat/maxscore path."""
    q = _queries()
    texts = q.column("text").to_pylist()
    plain = _plan(states, scorer_name, q)
    neg = pa.array([texts[(i + 1) % len(texts)].split(" ")[0] for i in range(len(texts))])
    must = pa.array([t.split(" ")[-1] for t in texts])
    # page 2: a cursor at each query's 3rd result (none when it has fewer)
    top = merge_topk_table(pa.concat_tables([st.search_batch(plain, SCORERS[scorer_name])
                                             for st in states]), 10)
    third = {qid: (sc, d) for qid, r, d, sc in zip(
        *(top.column(c).to_pylist() for c in ("query_id", "rank", "doc_id", "score")))
        if r == 2}
    cursors = [third.get(qid) for qid in q.column("query_id").to_pylist()]
    after = q.append_column(
        "after_score", pa.array([c and c[0] for c in cursors], pa.float64())
    ).append_column("after_doc", pa.array([c and c[1] for c in cursors], pa.int64()))
    assert sum(c is not None for c in cursors) >= 10
    out = [
        ("plain", plain, {}),
        ("neg", _plan(states, scorer_name, q.append_column("neg_text", neg)), {}),
        ("must", _plan(states, scorer_name, q.append_column("must_text", must)), {}),
        ("neg+must", _plan(states, scorer_name, q.append_column("neg_text", neg)
                           .append_column("must_text", must)), {}),
        ("after", _plan(states, scorer_name, after), {}),
        ("sort_by", plain, {"sort_by": "doc_len"}),
        ("filter_lang", plain, {"flt": "en"}),
        ("filter_len", plain, {"flt_len": (20, 60)}),
        ("filter_lang+len", plain, {"flt": "en", "flt_len": (None, 45)}),
        ("boosts", _plan(states, scorer_name, q, boosts={
            t.split(" ")[0]: 2.5 for t in texts[::2]}), {}),
    ]
    if scorer_name != "lmd":  # synonyms are refused with a cf-based scorer
        out.append(("synonyms", _plan(states, scorer_name, q, synonyms={
            texts[i].split(" ")[0]: (texts[i + 1].split(" ")[-1],)
            for i in range(len(texts) - 1)}), {}))
    return out


@pytest.mark.parametrize("scorer_name", ["bm25", "tfidf", "lmd"])
def test_group_topk_equals_member_merge(stacked, scorer_name):
    states = stacked()
    group = _ShardGroup(states, 128)
    scorer = SCORERS[scorer_name]
    cols = ["query_id", "doc_id", "url", "score"]
    for name, plan, kw in _variants(states, scorer_name):
        runs = [("maxscore", {}), ("taat", {})]
        if name == "plain":  # the match-count floor: and, msm 2 and 3
            runs += [("and", {}), ("maxscore", {"msm": 2}), ("maxscore", {"msm": 3})]
        for method, floor in runs:
            args = {**kw, **floor}
            want = merge_topk_table(pa.concat_tables(
                [st.search_batch(plan, scorer, method, **args) for st in states]
            ), plan.k).select(cols)
            got = group.search_batch(plan, scorer, method, **args)
            assert len(want) >= 50, name
            assert got.select(cols).equals(want), (name, method, floor)
            packed = group.search_batch(plan, scorer, method, **args, with_urls=False)
            assert "url" not in packed.column_names
            assert packed.select(["query_id", "doc_id", "score"]).equals(
                want.select(["query_id", "doc_id", "score"])), (name, method, floor)


def test_group_partials_one_table(stacked, phrase_index):
    # every method scores the whole group at once: one table for the group,
    # not one per member
    states = stacked()
    assert len(states) > 1
    group = _ShardGroup(states, 128)
    plan = _plan(states, "bm25", _queries())
    for kw in ({"method": "taat"}, {"method": "maxscore"}, {"method": "wand"},
               {"method": "and"}, {"min_should_match": 2}):
        assert isinstance(group.partials(plan, QueryConfig(**kw)), pa.Table), kw
    # phrase included: on an index with its positional sidecar, the group's
    # answer is the members' own answers merged
    ix, cfg, pages = phrase_index
    states = [_ShardState(ix, p, 128) for p in range(cfg.num_partitions)]
    group = _ShardGroup(states, 128)
    texts = [" ".join(t[3:5]) for t in map(tokenize_py, pages.column("text").to_pylist()[:40])]
    q = pa.table({"query_id": pa.array(np.arange(40, dtype=np.int64)), "text": pa.array(texts)})
    plan = _plan(states, "bm25", q)
    cols = ["query_id", "doc_id", "url", "score"]
    for slop in (0, 1, 2):
        want = merge_topk_table(pa.concat_tables(
            [st.search_batch(plan, SCORERS["bm25"], "phrase", slop=slop) for st in states]
        ), plan.k).select(cols)
        got = group.partials(plan, QueryConfig(method="phrase", phrase_slop=slop))
        assert isinstance(got, pa.Table) and len(want) >= 50, slop
        assert got.select(cols).equals(want), slop


def test_phrase_refuses_dead_documents(stacked):
    # the positional sidecar counts dead documents: phrase must not answer
    states = stacked()
    plan = _plan(states, "bm25", _queries())
    with pytest.raises(ValueError, match="dead documents"):
        _ShardGroup(states, 128).search_batch(plan, SCORERS["bm25"], "phrase")


def test_group_live_term_dfs_sums_members(stacked):
    states = stacked()
    terms = sorted({t for st in states for t in st._terms_list[::5]}) + ["zzqqabsent"]
    want = np.sum([st.live_term_dfs(terms) for st in states], axis=0)
    group = _ShardGroup(states, 128)
    assert group.live_term_dfs(terms) == want.tolist()
    assert group.live_term_dfs(terms[::-1]) == want[::-1].tolist()  # cached
    assert group.live_counts() == tuple(np.sum([st.live_counts() for st in states], axis=0))


def test_group_scratch_self_heals_after_a_raise(stacked, monkeypatch):
    import flatnav_ray.stages.search as S

    states = stacked()
    st0 = states[0]
    by_df = np.argsort(-st0._df)
    t0, t1, t2, t50 = (st0._terms_list[i] for i in by_df[[0, 1, 2, 50]])

    def plan(text, neg):
        return _plan(states, "bm25", pa.table({
            "query_id": pa.array([0], pa.int64()), "text": pa.array([text]),
            "neg_text": pa.array([neg]),
        }))

    # two frequent terms scored and a third negated: the body marks the
    # negation scratch and accumulates scores before its top-k, which fails;
    # the next query scores the negated term, on other candidates
    first, second = plan(f"{t0} {t1}", t2), plan(t2, t50)
    scorer = SCORERS["bm25"]
    want = _ShardGroup(states, 128).search_batch(second, scorer)
    assert len(want) == 10
    group = _ShardGroup(states, 128)

    def boom(*a, **kw):
        raise RuntimeError("mid-body failure")

    monkeypatch.setattr(S, "topk_select", boom)
    with pytest.raises(RuntimeError, match="mid-body"):
        group.search_batch(first, scorer)
    assert group._scores_dirty is not None and group._neg_dirty
    monkeypatch.undo()
    assert group.search_batch(second, scorer).equals(want)
    assert not group._scores.any() and not group._touched.any()


# ---- work counters -------------------------------------------------------


@pytest.fixture(scope="module")
def small_index(ray_session, tmp_path_factory):
    import ray.data

    ix = str(tmp_path_factory.mktemp("counters") / "ix")
    # block_size 16 so that lists span several blocks on a small corpus
    build_index(ray.data.from_arrow(_pages(600, seed=5)), ix,
                IndexConfig(num_partitions=3, block_size=16))
    return ix


def _direct_counts(ix, queries, block_size=16):
    """(query_id, partition) -> (|union of the query terms' postings|,
    blocks in those posting lists), read straight from the segment files;
    plus doc_id -> partition."""
    counts, part_of = {}, {}
    qterms = {
        int(q): sorted(set(tokenize_py(t)))
        for q, t in zip(queries.column("query_id").to_pylist(), queries.column("text").to_pylist())
    }
    for p in range(3):
        seg = pq.read_table(segment_path(ix, p)).to_pylist()
        rows = {r["term"]: r for r in seg}
        for d in pq.read_table(docmap_path(ix, p)).column("doc_id").to_pylist():
            part_of[d] = p
        for q, terms in qterms.items():
            union, blocks = set(), 0
            for t in terms:
                r = rows.get(t)
                if r is None:
                    continue
                pos, _ = decode_postings(r["doc_blob"], r["tf_blob"], block_size=block_size)
                union.update(pos.tolist())
                blocks += _n_blocks(pos.size, block_size)
            counts[(q, p)] = (len(union), blocks)
    return counts, part_of


def _partials(ix, queries, cfg):
    import ray

    from flatnav_ray.pipelines.query import search_partials

    refs, _ = search_partials(ix, queries, cfg)
    return pa.concat_tables([t for t in ray.get(refs) if len(t)])


def _counter_rows(t, part_of):
    return {
        (q, part_of[d]): (n, b)
        for q, d, n, b in zip(
            t.column("query_id").to_pylist(), t.column("doc_id").to_pylist(),
            t.column("docs_scored").to_pylist(), t.column("blocks_decoded").to_pylist(),
        )
    }


def test_counters_equal_direct_count(small_index):
    from flatnav_ray.sources.synth import queries_table

    queries = queries_table(25, seed=6, vocab_size=VOCAB)
    want, part_of = _direct_counts(small_index, queries)
    seg = pq.read_table(segment_path(small_index, 0), columns=["df"])
    assert _n_blocks(max(seg.column(0).to_pylist()), 16) > 3  # multi-block lists
    # every method decodes every block of every query term and accumulates
    # the union of their postings; and / min_should_match count that union,
    # not the docs left above their match-count floor
    for cfg, n_min in ((QueryConfig(k=10, method="maxscore"), 50),
                       (QueryConfig(k=3, method="wand"), 50),
                       (QueryConfig(k=10, method="and"), 10),
                       (QueryConfig(k=10, min_should_match=2), 40)):
        got = _counter_rows(_partials(small_index, queries, cfg), part_of)
        assert len(got) >= n_min, (cfg, len(got))
        for key, val in got.items():
            assert val == want[key], (cfg, key)
    # one task over all 3 partitions scores them as one group: its counters
    # are the sums over the partitions
    got = _partials(small_index, queries, QueryConfig(k=10, method="maxscore", concurrency=1))
    n_checked = 0
    for q, n, b in zip(*(got.column(c).to_pylist()
                         for c in ("query_id", "docs_scored", "blocks_decoded"))):
        assert (n, b) == tuple(np.sum([want[(q, p)] for p in range(3)], axis=0)), q
        n_checked += 1
    assert n_checked >= 100
