"""One actor round trip per session call.

A `SearchSession` / `StackedSearchSession` call plans with the df it has
cached; the terms it misses travel with the plan, and each shard actor
counts them over its own segments, adds its peers' `live_df` counts and
completes the plan before scoring (`ShardActor.search_packed`). These tests
pin that the answers do not depend on the actor count, on the clean index
and on a stack with tombstones, for every query feature the sessions serve;
that the df the actors return is the index's df; that with one actor a
call is one actor task and one driver wait; that the call crosses the
actor boundary as one bytes request and one bytes reply; and that rows
come back in (query_id, rank) order whatever order the query ids had."""

import shutil

import numpy as np
import pyarrow as pa
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.functions.tokenize import tokenize_py
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.state.stats import load_stats, lookup_term_df

ABSENT = "zzqxjv"  # in no document


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    """A clean index with a positional sidecar, a stack (base + one delta +
    tombstones) and that stack compacted, plus the queries."""
    import ray.data

    from flatnav_ray.pipelines.ingest import add_documents, compact, delete_documents
    from flatnav_ray.sources.synth import PagesGenerator, queries_table
    from flatnav_ray.stages.positions import build_position_sidecar

    root = tmp_path_factory.mktemp("session_call")
    gen = PagesGenerator(seed=61, vocab_size=1500, mean_len=40, dup_rate=0.0)
    a, b = gen.chunk(0, 240), gen.chunk(1, 60)
    cfg = IndexConfig(num_partitions=8)
    clean, stack, comp = (str(root / n) for n in ("clean", "stack", "compacted"))
    build_index(ray.data.from_arrow(a), clean, cfg)
    build_position_sidecar(ray.data.from_arrow(a), clean, cfg)
    build_index(ray.data.from_arrow(a), stack, cfg)
    add_documents(stack, ray.data.from_arrow(b), mode="stack")
    urls = a.column("url").to_pylist()
    assert delete_documents(stack, urls=urls[3::7]) == len(urls[3::7])
    shutil.copytree(stack, comp)
    compact(comp)

    q = queries_table(12, seed=62, vocab_size=1500)
    texts = q.column("text").to_pylist()
    texts[0] = f"{texts[0]} {ABSENT}"
    toks = [tokenize_py(t) for t in texts]
    queries = q.set_column(1, "text", pa.array(texts, type=pa.string()))
    must_neg = queries.append_column(
        "must_text", pa.array([t[0] if t else "" for t in toks], type=pa.string())
    ).append_column(
        "neg_text", pa.array([toks[(i + 1) % len(toks)][-1] for i in range(len(toks))],
                             type=pa.string())
    )
    # two-token phrases taken from the documents, so most have matches
    doc_toks = [tokenize_py(t) for t in a.column("text").to_pylist()[:12]]
    phrases = pa.table({
        "query_id": pa.array(np.arange(12, dtype=np.int64)),
        "text": pa.array([" ".join(t[5:7]) for t in doc_toks], type=pa.string()),
    })
    flat = sorted({t for ts in toks for t in ts} - {ABSENT})
    synonyms = {flat[i]: (flat[i + 1],) for i in range(0, 20, 2)}
    boosts = {t: 1.0 + (i % 3) for i, t in enumerate(flat[:15])}
    cases = {
        "maxscore": (queries, QueryConfig(k=10)),
        "wand": (queries, QueryConfig(k=10, method="wand")),
        "and": (queries, QueryConfig(k=10, method="and")),
        "msm": (queries, QueryConfig(k=10, min_should_match=2)),
        "fuzzy": (queries, QueryConfig(k=10, fuzzy_max_edits=1)),
        "synonyms": (queries, QueryConfig(k=10, synonyms=synonyms)),
        "boosts": (queries, QueryConfig(k=10, boosts=boosts)),
        "must_neg": (must_neg, QueryConfig(k=10)),
        "phrase": (phrases, QueryConfig(k=10, method="phrase")),
        # queries x k above the inline-url rule: the plan goes by ray.put
        "large": (queries_table(450, seed=63, vocab_size=1500), QueryConfig(k=10)),
    }
    return {"clean": clean, "stack": stack, "compacted": comp}, cases


def _answers(ix: str, cases: dict, num_actors: int) -> dict:
    """Every case's answer from one session, each asked with an empty df
    cache (so the actors count every term) and then again from the cache."""
    from flatnav_ray.pipelines.ingest import open_session

    sess = open_session(ix, num_actors=num_actors)
    try:
        assert len(sess.actors) == num_actors
        out = {}
        for name, (queries, cfg) in cases.items():
            if name == "phrase" and sess.dead_docs:
                continue  # refused on a stack (QueryConfig.check)
            sess._df_cache.clear()
            out[name] = sess.search(queries, cfg)
            assert sess.search(queries, cfg).equals(out[name]), name
        return out
    finally:
        sess.shutdown()


@pytest.mark.parametrize("kind", ["clean", "stack"])
def test_answers_equal_across_actor_counts(indexes, kind):
    dirs, cases = indexes
    got = {n: _answers(dirs[kind], cases, n) for n in (1, 2, 3)}
    for name, want in got[1].items():
        assert len(want) > 0, name
        for n in (2, 3):
            assert got[n][name].equals(want), (kind, name, n)
    if kind == "stack":
        # live df, n_docs and avgdl make the stack score like its fold
        comp = _answers(dirs["compacted"], {n: c for n, c in cases.items() if n != "phrase"}, 2)
        for name, want in got[1].items():
            assert comp[name].equals(want), name


def test_fanned_out_merge_equals_driver_merge(indexes, monkeypatch):
    """The large-batch path that merges on Ray tasks brings the actors' df
    back too, and answers the same."""
    from flatnav_ray.stages import search

    dirs, cases = indexes
    queries, cfg = cases["large"]
    want = _answers(dirs["stack"], {"large": cases["large"]}, 2)["large"]
    monkeypatch.setattr(search, "_MERGE_FANOUT_ROWS", 100)
    assert _answers(dirs["stack"], {"large": (queries, cfg)}, 2)["large"].equals(want)


class _CountingActor:
    """An actor handle that records which methods the driver submits, and
    in `sent` each submit as (actor index, method, positional args, returned
    refs)."""

    def __init__(self, actor, calls: list, index: int = 0, sent: list | None = None):
        self._actor, self._calls, self._index = actor, calls, index
        self._sent = [] if sent is None else sent

    def __getattr__(self, name):
        method, calls, sent, index = getattr(self._actor, name), self._calls, self._sent, self._index

        class _Method:
            def remote(self, *args, **kwargs):
                calls.append(name)
                out = method.remote(*args, **kwargs)
                sent.append((index, name, args, out))
                return out

        return _Method()


def _count_call(sess, queries, monkeypatch, cfg=None, sent=None):
    """(answer, submitted actor methods, blocking ray.get calls) of one
    session call; `sent` collects each submit's arguments."""
    import ray

    calls, waits = [], []
    real_get = ray.get

    def counting_get(*args, **kwargs):
        waits.append(1)
        return real_get(*args, **kwargs)

    actors = sess.actors
    sess.actors = [_CountingActor(a, calls, i, sent) for i, a in enumerate(actors)]
    monkeypatch.setattr(ray, "get", counting_get)
    try:
        out = sess.search(queries, cfg or QueryConfig(k=10))
    finally:
        monkeypatch.setattr(ray, "get", real_get)
        sess.actors = actors
    return out, calls, len(waits)


@pytest.mark.parametrize("kind", ["clean", "stack"])
def test_one_actor_call_is_one_task_and_one_wait(indexes, kind, monkeypatch):
    import ray

    from flatnav_ray.pipelines.ingest import open_session

    dirs, cases = indexes
    queries = cases["maxscore"][0].slice(0, 1)  # holds the absent term
    terms = sorted(set(tokenize_py(queries.column("text")[0].as_py())))
    sess = open_session(dirs[kind], num_actors=1)
    try:
        assert not sess._df_cache
        sent: list = []
        out, calls, waits = _count_call(sess, queries, monkeypatch, sent=sent)
        assert len(out) > 0
        assert calls == ["search_packed"] and waits == 1
        # bytes both ways: one positional argument, the pickled request,
        # and a pickled partial reply
        [(_, _, args, (reply, _))] = sent
        assert len(args) == 1 and isinstance(args[0], bytes)
        assert isinstance(ray.get(reply), bytes)
        # the df the actor returned is the index's df (absent terms as 0)
        ref = dirs["clean" if kind == "clean" else "compacted"]
        want = lookup_term_df(ref, terms)
        assert {t: sess._df_cache[t] for t in terms} == {t: want.get(t, 0) for t in terms}
        assert sess._df_cache[ABSENT] == 0
        # cached now: the same single task, and the same answer
        again, calls, waits = _count_call(sess, queries, monkeypatch)
        assert again.equals(out) and calls == ["search_packed"] and waits == 1
    finally:
        sess.shutdown()


def test_many_actor_call_sends_peer_df_in_one_wait(indexes, monkeypatch):
    import ray

    from flatnav_ray.pipelines.ingest import open_session

    dirs, cases = indexes
    queries = cases["maxscore"][0]
    sess = open_session(dirs["stack"], num_actors=3)
    try:
        sent: list = []
        _, calls, waits = _count_call(sess, queries, monkeypatch, sent=sent)
        assert sorted(calls) == ["live_df"] * 3 + ["search_packed"] * 3 and waits == 1
        # each actor gets the same request bytes plus the OTHER actors'
        # live_df refs, as top-level arguments
        live = {i: out.hex() for i, name, _, out in sent if name == "live_df"}
        packed = {i: args for i, name, args, _ in sent if name == "search_packed"}
        assert sorted(live) == sorted(packed) == [0, 1, 2]
        assert len({args[0] for args in packed.values()}) == 1
        for i, (request, *refs) in packed.items():
            assert isinstance(request, bytes)
            assert all(isinstance(r, ray.ObjectRef) for r in refs)
            assert sorted(r.hex() for r in refs) == sorted(h for j, h in live.items() if j != i)
        terms = sorted(sess._df_cache)
        want = lookup_term_df(dirs["compacted"], terms)
        assert sess._df_cache == {t: want.get(t, 0) for t in terms}
        _, calls, waits = _count_call(sess, queries, monkeypatch)
        assert calls == ["search_packed"] * 3 and waits == 1  # all cached
    finally:
        sess.shutdown()


def test_stacked_stats_describe_the_live_corpus(indexes):
    """A stacked session's corpus figures are the compacted index's, not
    the newest generation's."""
    from flatnav_ray.pipelines.ingest import open_session

    dirs, _ = indexes
    want = load_stats(dirs["compacted"])
    sess = open_session(dirs["stack"], num_actors=2)
    try:
        assert sess.dead_docs
        for key in ("n_docs", "sum_doc_len"):
            assert sess.stats[key] == want[key], key
        assert sess.stats["avgdl"] == pytest.approx(want["avgdl"], rel=1e-12)
        assert set(want["partitions"]) <= set(sess.stats["partitions"])
    finally:
        sess.shutdown()


def test_large_call_puts_the_request_bytes(indexes, monkeypatch):
    """Above the inline-url rule the request goes by one `ray.put`: each
    actor gets an object ref to the same bytes, and the partials come back
    as bytes."""
    import ray

    from flatnav_ray.pipelines.ingest import open_session

    dirs, cases = indexes
    queries, cfg = cases["large"]
    sess = open_session(dirs["clean"], num_actors=2)
    try:
        sent: list = []
        out, _, _ = _count_call(sess, queries, monkeypatch, cfg, sent)
        assert len(out) > 0
        packed = [(args, outs) for _, name, args, outs in sent if name == "search_packed"]
        assert len(packed) == 2
        refs = [args[0] for args, _ in packed]
        assert all(len(args) == 2 for args, _ in packed)  # request + one peer df
        assert all(isinstance(r, ray.ObjectRef) for r in refs) and refs[0].hex() == refs[1].hex()
        assert isinstance(ray.get(refs[0]), bytes)
        assert all(isinstance(ray.get(outs[0]), bytes) for _, outs in packed)
    finally:
        sess.shutdown()


def _sorted_by_query_rank(t: pa.Table) -> bool:
    q = t.column("query_id").to_numpy()
    r = t.column("rank").to_numpy()
    return bool(np.all((q[1:] > q[:-1]) | ((q[1:] == q[:-1]) & (r[1:] > r[:-1]))))


@pytest.mark.parametrize("order", ["shuffled", "descending"])
@pytest.mark.parametrize("path", ["inline", "put", "fanout"])
def test_rows_come_back_in_query_rank_order(indexes, monkeypatch, order, path):
    """Query ids in any order come back sorted by (query_id, rank) with no
    final re-sort, on the inline-url path, the ray.put path (winner urls by
    `_attach_urls`) and the query-range merge fan-out, and each query's
    rows are the ones it gets under ascending ids."""
    import pyarrow.compute as pc

    from flatnav_ray.pipelines.ingest import open_session
    from flatnav_ray.stages import search

    dirs, cases = indexes
    base = cases["maxscore"][0] if path == "inline" else cases["large"][0]
    texts = list(dict.fromkeys(base.column("text").to_pylist()))  # no dedup collapse
    n = len(texts)
    ids = np.arange(n, dtype=np.int64) * 3 + 5
    rng = np.random.default_rng(64)
    perm = rng.permutation(n) if order == "shuffled" else np.arange(n)[::-1]
    asc = pa.table({"query_id": pa.array(ids), "text": pa.array(texts, type=pa.string())})
    mixed = asc.take(pa.array(perm))
    assert not np.all(np.diff(mixed.column("query_id").to_numpy()) > 0)
    sess = open_session(dirs["stack"], num_actors=2)
    try:
        want = sess.search(asc, QueryConfig(k=10))
        if path == "put":
            monkeypatch.setattr(search, "_INLINE_URL_ROWS", 0)
        elif path == "fanout":
            monkeypatch.setattr(search, "_MERGE_FANOUT_ROWS", 100)
        got = sess.search(mixed, QueryConfig(k=10))
    finally:
        sess.shutdown()
    assert len(got) > 0 and _sorted_by_query_rank(got) and _sorted_by_query_rank(want)
    assert got.column_names == ["query_id", "rank", "doc_id", "url", "score"]
    assert got.equals(
        want.take(pc.sort_indices(want, sort_keys=[("query_id", "ascending"), ("rank", "ascending")]))
    )


def test_one_actor_reply_is_the_answer_when_ranked(indexes, monkeypatch):
    """With one actor the driver ranks the reply it has instead of merging
    it again, when the reply is in (query_id, -score, doc_id) order with at
    most k rows per query; otherwise it merges. Either way the answer is
    the one two actors give."""
    from flatnav_ray.pipelines.ingest import open_session
    from flatnav_ray.stages import search

    dirs, cases = indexes
    merges = []
    real_merge = search.merge_topk_table

    def counting_merge(*args, **kwargs):
        merges.append(1)
        return real_merge(*args, **kwargs)

    queries = cases["maxscore"][0]
    shuffled = queries.take(pa.array(np.random.default_rng(65).permutation(len(queries))))
    want = _answers(dirs["stack"], {"q": (queries, QueryConfig(k=10))}, 2)["q"]
    sess = open_session(dirs["stack"], num_actors=1)
    try:
        monkeypatch.setattr(search, "merge_topk_table", counting_merge)
        assert sess.search(queries, QueryConfig(k=10)).equals(want) and not merges
        assert sess.search(shuffled, QueryConfig(k=10)).equals(want) and merges
    finally:
        sess.shutdown()


def test_reply_topk_refuses_unranked_replies():
    import pickle

    from flatnav_ray.stages.search import _partials_table, _reply_topk, merge_topk_table

    def reply(q, d, s, urls=None):
        return pickle.dumps((np.array(q, np.int64), np.array(d, np.int64),
                             np.array(s, np.float64), urls))

    ranked = reply([1, 1, 1, 4], [7, 2, 5, 3], [3.0, 2.0, 2.0, 9.0], ["a", "b", "c", "d"])
    empty = reply([], [], [])
    for r, k in ((ranked, 3), (ranked, 2), (empty, 3)):  # k = 2 keeps query 1's first two
        assert _reply_topk(r, k).equals(merge_topk_table(_partials_table([r]), k))
    assert _reply_topk(reply([4, 1], [3, 7], [9.0, 3.0]), 3) is None  # query order
    assert _reply_topk(reply([1, 1], [2, 7], [2.0, 3.0]), 3) is None  # score order
    assert _reply_topk(reply([1, 1], [5, 2], [2.0, 2.0]), 3) is None  # tie by doc_id
