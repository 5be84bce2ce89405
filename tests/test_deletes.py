"""Document deletes (tombstones) — the Lucene deleteDocuments surface the
reference lacks (flatnav's arena only grows, Index.h:262-272). Serving a
tombstoned index must be rank- AND score-identical to rebuilding without the
deleted docs; compaction must physically drop them (byte-identical segments
vs the filtered rebuild); a later re-add of a deleted url resurrects it."""

import pyarrow as pa
import pyarrow.compute as pc

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.stages.introspect import canonical_postings


def _corpus_and_queries(seed=21, n=400):
    from flatnav_ray.sources.synth import PagesGenerator, queries_table

    gen = PagesGenerator(seed=seed, vocab_size=2000, mean_len=50, dup_rate=0.0)
    return gen.chunk(0, n), queries_table(15, seed=seed + 1, vocab_size=2000)


def _mask_every(table: pa.Table, modulus: int, residue: int) -> pa.Table:
    idx = pa.array([i % modulus == residue for i in range(len(table))])
    return table.filter(idx)


def test_deleted_serving_equals_filtered_rebuild(ray_session, tmp_path):
    import ray.data

    from flatnav_ray.pipelines.ingest import (
        delete_documents,
        load_tombstones,
        open_session,
    )
    from flatnav_ray.stages.search import SearchSession

    pages, queries = _corpus_and_queries()
    dead = _mask_every(pages, 5, 2)
    live_pages = pages.filter(
        pc.invert(
            pc.is_in(pages.column("url"), value_set=dead.column("url").combine_chunks())
        )
    )
    cfg = IndexConfig(num_partitions=6)
    ix, ix_ref = str(tmp_path / "full"), str(tmp_path / "filtered")
    build_index(ray.data.from_arrow(pages), ix, cfg)
    build_index(ray.data.from_arrow(live_pages), ix_ref, cfg)

    n = delete_documents(ix, urls=dead.column("url").to_pylist())
    assert n == len(dead)
    assert load_tombstones(ix) is not None

    sess = open_session(ix, num_actors=3)
    ref = SearchSession(ix_ref, num_actors=3)
    try:
        got = sess.search(queries, QueryConfig(k=10))
        want = ref.search(queries, QueryConfig(k=10))
        # rank AND float64-score identity vs the filtered rebuild: live
        # stats (n_docs/avgdl/df) must be exactly the filtered corpus's
        assert got.equals(want)
        assert sess.stats["n_docs"] == ref.stats["n_docs"] == len(live_pages)
        # no deleted doc can surface
        dead_urls = set(dead.column("url").to_pylist())
        assert not dead_urls & set(got.column("url").to_pylist())
    finally:
        sess.shutdown()
        ref.shutdown()


def test_compaction_applies_tombstones_byte_identically(ray_session, tmp_path):
    import ray.data

    from flatnav_ray.pipelines.ingest import (
        compact,
        delete_documents,
        list_tombstone_files,
        open_session,
    )

    pages, queries = _corpus_and_queries(seed=33)
    dead = _mask_every(pages, 7, 3)
    live_pages = pages.filter(
        pc.invert(
            pc.is_in(pages.column("url"), value_set=dead.column("url").combine_chunks())
        )
    )
    cfg = IndexConfig(num_partitions=6)
    ix, ix_ref = str(tmp_path / "full"), str(tmp_path / "filtered")
    build_index(ray.data.from_arrow(pages), ix, cfg)
    build_index(ray.data.from_arrow(live_pages), ix_ref, cfg)
    delete_documents(ix, urls=dead.column("url").to_pylist())

    stats = compact(ix)
    assert stats["n_docs"] == len(live_pages)
    assert list_tombstone_files(ix) == []  # physically applied + cleared
    # segments equal the filtered rebuild's, posting for posting
    assert canonical_postings(ix).equals(canonical_postings(ix_ref))
    # open_session now returns the plain single-generation session
    sess = open_session(ix, num_actors=3)
    try:
        from flatnav_ray.stages.search import SearchSession

        assert type(sess) is SearchSession
        assert len(sess.search(queries, QueryConfig(k=10))) > 0
    finally:
        sess.shutdown()


def test_delete_then_readd_resurrects(ray_session, tmp_path):
    import ray.data

    from flatnav_ray.pipelines.ingest import add_documents, delete_documents, open_session

    pages, _ = _corpus_and_queries(seed=44, n=200)
    cfg = IndexConfig(num_partitions=4)
    ix = str(tmp_path / "ix")
    build_index(ray.data.from_arrow(pages), ix, cfg)
    row = pages.slice(0, 1)
    url = row.column("url")[0].as_py()
    delete_documents(ix, urls=[url])

    # deleted url is gone even for a term it uniquely matches
    readded = row.set_column(
        row.schema.get_field_index("html"),
        "html",
        pa.array([b"<html><body><p>zzzresurrect only</p></body></html>"], pa.binary()),
    )
    qq = pa.table({"query_id": pa.array([0], pa.int64()), "text": pa.array(["zzzresurrect"])})
    sess = open_session(ix, num_actors=2)
    try:
        assert len(sess.search(qq, QueryConfig(k=5))) == 0
    finally:
        sess.shutdown()

    # re-add as a stacked delta: the NEW generation is not covered by the
    # old tombstone -> the url is live again with its new text
    add_documents(ix, ray.data.from_arrow(readded), mode="stack")
    sess = open_session(ix, num_actors=2)
    try:
        hit = sess.search(qq, QueryConfig(k=5))
        assert len(hit) == 1 and hit.column("url")[0].as_py() == url
    finally:
        sess.shutdown()


def test_delete_by_query_matches_term_predicate(ray_session, tmp_path):
    import ray.data

    from flatnav_ray.functions.tokenize import tokenize_py
    from flatnav_ray.pipelines.ingest import delete_by_query, open_session
    from flatnav_ray.stages.search import SearchSession

    pages, queries = _corpus_and_queries(seed=55)
    # pick a term that actually occurs, from the first doc's text
    term = sorted(tokenize_py(pages.column("text")[0].as_py()))[0]
    keep_rows = [
        i for i, t in enumerate(pages.column("text").to_pylist())
        if term not in set(tokenize_py(t))
    ]
    live_pages = pages.take(pa.array(keep_rows))
    assert len(live_pages) < len(pages)

    cfg = IndexConfig(num_partitions=6)
    ix, ix_ref = str(tmp_path / "full"), str(tmp_path / "filtered")
    build_index(ray.data.from_arrow(pages), ix, cfg)
    build_index(ray.data.from_arrow(live_pages), ix_ref, cfg)
    n = delete_by_query(ix, term)
    assert n == len(pages) - len(live_pages)
    # idempotent: nothing left to match
    assert delete_by_query(ix, term) == 0

    sess = open_session(ix, num_actors=3)
    ref = SearchSession(ix_ref, num_actors=3)
    try:
        got = sess.search(queries, QueryConfig(k=10))
        want = ref.search(queries, QueryConfig(k=10))
        assert got.equals(want)
    finally:
        sess.shutdown()
        ref.shutdown()


def _live_rebuild(pages: pa.Table, dead_urls: list[str], ix: str, cfg) -> None:
    import ray.data

    live = pages.filter(
        pc.invert(pc.is_in(pages.column("url"), value_set=pa.array(dead_urls, pa.string())))
    )
    build_index(ray.data.from_arrow(live), ix, cfg)


def test_reopen_reuses_unchanged_segments(ray_session, tmp_path):
    """shutdown() + open_session is the reopen: the pooled actors keep their
    loaded files, so an add/delete cycle rereads only the new delta, while a
    compaction (every file rewritten) reuses nothing. Each reopen serves
    rank- and score-identically to a rebuild of the live corpus."""
    import ray.data

    from flatnav_ray.pipelines.ingest import add_documents, delete_documents, open_session
    from flatnav_ray.sources.synth import PagesGenerator
    from flatnav_ray.stages.search import SearchSession

    gen = PagesGenerator(seed=61, vocab_size=2000, mean_len=50, dup_rate=0.0)
    base, delta, delta2 = gen.chunk(0, 300), gen.chunk(1, 60), gen.chunk(2, 60)
    _, queries = _corpus_and_queries(seed=62)
    cfg = IndexConfig(num_partitions=4)
    ix = str(tmp_path / "ix")
    build_index(ray.data.from_arrow(base), ix, cfg)

    sess = open_session(ix, num_actors=2)
    assert (sess.files_loaded, sess.files_reused) == (4, 0)
    sess.shutdown()

    add_documents(ix, ray.data.from_arrow(delta), mode="stack")
    dead = base.column("url").to_pylist()[::9] + delta.column("url").to_pylist()[:3]
    delete_documents(ix, urls=dead)
    sess = open_session(ix, num_actors=2)
    # the base's 4 segments come from the pool; only the delta is read
    assert (sess.files_loaded, sess.files_reused) == (4, 4)
    ix_ref = str(tmp_path / "ref")
    _live_rebuild(pa.concat_tables([base, delta]), dead, ix_ref, cfg)
    ref = SearchSession(ix_ref, num_actors=2)
    try:
        assert sess.search(queries, QueryConfig(k=10)).equals(
            ref.search(queries, QueryConfig(k=10))
        )
    finally:
        sess.shutdown()
        ref.shutdown()

    # a stack of two plus one more add trips compact_threshold=2: the
    # compaction rewrites every file, so nothing may be reused
    add_documents(ix, ray.data.from_arrow(delta2), mode="stack", compact_threshold=2)
    sess = open_session(ix, num_actors=2)
    assert sess.files_reused == 0 and sess.files_loaded == 8
    ix_ref2 = str(tmp_path / "ref2")
    _live_rebuild(pa.concat_tables([base, delta, delta2]), dead, ix_ref2, cfg)
    ref = SearchSession(ix_ref2, num_actors=2)
    try:
        assert sess.search(queries, QueryConfig(k=10)).equals(
            ref.search(queries, QueryConfig(k=10))
        )
    finally:
        sess.shutdown()
        ref.shutdown()


def test_reopen_after_same_path_restore_serves_new_files(ray_session, tmp_path):
    """rmtree an index, then copytree a DIFFERENT index onto the same path
    with the old files' mtimes (copytree keeps mtimes, so a restored backup
    looks exactly like this): the reopen must serve the new files, not the
    pooled actors' copies of the old ones."""
    import os
    import shutil

    import ray.data

    from flatnav_ray.pipelines.ingest import open_session
    from flatnav_ray.sources.synth import PagesGenerator
    from flatnav_ray.stages.search import SearchSession

    gen = PagesGenerator(seed=71, vocab_size=2000, mean_len=50, dup_rate=0.0)
    _, queries = _corpus_and_queries(seed=72)
    cfg = IndexConfig(num_partitions=4)
    ix, other = str(tmp_path / "ix"), str(tmp_path / "other")
    build_index(ray.data.from_arrow(gen.chunk(0, 250)), ix, cfg)
    build_index(ray.data.from_arrow(gen.chunk(1, 250)), other, cfg)

    sess = open_session(ix, num_actors=2)
    sess.search(queries, QueryConfig(k=10))
    sess.shutdown()

    for root, _, files in os.walk(other):
        for f in files:
            old = os.path.join(ix, os.path.relpath(os.path.join(root, f), other))
            if os.path.exists(old):
                st = os.stat(old)
                os.utime(os.path.join(root, f), ns=(st.st_atime_ns, st.st_mtime_ns))
    shutil.rmtree(ix)
    shutil.copytree(other, ix)

    sess = open_session(ix, num_actors=2)
    ref = SearchSession(other, num_actors=2)
    try:
        assert sess.files_reused == 0
        assert sess.search(queries, QueryConfig(k=10)).equals(
            ref.search(queries, QueryConfig(k=10))
        )
    finally:
        sess.shutdown()
        ref.shutdown()


def test_oneshot_ops_refuse_stacked_or_tombstoned_index(ray_session, tmp_path):
    """One-shot ops read the base generation only: over a tombstoned or
    stacked index they must raise (naming open_session and compaction)
    instead of answering with deleted or missing documents. The CLI query
    command serves such an index through the session."""
    import ray.data
    import pyarrow.parquet as pq
    import pytest

    from flatnav_ray.cli import main
    from flatnav_ray.pipelines.ingest import add_documents, compact, delete_documents
    from flatnav_ray.pipelines.query import facet_counts, fetch_docs, search_to_table

    pages, queries = _corpus_and_queries(seed=66, n=240)
    ix = str(tmp_path / "ix")
    build_index(ray.data.from_arrow(pages.slice(0, 200)), ix, IndexConfig(num_partitions=4))
    winners = search_to_table(ix, queries, QueryConfig(k=10))
    dead = sorted(set(winners.column("url").to_pylist()))[:10]
    delete_documents(ix, urls=dead)

    def refused(call):
        with pytest.raises(ValueError, match="open_session.*compact"):
            call()

    refused(lambda: search_to_table(ix, queries, QueryConfig(k=10)))
    refused(lambda: facet_counts(ix, queries))
    refused(lambda: fetch_docs(ix, winners.column("doc_id").to_pylist()))

    qpath, out = str(tmp_path / "q.parquet"), str(tmp_path / "out.parquet")
    pq.write_table(queries, qpath)
    assert main(["query", "--index", ix, "--queries", qpath, "--out", out, "--k", "10"]) == 0
    got = pq.read_table(out)
    assert len(got) and not set(dead) & set(got.column("url").to_pylist())

    compact(ix)  # tombstones applied: one-shot ops serve the index again
    after = search_to_table(ix, queries, QueryConfig(k=10))
    assert not set(dead) & set(after.column("url").to_pylist())
    assert got.equals(after)

    add_documents(ix, ray.data.from_arrow(pages.slice(200)), mode="stack")
    refused(lambda: search_to_table(ix, queries, QueryConfig(k=10)))
