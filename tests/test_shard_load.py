"""Cold shard load.

`_ShardState.__init__` reads only the segment columns serving uses (`term`,
`df`, `doc_blob`, `tf_blob`: a posting list is its df and its two blobs)
and builds its dictionary (`_terms_list`, `term_row`, `_terms_arr`) from
the Arrow term column without one Python scalar per term. These tests pin
that the dictionary equals the `to_pylist()`-built reference for filtered
and unfiltered loads of a base and of a stacked delta; that an index whose
segments hold only those four columns (no block lists at all) serves the
same answers one-shot, through a session, through `rescore_topk` and
through `explain_to_table`; and that the build map hashes a url column as
Arrow to the same doc_ids as the Python list of its urls.
"""

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.functions.hashes import doc_ids_for_urls
from flatnav_ray.functions.tokenize import tokenize_py
from flatnav_ray.pipelines.build import build_index, prepare_batch
from flatnav_ray.pipelines.ingest import list_generations
from flatnav_ray.stages.build import SEGMENT_SCHEMA, segment_path
from flatnav_ray.stages.search import _ShardState

VOCAB = 1200
PARTS = 3
READ_COLUMNS = ["term", "df", "doc_blob", "tf_blob"]


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    """A clean base index, and a stack (the same base + one delta that
    re-adds some base urls + tombstones); each also as a copy whose
    segments were rewritten with only `READ_COLUMNS`."""
    import ray.data

    from flatnav_ray.pipelines.ingest import add_documents, delete_documents
    from flatnav_ray.sources.synth import PagesGenerator, queries_table

    root = tmp_path_factory.mktemp("shard_load")
    gen = PagesGenerator(seed=71, vocab_size=VOCAB, mean_len=40, dup_rate=0.0)
    a, b = gen.chunk(0, 300), gen.chunk(1, 80)
    cfg = IndexConfig(num_partitions=PARTS)
    base, stack = str(root / "base"), str(root / "stack")
    build_index(ray.data.from_arrow(a), base, cfg)
    shutil.copytree(base, stack)
    add_documents(stack, ray.data.from_arrow(pa.concat_tables([a.slice(0, 30), b])), mode="stack")
    delete_documents(stack, urls=a.column("url").to_pylist()[50:80])

    stripped = {}
    for name, ix in (("base", base), ("stack", stack)):
        out = stripped[name] = str(root / f"{name}-stripped")
        shutil.copytree(ix, out)
        segs = glob.glob(os.path.join(out, "**", "segments", "part-*.parquet"), recursive=True)
        assert len(segs) == PARTS * (1 if name == "base" else 2)
        for p in segs:
            t = pq.read_table(p)
            assert t.schema.equals(SEGMENT_SCHEMA)
            pq.write_table(t.select(READ_COLUMNS), p)

    q = queries_table(20, seed=72, vocab_size=VOCAB)
    texts = q.column("text").to_pylist()
    texts[0] += " zzqxjv"  # a term in no document
    q = q.set_column(1, "text", pa.array(texts, type=pa.string()))
    return {"base": base, "stack": stack, "stripped": stripped, "queries": q}


def _filter_terms(ix, q):
    """The queries' terms (one absent) plus a slice of the vocabulary."""
    terms = {t for x in q.column("text").to_pylist() for t in tokenize_py(x)}
    vocab = pq.read_table(segment_path(ix, 0), columns=["term"]).column("term").to_pylist()
    return sorted(terms | set(vocab[::17]))


@pytest.mark.parametrize("which", ["base", "stack"])
@pytest.mark.parametrize("filtered", [False, True])
def test_loaded_dictionary_equals_pylist_reference(indexes, which, filtered):
    gens = list_generations(indexes[which])
    assert len(gens) == (1 if which == "base" else 2)
    terms = _filter_terms(gens[0], indexes["queries"]) if filtered else None
    for g in gens:
        for p in range(PARTS):
            filters = [("term", "in", terms)] if filtered else None
            ref = pq.read_table(segment_path(g, p), filters=filters).column("term").to_pylist()
            assert ref, "an empty load would pin nothing"
            st = _ShardState(g, p, 128, terms_filter=terms)
            assert st._terms_list == ref
            assert all(type(t) is str for t in st._terms_list)
            assert st.term_row == {t: i for i, t in enumerate(ref)}
            assert st._terms_arr.to_pylist() == ref
            # with_dead_ids shares the loaded dictionary
            twin = st.with_dead_ids(np.asarray(st.docmap_ids[:3]))
            assert twin._terms_arr is st._terms_arr and twin.term_row is st.term_row


def test_wildcard_scans_read_the_loaded_term_column(indexes):
    import re

    st = _ShardState(indexes["base"], 0, 128)
    infix = st._terms_list[len(st._terms_list) // 2][1:3]
    rows = [i for i, t in enumerate(st._terms_list) if infix in t]
    want = st._postings_union_count(rows)
    assert want > 0 and st.substr_doc_count(infix) == want
    rows = [i for i, t in enumerate(st._terms_list) if re.search(f"^{infix}", t)]
    assert st.regex_doc_count(f"^{infix}") == st._postings_union_count(rows)


CASES = {
    "maxscore": QueryConfig(k=10),
    "wand": QueryConfig(k=10, method="wand"),
    "and": QueryConfig(k=10, method="and"),
    "msm": QueryConfig(k=10, min_should_match=2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_segments_without_block_max_columns_serve_one_shot(indexes, case):
    from flatnav_ray.pipelines.query import search_to_table

    cfg, q = CASES[case], indexes["queries"]
    want = search_to_table(indexes["base"], q, cfg)
    got = search_to_table(indexes["stripped"]["base"], q, cfg)
    assert want.num_rows > 0
    assert got.equals(want)


@pytest.mark.parametrize("which", ["base", "stack"])
def test_segments_without_block_max_columns_serve_a_session(indexes, which):
    from flatnav_ray.pipelines.ingest import open_session

    q = indexes["queries"]
    out = []
    for ix in (indexes[which], indexes["stripped"][which]):
        sess = open_session(ix, num_actors=2)
        try:
            out.append([sess.search(q, cfg) for cfg in CASES.values()])
        finally:
            sess.shutdown()
    assert all(t.num_rows > 0 for t in out[0])
    for want, got in zip(*out):
        assert got.equals(want)


@pytest.mark.parametrize("rescore_scorer", ["tfidf", "lmd"])
def test_segments_without_block_columns_rescore(indexes, rescore_scorer):
    from flatnav_ray.pipelines.query import rescore_topk

    q = indexes["queries"]
    want, got = (rescore_topk(ix, q, k=5, window=15, rescore_scorer=rescore_scorer)
                 for ix in (indexes["base"], indexes["stripped"]["base"]))
    assert want.num_rows > 0
    assert got.equals(want)


def test_segments_without_block_columns_explain(indexes):
    from flatnav_ray.pipelines.query import explain_to_table

    q = indexes["queries"]
    want, got = (explain_to_table(ix, q, QueryConfig(k=5))
                 for ix in (indexes["base"], indexes["stripped"]["base"]))
    assert want.num_rows > 0
    assert got.equals(want)


def _urls():
    return [
        "https://example.com/a",
        "https://bücher.example/straße?q=ü",
        "https://例え.jp/パス/1",
        "https://example.org/emoji/🚀",
        "",
        "https://example.com/" + "x" * 300,
        "http://xn--bcher-kva.example/b",
    ] + [f"https://h{i}.example/p/{i * 7919}" for i in range(40)]


def test_doc_ids_for_urls_same_for_chunked_plain_and_list():
    urls = _urls()
    want = doc_ids_for_urls(urls)
    plain = pa.array(urls, type=pa.string())
    chunked = pa.chunked_array([plain.slice(0, 5), plain.slice(5, 20), plain.slice(25)])
    assert np.array_equal(doc_ids_for_urls(plain), want)
    assert np.array_equal(doc_ids_for_urls(chunked), want)
    assert np.array_equal(doc_ids_for_urls(pa.array(urls, type=pa.large_string())), want)
    # a slice with a nonzero offset
    assert np.array_equal(doc_ids_for_urls(plain.slice(3, 10)), want[3:13])


def test_prepare_batch_doc_ids_equal_the_url_list_hash():
    from flatnav_ray.sources.synth import pages_table

    pages = pages_table(30, seed=5, vocab_size=200, mean_len=10)
    urls = _urls()[:30]
    pages = pages.set_column(
        pages.column_names.index("url"), "url", pa.array(urls, type=pa.string())
    )
    batch = pa.concat_tables([pages.slice(0, 11), pages.slice(11)])
    assert batch.column("url").num_chunks == 2
    out = prepare_batch(batch, PARTS, None)
    assert np.array_equal(
        out.column("doc_id").to_numpy(), doc_ids_for_urls(urls).astype(np.int64)
    )
