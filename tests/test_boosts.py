"""Per-term query boosts (Lucene term^boost): the boost multiplies a term's
score contribution AFTER tf saturation. Exactness properties tested:

* boost {} / missing terms == plain search (no silent rescale)
* single-term boost c: scores == c * plain scores elementwise, ranks equal
* two-term boost == ordered sum of stream1 + c * stream2 (exact doubles)
* SearchSession parity; validation on unsupported methods / synonym combo
"""

import numpy as np
import pyarrow as pa
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.functions.tokenize import tokenize_py
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.pipelines.query import search_to_table


@pytest.fixture(scope="module")
def boost_index(ray_session, small_corpus, tmp_path_factory):
    import ray.data

    pages, queries = small_corpus
    ix = str(tmp_path_factory.mktemp("ixboost") / "main")
    build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=6))
    return ix, queries


class TestBoosts:
    def test_empty_boost_is_plain(self, boost_index):
        ix, queries = boost_index
        a = search_to_table(ix, queries, QueryConfig(k=10, boosts={}))
        b = search_to_table(ix, queries, QueryConfig(k=10))
        assert a.equals(b)

    def test_single_term_boost_scales_scores_exactly(self, boost_index):
        ix, queries = boost_index
        # SINGLE-token queries only: for multi-term queries c*(s1+s2) !=
        # c*s1 + c*s2 in floats — the distributive check is only exact
        # when there is exactly one stream
        terms = sorted(
            {t for q in queries.column("text").to_pylist() for t in tokenize_py(q)}
        )[:10]
        q1 = pa.table(
            {
                "query_id": pa.array(np.arange(len(terms), dtype=np.int64)),
                "text": pa.array(terms, type=pa.string()),
            }
        )
        c = 2.5
        boosted = search_to_table(ix, q1, QueryConfig(k=10, boosts={t: c for t in terms}))
        plain = search_to_table(ix, q1, QueryConfig(k=10))
        assert boosted.column("doc_id").to_pylist() == plain.column("doc_id").to_pylist()
        # single-term queries: boosted score must be exactly c * plain
        # (one float multiply rides the existing qtf path)
        got = boosted.column("score").to_numpy()
        want = c * plain.column("score").to_numpy()
        np.testing.assert_array_equal(got, want)

    def test_two_term_boost_is_stream_sum(self, boost_index):
        """score(q = 'a b', boost b->3) == score_a + 3*score_b per doc."""
        ix, queries = boost_index
        texts = queries.column("text").to_pylist()
        toks = sorted({t for q in texts for t in tokenize_py(q)})
        a, b = toks[0], toks[1]
        q = pa.table(
            {"query_id": pa.array([0], type=pa.int64()),
             "text": pa.array([f"{a} {b}"], type=pa.string())}
        )
        big_k = 10_000
        boosted = search_to_table(ix, q, QueryConfig(k=big_k, boosts={b: 3.0}))
        sa = search_to_table(
            ix, q.set_column(1, "text", pa.array([a], type=pa.string())),
            QueryConfig(k=big_k),
        )
        sb = search_to_table(
            ix, q.set_column(1, "text", pa.array([b], type=pa.string())),
            QueryConfig(k=big_k),
        )
        da = dict(zip(sa.column("doc_id").to_pylist(), sa.column("score").to_pylist()))
        db = dict(zip(sb.column("doc_id").to_pylist(), sb.column("score").to_pylist()))
        for d, s in zip(boosted.column("doc_id").to_pylist(), boosted.column("score").to_pylist()):
            want = da.get(d, 0.0) + 3.0 * db.get(d, 0.0)
            assert s == want, (d, s, want)

    def test_session_parity(self, boost_index):
        from flatnav_ray.stages.search import SearchSession

        ix, queries = boost_index
        q1 = queries.slice(0, 6)
        terms = sorted({t for q in q1.column("text").to_pylist() for t in tokenize_py(q)})
        cfg = QueryConfig(k=10, boosts={terms[0]: 4.0, terms[1]: 0.5})
        ds_out = search_to_table(ix, q1, cfg)
        sess = SearchSession(ix, num_actors=2)
        try:
            sess_out = sess.search(q1, cfg)
        finally:
            sess.shutdown()
        key = [("query_id", "ascending"), ("rank", "ascending")]
        assert ds_out.sort_by(key).equals(sess_out.select(ds_out.column_names).sort_by(key))

    def test_validation(self, boost_index):
        ix, queries = boost_index
        with pytest.raises(ValueError, match="boosts"):
            search_to_table(ix, queries, QueryConfig(k=5, boosts={"a": 2.0}, method="and"))
        with pytest.raises(ValueError, match="boosts cannot combine"):
            search_to_table(
                ix, queries,
                QueryConfig(k=5, boosts={"a": 2.0}, synonyms={"a": ("b",)}),
            )
