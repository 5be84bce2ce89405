"""Lucene `explain` analog: per (query, result doc, term) contribution rows.

The core invariant: summing a doc's contribution rows in lexicographic term
order reproduces its search score BIT-FOR-BIT (each row is exactly the addend
the search accumulated, boost included)."""

import numpy as np
import pyarrow as pa
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.pipelines.query import explain_to_table, search_to_table


@pytest.fixture(scope="module")
def exp_index(ray_session, small_corpus, tmp_path_factory):
    import ray.data

    pages, queries = small_corpus
    ix = str(tmp_path_factory.mktemp("ixexp") / "main")
    build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=6))
    return ix, queries


def _sum_matches_scores(explain: pa.Table, results: pa.Table) -> None:
    want = {
        (q, d): s
        for q, d, s in zip(
            results.column("query_id").to_pylist(),
            results.column("doc_id").to_pylist(),
            results.column("score").to_pylist(),
        )
    }
    got: dict[tuple, float] = {}
    # rows are sorted (query_id, doc_id, term): the fold below IS the
    # engine's pinned lexicographic accumulation
    for q, d, c in zip(
        explain.column("query_id").to_pylist(),
        explain.column("doc_id").to_pylist(),
        explain.column("contribution").to_pylist(),
    ):
        got[(q, d)] = got.get((q, d), 0.0) + c
    assert set(got) == set(want)
    for k, v in want.items():
        assert got[k] == v, (k, got[k], v)


class TestExplain:
    def test_contributions_sum_to_score_exactly(self, exp_index):
        ix, queries = exp_index
        cfg = QueryConfig(k=10)
        results = search_to_table(ix, queries, cfg)
        explain = explain_to_table(ix, queries, cfg)
        _sum_matches_scores(explain, results)
        # wand names the same scoring loop
        assert explain_to_table(ix, queries, QueryConfig(k=10, method="wand")).equals(explain)

    def test_boosted_contributions_sum_to_score(self, exp_index):
        from flatnav_ray.functions.tokenize import tokenize_py

        ix, queries = exp_index
        terms = sorted(
            {t for q in queries.column("text").to_pylist() for t in tokenize_py(q)}
        )
        cfg = QueryConfig(k=10, boosts={terms[0]: 3.0, terms[1]: 0.25})
        results = search_to_table(ix, queries, cfg)
        explain = explain_to_table(ix, queries, cfg)
        _sum_matches_scores(explain, results)

    def test_df_column_is_global(self, exp_index):
        """df in explain rows equals the corpus-wide df used for idf."""
        from flatnav_ray.pipelines.query import _plan

        ix, queries = exp_index
        explain = explain_to_table(ix, queries, QueryConfig(k=5))
        plan, _ = _plan(ix, queries, 5)
        for t, df in zip(
            explain.column("term").to_pylist(), explain.column("df").to_pylist()
        ):
            assert df == plan.term_df[t]

    def test_validation(self, exp_index):
        ix, queries = exp_index
        with pytest.raises(ValueError, match="explain"):
            explain_to_table(ix, queries, QueryConfig(k=5, method="and"))
        with pytest.raises(ValueError, match="explain"):
            explain_to_table(ix, queries, QueryConfig(k=5, fuzzy_max_edits=1))
        q_neg = queries.slice(0, 2).append_column(
            "neg_text", pa.array(["x", "y"], type=pa.string())
        )
        with pytest.raises(ValueError, match="neg_text"):
            explain_to_table(ix, q_neg, QueryConfig(k=5))
