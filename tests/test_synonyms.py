"""Query-time synonym groups (Lucene SynonymQuery semantics).

A synonym group scores as ONE pseudo-term over the union of its members'
postings: per-doc tf = sum of member tfs, df = max of member global dfs, BM25
saturation applied once to the pooled tf. This is semantically distinct from
a disjunction (bm25_topk_multi / fuzzy), where each term saturates alone.

Oracle here is a direct Python reimplementation over the deduped corpus;
the driver adds the DuckDB hash check (bm25_topk_synonyms)."""

import math
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.functions.tokenize import tokenize_py
from flatnav_ray.pipelines.build import build_index, prepare_batch
from flatnav_ray.pipelines.query import search_to_table
from flatnav_ray.stages.build import dedup_latest

K1, B = 1.2, 0.75


def _syn_oracle(docs: pa.Table, queries: pa.Table, synonyms: dict, k: int = 10):
    """Group-scored BM25: tf pooled over the group, df = max member df."""
    doc_ids = docs.column("doc_id").to_pylist()
    texts = docs.column("text").to_pylist()
    tfs: dict[int, Counter] = {}
    dls: dict[int, int] = {}
    df: Counter = Counter()
    for d, t in zip(doc_ids, texts):
        toks = tokenize_py(t)
        c = Counter(toks)
        tfs[d] = c
        dls[d] = len(toks)
        for term in c:
            df[term] += 1
    n = len(doc_ids)
    avgdl = sum(dls.values()) / n
    rows = []
    for qid, qtext in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        gcounts: dict[tuple, int] = {}
        for tok in tokenize_py(qtext):
            grp = tuple(sorted({tok, *synonyms.get(tok, ())}))
            gcounts[grp] = gcounts.get(grp, 0) + 1
        scores: dict[int, float] = {}
        for grp, qtf in sorted(gcounts.items()):
            df_g = max(df.get(m, 0) for m in grp)
            if df_g == 0:
                continue
            w = math.log(1.0 + (n - df_g + 0.5) / (df_g + 0.5))
            for d in doc_ids:
                tf = float(sum(tfs[d].get(m, 0) for m in grp))
                if tf == 0:
                    continue
                contrib = w * (tf * (K1 + 1.0)) / (
                    tf + K1 * (1.0 - B + B * dls[d] / avgdl)
                )
                scores[d] = scores.get(d, 0.0) + (contrib if qtf == 1 else qtf * contrib)
        top = sorted(scores.items(), key=lambda x: (-x[1], x[0]))[:k]
        for r, (d, s) in enumerate(top):
            rows.append((qid, r, d, s))
    return rows


@pytest.fixture(scope="module")
def syn_index(ray_session, small_corpus, tmp_path_factory):
    import ray.data

    pages, queries = small_corpus
    ix = str(tmp_path_factory.mktemp("ixsyn") / "main")
    build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=6))
    deduped = dedup_latest(prepare_batch(pages, 6, None))
    return ix, deduped.select(["doc_id", "text"]), queries


class TestSynonymGroups:
    def test_group_scoring_matches_python_oracle(self, syn_index):
        ix, docs, queries = syn_index
        # deterministic synonym map: pair each query's first token with a
        # mid-frequency corpus term (and one multi-synonym group)
        toks = sorted({t for q in queries.column("text").to_pylist() for t in tokenize_py(q)})
        syn = {}
        for i, t in enumerate(toks):
            partner = toks[(i + 7) % len(toks)]
            if partner != t:
                syn[t] = (partner,)
        if len(toks) >= 3:  # one 3-member group exercises multi-way pooling
            syn[toks[0]] = tuple(sorted({toks[1], toks[2]} - {toks[0]}))
        out = search_to_table(ix, queries, QueryConfig(k=10, synonyms=syn))
        got = list(
            zip(
                out.column("query_id").to_pylist(),
                out.column("rank").to_pylist(),
                out.column("doc_id").to_pylist(),
                out.column("score").to_pylist(),
            )
        )
        want = _syn_oracle(docs, queries, syn, k=10)
        assert [g[:3] for g in got] == [w[:3] for w in want]
        np.testing.assert_allclose(
            [g[3] for g in got], [w[3] for w in want], rtol=0, atol=1e-12
        )

    def test_group_differs_from_disjunction(self, syn_index):
        """Pooled-tf saturation must NOT equal the two-term disjunction —
        if it did, the feature would be bm25_topk_multi in disguise."""
        ix, docs, queries = syn_index
        q1 = queries.slice(0, 8)
        toks = sorted({t for t in tokenize_py(" ".join(q1.column("text").to_pylist()))})
        syn = {t: (toks[(i + 3) % len(toks)],) for i, t in enumerate(toks) if toks[(i + 3) % len(toks)] != t}
        grouped = search_to_table(ix, q1, QueryConfig(k=10, synonyms=syn))
        # disjunction: same term sets, but each term scored independently
        two_term = pa.table(
            {
                "query_id": q1.column("query_id"),
                "text": pa.array(
                    [
                        " ".join(
                            sorted(
                                {
                                    *tokenize_py(txt),
                                    *[s for t in tokenize_py(txt) for s in syn.get(t, ())],
                                }
                            )
                        )
                        for txt in q1.column("text").to_pylist()
                    ],
                    type=pa.string(),
                ),
            }
        )
        plain = search_to_table(ix, two_term, QueryConfig(k=10))
        assert grouped.column("score").to_pylist() != plain.column("score").to_pylist()

    def test_empty_synonym_map_is_plain_search(self, syn_index):
        ix, docs, queries = syn_index
        a = search_to_table(ix, queries, QueryConfig(k=10, synonyms={}))
        b = search_to_table(ix, queries, QueryConfig(k=10))
        assert a.equals(b)

    def test_absent_token_matches_via_synonym(self, syn_index):
        """A token absent from the corpus still retrieves docs through its
        synonym (group df = max member df > 0)."""
        ix, docs, queries = syn_index
        real = tokenize_py(queries.column("text")[0].as_py())[0]
        q = pa.table(
            {"query_id": pa.array([0], type=pa.int64()),
             "text": pa.array(["zzzqqqabsenttoken"], type=pa.string())}
        )
        out = search_to_table(ix, q, QueryConfig(k=10, synonyms={"zzzqqqabsenttoken": (real,)}))
        assert len(out) > 0
        # scores equal the plain single-term search for `real` (same df, same tf)
        plain = search_to_table(
            ix, q.set_column(1, "text", pa.array([real], type=pa.string())), QueryConfig(k=10)
        )
        assert out.column("doc_id").to_pylist() == plain.column("doc_id").to_pylist()
        np.testing.assert_allclose(
            out.column("score").to_numpy(), plain.column("score").to_numpy(), rtol=0, atol=0
        )

    def test_session_parity(self, syn_index):
        """Warm SearchSession serving == dataset-mode serving under synonyms."""
        from flatnav_ray.stages.search import SearchSession

        ix, docs, queries = syn_index
        q1 = queries.slice(0, 6)
        toks = sorted({t for q in q1.column("text").to_pylist() for t in tokenize_py(q)})
        syn = {toks[i]: (toks[(i + 5) % len(toks)],) for i in range(len(toks))
               if toks[(i + 5) % len(toks)] != toks[i]}
        cfg = QueryConfig(k=10, synonyms=syn)
        ds_out = search_to_table(ix, q1, cfg)
        sess = SearchSession(ix, num_actors=2)
        try:
            sess_out = sess.search(q1, cfg)
        finally:
            sess.shutdown()
        key = [("query_id", "ascending"), ("rank", "ascending")]
        assert ds_out.sort_by(key).equals(sess_out.select(ds_out.column_names).sort_by(key))

    def test_validation(self, syn_index):
        ix, docs, queries = syn_index
        with pytest.raises(ValueError, match="synonyms"):
            search_to_table(ix, queries, QueryConfig(k=5, synonyms={"a": ("b",)}, method="and"))
        with pytest.raises(ValueError, match="synonyms"):
            search_to_table(
                ix, queries, QueryConfig(k=5, synonyms={"a": ("b",)}, fuzzy_max_edits=1)
            )
        q_must = queries.slice(0, 2).append_column(
            "must_text", pa.array(["x", "y"], type=pa.string())
        )
        with pytest.raises(ValueError, match="synonyms cannot combine"):
            search_to_table(ix, q_must, QueryConfig(k=5, synonyms={"a": ("b",)}))
