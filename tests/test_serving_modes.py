"""Serving-surface modes added in round 3: pagination (offset), negation
(exclude terms), infix wildcard scans, fuzzy (edit-distance-1) matching and
more-like-this — each checked against a brute-force / sliced oracle.

Reference bar: exact-equality result checks across query matrices
(/root/reference/python-bindings/unit_tests/test_serialization.cpp:64-75).
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.pipelines.query import search_to_table


@pytest.fixture(scope="module")
def built_index(ray_session, small_corpus, tmp_path_factory):
    import ray.data

    pages, queries = small_corpus
    ix = str(tmp_path_factory.mktemp("ix") / "serving")
    build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=8))
    return ix, pages, queries


class TestPagination:
    def test_page_equals_sliced_deep_search(self, built_index):
        """offset=10,k=10 returns EXACTLY ranks 10..19 of a deeper search —
        same global rank numbers, rows bit-identical."""
        ix, _, queries = built_index
        deep = search_to_table(ix, queries, QueryConfig(k=25))
        page = search_to_table(ix, queries, QueryConfig(k=10, offset=10))
        want = deep.filter(
            pc.and_(
                pc.greater_equal(deep.column("rank"), 10),
                pc.less(deep.column("rank"), 20),
            )
        )
        assert page.equals(want)

    def test_offset_zero_is_identity(self, built_index):
        ix, _, queries = built_index
        a = search_to_table(ix, queries, QueryConfig(k=10))
        b = search_to_table(ix, queries, QueryConfig(k=10, offset=0))
        assert a.equals(b)

    def test_session_pagination_equals_dataset_path(self, built_index):
        from flatnav_ray.stages.search import SearchSession

        ix, _, queries = built_index
        want = search_to_table(ix, queries, QueryConfig(k=10, offset=10))
        sess = SearchSession(ix, num_actors=2)
        try:
            got = sess.search(queries, QueryConfig(k=10, offset=10))
        finally:
            sess.shutdown()
        assert got.column("query_id").to_pylist() == want.column("query_id").to_pylist()
        assert got.column("rank").to_pylist() == want.column("rank").to_pylist()
        assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), want.column("score").to_numpy()
        )

    def test_offset_past_match_set_yields_empty(self, built_index):
        """A page beyond the last match returns no rows for that query (the
        SQL `rank >= offset` semantics), never an error."""
        ix, _, queries = built_index
        out = search_to_table(ix, queries, QueryConfig(k=10, offset=100_000))
        assert len(out) == 0


class TestCursorPagination:
    def test_after_cursor_equals_renumbered_page2(self, built_index):
        """search_after with each query's rank-9 (score, doc_id) cursor
        returns EXACTLY ranks 10..19 of a deep search, renumbered 0..9."""
        ix, _, queries = built_index
        first = search_to_table(ix, queries, QueryConfig(k=10))
        nine = first.filter(pc.equal(first.column("rank"), 9)).sort_by("query_id")
        have = set(nine.column("query_id").to_pylist())
        qs = queries.filter(
            pc.is_in(queries.column("query_id"), value_set=nine.column("query_id"))
        ).sort_by("query_id")
        qs = qs.append_column("after_score", nine.column("score")).append_column(
            "after_doc", nine.column("doc_id")
        )
        got = search_to_table(ix, qs, QueryConfig(k=10))
        deep = search_to_table(ix, queries, QueryConfig(k=20))
        qd = deep.column("query_id").to_pylist()
        rd = deep.column("rank").to_pylist()
        want = deep.filter(
            pa.array([q in have and 10 <= r < 20 for q, r in zip(qd, rd)])
        )
        assert got.column("query_id").to_pylist() == want.column("query_id").to_pylist()
        assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
        assert got.column("rank").to_pylist() == [
            r - 10 for r in want.column("rank").to_pylist()
        ]
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), want.column("score").to_numpy()
        )

    def test_null_cursor_is_page_one(self, built_index):
        """A NULL cursor row behaves exactly like an un-cursored query."""
        ix, _, queries = built_index
        qs = queries.slice(0, 3)
        qs2 = qs.append_column(
            "after_score", pa.array([None] * 3, type=pa.float64())
        ).append_column("after_doc", pa.array([None] * 3, type=pa.int64()))
        a = search_to_table(ix, qs, QueryConfig(k=10))
        b = search_to_table(ix, qs2, QueryConfig(k=10))
        assert a.equals(b)

    def test_session_cursor_equals_dataset_path(self, built_index):
        from flatnav_ray.stages.search import SearchSession

        ix, _, queries = built_index
        first = search_to_table(ix, queries, QueryConfig(k=10))
        nine = first.filter(pc.equal(first.column("rank"), 9)).sort_by("query_id")
        qs = queries.filter(
            pc.is_in(queries.column("query_id"), value_set=nine.column("query_id"))
        ).sort_by("query_id")
        qs = qs.append_column("after_score", nine.column("score")).append_column(
            "after_doc", nine.column("doc_id")
        )
        want = search_to_table(ix, qs, QueryConfig(k=10))
        sess = SearchSession(ix, num_actors=2)
        try:
            got = sess.search(qs, QueryConfig(k=10))
        finally:
            sess.shutdown()
        assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), want.column("score").to_numpy()
        )


def _doc_tokens(pages):
    """doc_id -> token set over the deduped corpus (the python-side oracle)."""
    from flatnav_ray.functions.tokenize import tokenize_py
    from flatnav_ray.pipelines.build import prepare_batch
    from flatnav_ray.stages.build import dedup_latest

    d = dedup_latest(prepare_batch(pages, 8, None))
    return {
        int(i): set(tokenize_py(t))
        for i, t in zip(d.column("doc_id").to_pylist(), d.column("text").to_pylist())
    }


class TestNegation:
    def _neg_queries(self, pages):
        """Positive = two frequent corpus terms, negative = two others."""
        toks = _doc_tokens(pages)
        from collections import Counter

        df = Counter(t for s in toks.values() for t in s)
        top = [t for t, _ in df.most_common(4)]
        qs = pa.table(
            {
                "query_id": pa.array([0, 1], type=pa.int64()),
                "text": pa.array([top[0], top[1]], type=pa.string()),
                "neg_text": pa.array([top[2], top[3]], type=pa.string()),
            }
        )
        return qs, toks, top

    def test_negation_matches_filtered_oracle(self, built_index):
        """Exclusion drops exactly the docs containing the negated term;
        survivor scores are bit-identical to the un-negated search."""
        ix, pages, _ = built_index
        qs, toks, top = self._neg_queries(pages)
        got = search_to_table(ix, qs, QueryConfig(k=10))
        full = search_to_table(
            ix, qs.select(["query_id", "text"]), QueryConfig(k=len(toks))
        )
        rows = []
        for qi, neg in ((0, top[2]), (1, top[3])):
            sub = full.filter(pc.equal(full.column("query_id"), qi))
            kept = [
                (d, s)
                for d, s in zip(
                    sub.column("doc_id").to_pylist(), sub.column("score").to_pylist()
                )
                if neg not in toks[int(d)]
            ][:10]
            rows.extend((qi, r, d, s) for r, (d, s) in enumerate(kept))
        assert got.column("query_id").to_pylist() == [r[0] for r in rows]
        assert got.column("rank").to_pylist() == [r[1] for r in rows]
        assert got.column("doc_id").to_pylist() == [r[2] for r in rows]
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), np.array([r[3] for r in rows])
        )

    def test_session_negation_equals_dataset_path(self, built_index):
        from flatnav_ray.stages.search import SearchSession

        ix, pages, _ = built_index
        qs, _, _ = self._neg_queries(pages)
        want = search_to_table(ix, qs, QueryConfig(k=10))
        sess = SearchSession(ix, num_actors=2)
        try:
            got = sess.search(qs, QueryConfig(k=10))
        finally:
            sess.shutdown()
        assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), want.column("score").to_numpy()
        )

    def test_negating_the_query_term_itself_empties(self, built_index):
        """text == neg_text excludes every match."""
        ix, pages, _ = built_index
        qs, _, top = self._neg_queries(pages)
        qs2 = qs.set_column(2, "neg_text", qs.column("text"))
        out = search_to_table(ix, qs2, QueryConfig(k=10))
        assert len(out) == 0

    def test_negation_rejected_on_unsupported_methods(self, built_index):
        ix, pages, _ = built_index
        qs, _, _ = self._neg_queries(pages)
        with pytest.raises(Exception, match="exclude terms"):
            search_to_table(ix, qs, QueryConfig(k=10, method="and"))


class TestInfixWildcard:
    def test_infix_counts_match_python_oracle(self, built_index):
        """*term* scan: per infix, docs containing ANY term that contains it
        — counted independently in python over the deduped corpus."""
        from flatnav_ray.pipelines.query import prefix_doc_counts

        ix, pages, _ = built_index
        toks = _doc_tokens(pages)
        vocab = sorted({t for s in toks.values() for t in s})
        infixes = [vocab[0][1:4], vocab[len(vocab) // 2][1:4], "zzzzzz"]
        got = prefix_doc_counts(ix, infixes, mode="infix")
        want = {
            qi: sum(1 for s in toks.values() if any(inf in t for t in s))
            for qi, inf in enumerate(infixes)
        }
        want = {qi: n for qi, n in want.items() if n > 0}  # SQL join drops 0s
        assert dict(
            zip(got.column("query_id").to_pylist(), got.column("n_docs").to_pylist())
        ) == want

class TestFuzzy:
    def test_matcher_exact_vs_dp_levenshtein(self):
        """The lcp+lcs closed form equals DP Levenshtein <= 1 over a random
        dense vocabulary (small alphabet maximizes near-collisions)."""
        import random

        from flatnav_ray.functions.fuzzy import Edit1Matcher

        def lev(a, b):
            m, n = len(a), len(b)
            dp = list(range(n + 1))
            for i in range(1, m + 1):
                prev, dp[0] = dp[0], i
                for j in range(1, n + 1):
                    cur = dp[j]
                    dp[j] = min(dp[j] + 1, dp[j - 1] + 1, prev + (a[i - 1] != b[j - 1]))
                    prev = cur
            return dp[n]

        rng = random.Random(11)
        vocab = sorted(
            {"".join(rng.choice("abc") for _ in range(rng.randint(1, 5))) for _ in range(300)}
        )
        m = Edit1Matcher(vocab)
        for q in vocab[:60] + ["", "zzz", "abcab", "aa"]:
            assert set(m.candidates(q)) == {t for t in vocab if lev(q, t) <= 1}, q

    def test_fuzzy_equals_manual_expansion(self, built_index):
        """fuzzy_max_edits=1 is bit-identical to searching the expanded
        disjunction spelled out as a plain multi-term query."""
        from flatnav_ray.functions.fuzzy import fuzzy_expand_terms

        ix, pages, _ = built_index
        toks = _doc_tokens(pages)
        from collections import Counter

        df = Counter(t for s in toks.values() for t in s)
        qterm = df.most_common(1)[0][0]
        exp = sorted(fuzzy_expand_terms(ix, [qterm])[qterm])
        assert qterm in exp  # the exact term always matches itself
        qs = pa.table(
            {"query_id": pa.array([0], type=pa.int64()),
             "text": pa.array([qterm], type=pa.string())}
        )
        got = search_to_table(ix, qs, QueryConfig(k=10, fuzzy_max_edits=1))
        manual = pa.table(
            {"query_id": pa.array([0], type=pa.int64()),
             "text": pa.array([" ".join(exp)], type=pa.string())}
        )
        want = search_to_table(ix, manual, QueryConfig(k=10))
        assert got.equals(want)

    def test_fuzzy_expansion_matches_python_oracle(self, built_index):
        """Distributed expansion over term_stats == brute-force python
        Levenshtein over the corpus vocabulary."""
        from flatnav_ray.functions.fuzzy import fuzzy_expand_terms

        ix, pages, _ = built_index
        toks = _doc_tokens(pages)
        vocab = sorted({t for s in toks.values() for t in s})
        probes = [vocab[0], vocab[len(vocab) // 2], vocab[-1], "nosuchterm"]
        got = fuzzy_expand_terms(ix, probes)

        def lev(a, b):
            m, n = len(a), len(b)
            dp = list(range(n + 1))
            for i in range(1, m + 1):
                prev, dp[0] = dp[0], i
                for j in range(1, n + 1):
                    cur = dp[j]
                    dp[j] = min(dp[j] + 1, dp[j - 1] + 1, prev + (a[i - 1] != b[j - 1]))
                    prev = cur
            return dp[n]

        for q in probes:
            assert got[q] == {t for t in vocab if lev(q, t) <= 1}, q

    def test_fuzzy_session_equals_dataset_path(self, built_index):
        from flatnav_ray.stages.search import SearchSession

        ix, pages, queries = built_index
        qs = queries.slice(0, 5)
        want = search_to_table(ix, qs, QueryConfig(k=10, fuzzy_max_edits=1))
        sess = SearchSession(ix, num_actors=2)
        try:
            got = sess.search(qs, QueryConfig(k=10, fuzzy_max_edits=1))
        finally:
            sess.shutdown()
        assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), want.column("score").to_numpy()
        )

    def test_fuzzy_snippets_cover_expanded_terms(self, built_index):
        """Snippets for a fuzzy search must equal those of the manually
        expanded query — the snippet plan sees the same expanded term set,
        so docs matched only via an expansion still get a real window."""
        from collections import Counter

        from flatnav_ray.functions.fuzzy import fuzzy_expand_terms
        from flatnav_ray.pipelines.query import search_with_snippets
        from flatnav_ray.stages.positions import build_position_sidecar, positions_path
        import os

        import ray.data

        ix, pages, _ = built_index
        if not os.path.exists(positions_path(ix, 0)):
            from flatnav_ray.config import IndexConfig

            build_position_sidecar(
                ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=8)
            )
        toks = _doc_tokens(pages)
        df = Counter(t for s in toks.values() for t in s)
        base = df.most_common(1)[0][0]
        probe = base + "x"  # distance 1 from base; ensure absent from vocab
        assert probe not in df
        qs = pa.table(
            {"query_id": pa.array([0], type=pa.int64()),
             "text": pa.array([probe], type=pa.string())}
        )
        got = search_with_snippets(ix, qs, QueryConfig(k=5, fuzzy_max_edits=1))
        exp = sorted(fuzzy_expand_terms(ix, [probe])[probe])
        assert exp  # base (at least) is within distance 1
        manual = pa.table(
            {"query_id": pa.array([0], type=pa.int64()),
             "text": pa.array([" ".join(exp)], type=pa.string())}
        )
        want = search_with_snippets(ix, manual, QueryConfig(k=5))
        assert got.equals(want)
        assert len(got) > 0

    def test_half_set_cursor_raises(self, built_index):
        ix, _, queries = built_index
        qs = queries.slice(0, 2)
        qs = qs.append_column(
            "after_score", pa.array([1.0, None], type=pa.float64())
        ).append_column("after_doc", pa.array([None, None], type=pa.int64()))
        with pytest.raises(Exception, match="BOTH after_score and"):
            search_to_table(ix, qs, QueryConfig(k=5))

    def test_fuzzy_rejected_on_unsupported_methods(self, built_index):
        ix, _, queries = built_index
        with pytest.raises(Exception, match="fuzzy"):
            search_to_table(
                ix, queries.slice(0, 2), QueryConfig(k=5, fuzzy_max_edits=1, method="and")
            )


class TestMoreLikeThis:
    def _sources(self, pages):
        from flatnav_ray.pipelines.build import prepare_batch
        from flatnav_ray.stages.build import dedup_latest

        d = dedup_latest(prepare_batch(pages, 8, None))
        return d.select(["doc_id", "text"]).sort_by("doc_id").slice(0, 4)

    def test_mlt_never_returns_source_and_matches_manual(self, built_index):
        """MLT == manually searching the derived top-term disjunction at
        depth k+1 with the source dropped and ranks renumbered."""
        from collections import Counter

        from flatnav_ray.functions.bm25 import idf as idf_fn
        from flatnav_ray.functions.tokenize import tokenize_py
        from flatnav_ray.pipelines.query import more_like_this
        from flatnav_ray.state.stats import load_stats, lookup_term_df

        ix, pages, _ = built_index
        src = self._sources(pages)
        got = more_like_this(ix, src, n_terms=3, k=10)
        src_ids = src.column("doc_id").to_pylist()
        # the source doc never appears in its own result list
        for q, d in zip(got.column("query_id").to_pylist(), got.column("doc_id").to_pylist()):
            assert d != src_ids[int(q)]
        # manual recompute: derive texts, deep search, drop source, renumber
        n = int(load_stats(ix)["n_docs"])
        rows = []
        for qi, text in enumerate(src.column("text").to_pylist()):
            c = Counter(tokenize_py(text))
            dfm = lookup_term_df(ix, sorted(c))
            scored = sorted(
                (-(tf * idf_fn(dfm[t], n)), t) for t, tf in c.items() if dfm.get(t, 0) > 0
            )
            qtext = " ".join(t for _, t in scored[:3])
            deep = search_to_table(
                ix,
                pa.table({"query_id": pa.array([0], type=pa.int64()),
                          "text": pa.array([qtext], type=pa.string())}),
                QueryConfig(k=11),
            )
            kept = [
                (d, s)
                for d, s in zip(deep.column("doc_id").to_pylist(), deep.column("score").to_pylist())
                if d != src_ids[qi]
            ][:10]
            rows.extend((qi, r, d, s) for r, (d, s) in enumerate(kept))
        assert got.column("query_id").to_pylist() == [r[0] for r in rows]
        assert got.column("rank").to_pylist() == [r[1] for r in rows]
        assert got.column("doc_id").to_pylist() == [r[2] for r in rows]
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), np.array([r[3] for r in rows])
        )


class TestSuggester:
    def test_suggest_matches_python_oracle(self, built_index):
        """Top-n dictionary terms per prefix by global df, ties term-asc."""
        from collections import Counter

        from flatnav_ray.pipelines.query import suggest_terms

        ix, pages, _ = built_index
        toks = _doc_tokens(pages)
        df = Counter(t for s in toks.values() for t in s)
        vocab = sorted(df)
        prefixes = [vocab[0][:2], vocab[len(vocab) // 2][:3], "zzzz"]
        got = suggest_terms(ix, prefixes, n=5)
        rows = []
        for qi, p in enumerate(prefixes):
            cand = sorted(
                ((t, c) for t, c in df.items() if t.startswith(p)),
                key=lambda x: (-x[1], x[0]),
            )[:5]
            rows.extend((qi, r, t, c) for r, (t, c) in enumerate(cand))
        assert got.column("query_id").to_pylist() == [r[0] for r in rows]
        assert got.column("rank").to_pylist() == [r[1] for r in rows]
        assert got.column("term").to_pylist() == [r[2] for r in rows]
        assert got.column("df").to_pylist() == [r[3] for r in rows]


class TestFieldCollapse:
    def test_collapse_matches_python_oracle(self, built_index):
        """Best doc per (query, lang) over the full match set, then ranked —
        recomputed independently from a deep relevance search + docmap langs."""
        from flatnav_ray.pipelines.build import prepare_batch
        from flatnav_ray.pipelines.query import search_collapsed
        from flatnav_ray.stages.build import dedup_latest

        ix, pages, queries = built_index
        d = dedup_latest(prepare_batch(pages, 8, None))
        langs = dict(
            zip(d.column("doc_id").to_pylist(), d.column("lang").to_pylist())
        )
        qs = queries.slice(0, 5)
        got = search_collapsed(ix, qs, facet="lang", k=10)
        full = search_to_table(ix, qs, QueryConfig(k=len(langs)))
        rows = []
        for qi in qs.column("query_id").to_pylist():
            sub = full.filter(pc.equal(full.column("query_id"), qi))
            seen: set[str] = set()
            kept = []
            for dd, s in zip(sub.column("doc_id").to_pylist(), sub.column("score").to_pylist()):
                lg = langs[dd]
                if lg not in seen:
                    seen.add(lg)
                    kept.append((lg, dd, s))
            rows.extend((qi, r, lg, dd, s) for r, (lg, dd, s) in enumerate(kept[:10]))
        assert got.column("query_id").to_pylist() == [r[0] for r in rows]
        assert got.column("rank").to_pylist() == [r[1] for r in rows]
        assert got.column("lang").to_pylist() == [r[2] for r in rows]
        assert got.column("doc_id").to_pylist() == [r[3] for r in rows]
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), np.array([r[4] for r in rows])
        )


class TestLenFilter:
    def test_range_filter_matches_python_oracle(self, built_index):
        """doc_len range filter drops exactly the out-of-range docs; survivor
        scores are unchanged (a filter, not a sub-corpus)."""
        from flatnav_ray.functions.tokenize import tokenize_py
        from flatnav_ray.pipelines.build import prepare_batch
        from flatnav_ray.stages.build import dedup_latest

        ix, pages, queries = built_index
        d = dedup_latest(prepare_batch(pages, 8, None))
        lens = {
            int(i): len(tokenize_py(t))
            for i, t in zip(d.column("doc_id").to_pylist(), d.column("text").to_pylist())
        }
        lo = min(lens.values())
        hi = (lo + max(lens.values())) // 2
        qs = queries.slice(0, 5)
        got = search_to_table(
            ix, qs, QueryConfig(k=10, filter_len_min=lo, filter_len_max=hi)
        )
        full = search_to_table(ix, qs, QueryConfig(k=len(lens)))
        rows = []
        for qi in qs.column("query_id").to_pylist():
            sub = full.filter(pc.equal(full.column("query_id"), qi))
            kept = [
                (dd, s)
                for dd, s in zip(sub.column("doc_id").to_pylist(), sub.column("score").to_pylist())
                if lo <= lens[int(dd)] <= hi
            ][:10]
            rows.extend((qi, r, dd, s) for r, (dd, s) in enumerate(kept))
        assert got.column("query_id").to_pylist() == [r[0] for r in rows]
        assert got.column("doc_id").to_pylist() == [r[2] for r in rows]
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), np.array([r[3] for r in rows])
        )

    def test_unbounded_range_is_identity(self, built_index):
        ix, _, queries = built_index
        a = search_to_table(ix, queries.slice(0, 3), QueryConfig(k=10))
        b = search_to_table(
            ix, queries.slice(0, 3), QueryConfig(k=10, filter_len_min=None, filter_len_max=None)
        )
        assert a.equals(b)


class TestBooleanMust:
    def test_must_gates_candidates_and_scores(self, built_index):
        """MUST terms gate candidates (both must appear) and also score:
        equals the plain multi-term search over (must + should) filtered to
        docs containing every must term."""
        from collections import Counter

        ix, pages, _ = built_index
        toks = _doc_tokens(pages)
        df = Counter(t for s in toks.values() for t in s)
        top = [t for t, _ in df.most_common(3)]
        qs = pa.table(
            {
                "query_id": pa.array([0], type=pa.int64()),
                "text": pa.array([top[2]], type=pa.string()),
                "must_text": pa.array([f"{top[0]} {top[1]}"], type=pa.string()),
            }
        )
        got = search_to_table(ix, qs, QueryConfig(k=10))
        plain = pa.table(
            {
                "query_id": pa.array([0], type=pa.int64()),
                "text": pa.array([f"{top[0]} {top[1]} {top[2]}"], type=pa.string()),
            }
        )
        full = search_to_table(ix, plain, QueryConfig(k=len(toks)))
        kept = [
            (d, s)
            for d, s in zip(full.column("doc_id").to_pylist(), full.column("score").to_pylist())
            if top[0] in toks[int(d)] and top[1] in toks[int(d)]
        ][:10]
        assert got.column("doc_id").to_pylist() == [x[0] for x in kept]
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), np.array([x[1] for x in kept])
        )

    def test_absent_must_term_empties_result(self, built_index):
        ix, pages, _ = built_index
        from collections import Counter

        toks = _doc_tokens(pages)
        df = Counter(t for s in toks.values() for t in s)
        top = df.most_common(1)[0][0]
        qs = pa.table(
            {
                "query_id": pa.array([0], type=pa.int64()),
                "text": pa.array([top], type=pa.string()),
                "must_text": pa.array(["zzzznotaterm"], type=pa.string()),
            }
        )
        assert len(search_to_table(ix, qs, QueryConfig(k=10))) == 0

    def test_session_must_equals_dataset_path(self, built_index):
        from collections import Counter

        from flatnav_ray.stages.search import SearchSession

        ix, pages, _ = built_index
        toks = _doc_tokens(pages)
        df = Counter(t for s in toks.values() for t in s)
        top = [t for t, _ in df.most_common(3)]
        qs = pa.table(
            {
                "query_id": pa.array([0], type=pa.int64()),
                "text": pa.array([top[2]], type=pa.string()),
                "must_text": pa.array([f"{top[0]} {top[1]}"], type=pa.string()),
            }
        )
        want = search_to_table(ix, qs, QueryConfig(k=10))
        sess = SearchSession(ix, num_actors=2)
        try:
            got = sess.search(qs, QueryConfig(k=10))
        finally:
            sess.shutdown()
        assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
        np.testing.assert_array_equal(
            got.column("score").to_numpy(), want.column("score").to_numpy()
        )


class TestSortByField:
    def test_sortby_doclen_matches_python_oracle(self, built_index):
        """sort_by='doc_len' ranks the MATCH SET by token count desc, doc_id
        asc — same candidates as relevance search, different order."""
        ix, pages, queries = built_index
        toks = _doc_tokens(pages)
        qs = queries.slice(0, 5)
        got = search_to_table(ix, qs, QueryConfig(k=10, sort_by="doc_len"))
        from flatnav_ray.functions.tokenize import tokenize_py

        rows = []
        for qi, text in zip(qs.column("query_id").to_pylist(), qs.column("text").to_pylist()):
            qterms = set(tokenize_py(text))
            matched = [d for d, s in toks.items() if qterms & s]
            # doc_len = full token count (BM25 dl)
            from flatnav_ray.pipelines.build import prepare_batch
            from flatnav_ray.stages.build import dedup_latest

            d = dedup_latest(prepare_batch(pages, 8, None))
            lens = {
                int(i): len(tokenize_py(t))
                for i, t in zip(d.column("doc_id").to_pylist(), d.column("text").to_pylist())
            }
            top = sorted(matched, key=lambda x: (-lens[x], x))[:10]
            rows.extend((qi, r, d_) for r, d_ in enumerate(top))
        assert got.column("query_id").to_pylist() == [r[0] for r in rows]
        assert got.column("rank").to_pylist() == [r[1] for r in rows]
        assert got.column("doc_id").to_pylist() == [r[2] for r in rows]

    def test_sortby_same_candidates_as_relevance(self, built_index):
        """Same match set, different order: the doc_id SETS agree with the
        relevance search at full depth."""
        ix, pages, queries = built_index
        qs = queries.slice(0, 3)
        deep_n = 10_000
        a = search_to_table(ix, qs, QueryConfig(k=deep_n))
        b = search_to_table(ix, qs, QueryConfig(k=deep_n, sort_by="doc_len"))
        for qi in qs.column("query_id").to_pylist():
            sa = set(a.filter(pc.equal(a.column("query_id"), qi)).column("doc_id").to_pylist())
            sb = set(b.filter(pc.equal(b.column("query_id"), qi)).column("doc_id").to_pylist())
            assert sa == sb

    def test_sortby_rejects_unknown_attribute(self, built_index):
        ix, _, queries = built_index
        with pytest.raises(Exception, match="sort_by"):
            search_to_table(ix, queries.slice(0, 1), QueryConfig(k=5, sort_by="nope"))


class TestRegexWildcard:
    def test_regex_counts_match_python_oracle(self, built_index):
        import re

        from flatnav_ray.pipelines.query import prefix_doc_counts

        ix, pages, _ = built_index
        toks = _doc_tokens(pages)
        vocab = sorted({t for s in toks.values() for t in s})
        pats = [f"^{vocab[7][:2]}.*{vocab[7][-1]}$", "[0-9]", "^nomatchxyz$"]
        got = prefix_doc_counts(ix, pats, mode="regex")
        want = {}
        for qi, p in enumerate(pats):
            rx = re.compile(p)
            n = sum(1 for s in toks.values() if any(rx.search(t) for t in s))
            if n > 0:
                want[qi] = n
        assert dict(
            zip(got.column("query_id").to_pylist(), got.column("n_docs").to_pylist())
        ) == want


class TestInfixVsPrefix:
    def test_infix_superset_of_prefix(self, built_index):
        """For the same pattern, *p* matches at least every doc p* matches."""
        from flatnav_ray.pipelines.query import prefix_doc_counts

        ix, pages, _ = built_index
        toks = _doc_tokens(pages)
        pats = sorted({t[:3] for s in toks.values() for t in s})[:5]
        pre = prefix_doc_counts(ix, pats, mode="prefix")
        inf = prefix_doc_counts(ix, pats, mode="infix")
        pre_d = dict(zip(pre.column("query_id").to_pylist(), pre.column("n_docs").to_pylist()))
        inf_d = dict(zip(inf.column("query_id").to_pylist(), inf.column("n_docs").to_pylist()))
        for qi, n in pre_d.items():
            assert inf_d.get(qi, 0) >= n
