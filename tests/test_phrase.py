"""Phrase retrieval (method="phrase") — positional sidecar + adjacency verify.

Oracle: brute_force_topk(phrase=True) — contiguous-subsequence containment
over the same analyzer's token sequences (the gtruth-verification graft,
reference /root/reference/python-bindings/unit_tests/test_utils.py:57-91).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.functions.tokenize import tokenize_py
from flatnav_ray.pipelines.build import build_index, prepare_batch
from flatnav_ray.pipelines.oracle import brute_force_topk
from flatnav_ray.pipelines.query import search_to_table
from flatnav_ray.sources.synth import pages_table
from flatnav_ray.stages.build import dedup_latest, segment_path
from flatnav_ray.stages.positions import build_position_sidecar, positions_path


@pytest.fixture(scope="module")
def phrase_index(tmp_path_factory):
    import ray.data

    # small vocabulary -> bigrams repeat across docs (non-trivial top-k)
    pages = pages_table(600, seed=11, vocab_size=400, mean_len=40)
    pdir = tmp_path_factory.mktemp("phrase_pages")
    pq.write_table(pages, str(pdir / "p0.parquet"))
    ix = str(tmp_path_factory.mktemp("phrase_ix") / "ix")
    cfg = IndexConfig(num_partitions=4)
    build_index(ray.data.read_parquet(str(pdir)), ix, cfg)
    man = build_position_sidecar(ray.data.read_parquet(str(pdir)), ix, cfg)
    assert len(man) >= 1 and not man.column("skipped").to_pylist()[0]
    return ix, cfg, pages


def _corpus_docs(pages: pa.Table, parts: int) -> pa.Table:
    return dedup_latest(prepare_batch(pages, parts, None)).select(["doc_id", "text"])


def _occurring_phrases(pages: pa.Table, n: int, length: int) -> pa.Table:
    """Token windows lifted from doc texts — phrases guaranteed to occur."""
    out: list[str] = []
    for t in pages.column("text").to_pylist():
        toks = tokenize_py(t)
        if len(toks) >= length + 3:
            seq = toks[3: 3 + length]
            if len(set(seq)) == len(seq):
                out.append(" ".join(seq))
        if len(out) == n:
            break
    assert len(out) == n
    return pa.table(
        {
            "query_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(out, type=pa.string()),
        }
    )


class TestPhrase:
    def test_bigram_matches_oracle(self, phrase_index):
        ix, cfg, pages = phrase_index
        queries = _occurring_phrases(pages, 12, 2)
        out = search_to_table(ix, queries, QueryConfig(k=10, method="phrase"))
        gt = brute_force_topk(_corpus_docs(pages, cfg.num_partitions), queries, k=10, phrase=True)
        assert out.column("query_id").to_pylist() == gt.column("query_id").to_pylist()
        assert out.column("doc_id").to_pylist() == gt.column("doc_id").to_pylist()
        np.testing.assert_allclose(
            out.column("score").to_numpy(), gt.column("score").to_numpy(), rtol=0, atol=1e-12
        )
        assert len(out) > 0  # the source docs at least match their own phrase

    def test_trigram_matches_oracle(self, phrase_index):
        ix, cfg, pages = phrase_index
        queries = _occurring_phrases(pages, 6, 3)
        out = search_to_table(ix, queries, QueryConfig(k=10, method="phrase"))
        gt = brute_force_topk(_corpus_docs(pages, cfg.num_partitions), queries, k=10, phrase=True)
        assert out.column("doc_id").to_pylist() == gt.column("doc_id").to_pylist()
        np.testing.assert_allclose(
            out.column("score").to_numpy(), gt.column("score").to_numpy(), rtol=0, atol=1e-12
        )

    def test_non_adjacent_terms_do_not_match(self, phrase_index):
        """Two terms that both exist but are never adjacent -> empty result
        on BOTH engine and oracle; absent-term phrase -> empty too."""
        ix, cfg, pages = phrase_index
        docs = _corpus_docs(pages, cfg.num_partitions)
        seqs = [tokenize_py(t) for t in docs.column("text").to_pylist()]
        bigrams = {(s[i], s[i + 1]) for s in seqs for i in range(len(s) - 1)}
        vocab = sorted({t for s in seqs for t in s})
        pair = None
        for a in vocab:
            for b in vocab:
                if a != b and (a, b) not in bigrams:
                    pair = (a, b)
                    break
            if pair:
                break
        assert pair is not None
        queries = pa.table(
            {
                "query_id": pa.array([0, 1], type=pa.int64()),
                "text": pa.array(
                    [f"{pair[0]} {pair[1]}", f"{vocab[0]} zqxjkvwpy"], type=pa.string()
                ),
            }
        )
        out = search_to_table(ix, queries, QueryConfig(k=10, method="phrase"))
        gt = brute_force_topk(docs, queries, k=10, phrase=True)
        assert len(out) == 0 and len(gt) == 0

    def test_phrase_scores_equal_bag_of_words(self, phrase_index):
        """A phrase survivor's score is bit-identical to the same doc's TAAT
        score for the bag-of-words query (pinned accumulation order)."""
        ix, cfg, pages = phrase_index
        queries = _occurring_phrases(pages, 8, 2)
        ph = search_to_table(ix, queries, QueryConfig(k=50, method="phrase"))
        bow = search_to_table(ix, queries, QueryConfig(k=200, method="taat"))
        full = {
            (q, d): s
            for q, d, s in zip(
                bow.column("query_id").to_pylist(),
                bow.column("doc_id").to_pylist(),
                bow.column("score").to_pylist(),
            )
        }
        checked = 0
        for q, d, s in zip(
            ph.column("query_id").to_pylist(),
            ph.column("doc_id").to_pylist(),
            ph.column("score").to_pylist(),
        ):
            if (q, d) in full:
                assert s == full[(q, d)]
                checked += 1
        assert checked > 0

    def test_sidecar_aligns_with_segments(self, phrase_index):
        """Alignment invariant: per partition, the sidecar's term set equals
        the segment's, and each term's position count equals its summed tf
        (positions are one-per-token-occurrence of the winner text)."""
        from flatnav_ray.functions.codec import decode_postings
        from flatnav_ray.state.stats import load_stats

        ix, cfg, _ = phrase_index
        st = load_stats(ix)
        for p in st["partitions"]:
            seg = pq.read_table(segment_path(ix, int(p)))
            pos = pq.read_table(positions_path(ix, int(p)))
            assert seg.column("term").to_pylist() == pos.column("term").to_pylist()
            sdf = seg.column("df").to_numpy(zero_copy_only=False)
            po = pos.column("pos_offs").combine_chunks()
            pf = pos.column("pos_flat").combine_chunks()
            for i in range(len(seg)):
                offs = np.asarray(po[i].values)
                flat_n = len(pf[i])
                assert offs.size == sdf[i] + 1
                assert offs[-1] == flat_n
                tfs_sum = decode_postings(
                    np.frombuffer(seg.column("doc_blob")[i].as_py(), dtype=np.uint8),
                    np.frombuffer(seg.column("tf_blob")[i].as_py(), dtype=np.uint8),
                    block_size=int(st["block_size"]),
                )[1].sum()
                assert int(tfs_sum) == flat_n

    def test_slop_matches_oracle_and_widens(self, phrase_index):
        """phrase_slop=s (per-gap proximity): rank-identical to the slop
        oracle; slop=0 equals exact adjacency; wider slop's match set is a
        superset (monotone)."""
        ix, cfg, pages = phrase_index
        docs = _corpus_docs(pages, cfg.num_partitions)
        # skip-gram queries (tokens 3 and 5 of a doc): guaranteed slop-1 hits
        out_texts: list[str] = []
        for t in pages.column("text").to_pylist():
            toks = tokenize_py(t)
            if len(toks) >= 6 and toks[3] != toks[5]:
                out_texts.append(f"{toks[3]} {toks[5]}")
            if len(out_texts) == 10:
                break
        queries = pa.table(
            {
                "query_id": pa.array(np.arange(len(out_texts), dtype=np.int64)),
                "text": pa.array(out_texts, type=pa.string()),
            }
        )
        for slop in (0, 1, 2):
            out = search_to_table(
                ix, queries, QueryConfig(k=20, method="phrase", phrase_slop=slop)
            )
            gt = brute_force_topk(docs, queries, k=20, phrase=True, phrase_slop=slop)
            assert out.column("doc_id").to_pylist() == gt.column("doc_id").to_pylist()
            np.testing.assert_allclose(
                out.column("score").to_numpy(), gt.column("score").to_numpy(),
                rtol=0, atol=1e-12,
            )
        # superset property holds on UNtruncated match sets (k larger than
        # any match count; a truncated top-k can drop low-scoring slop-0
        # matches once slop=1 admits higher-scoring docs)
        s0 = search_to_table(ix, queries, QueryConfig(k=100_000, method="phrase"))
        s1 = search_to_table(
            ix, queries, QueryConfig(k=100_000, method="phrase", phrase_slop=1)
        )
        pairs0 = set(zip(s0.column("query_id").to_pylist(), s0.column("doc_id").to_pylist()))
        pairs1 = set(zip(s1.column("query_id").to_pylist(), s1.column("doc_id").to_pylist()))
        assert pairs0 <= pairs1 and len(pairs1) > len(pairs0)

    def test_snippets_match_oracle(self, phrase_index):
        """search_with_snippets: per result, the smallest token window
        covering every query term present in the doc (ties: smallest start),
        vs an independent python sweep over the tokenized docs."""
        from flatnav_ray.pipelines.query import search_with_snippets

        ix, cfg, pages = phrase_index
        docs = _corpus_docs(pages, cfg.num_partitions)
        seq_of = {
            d: tokenize_py(t)
            for d, t in zip(
                docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()
            )
        }
        queries = _occurring_phrases(pages, 8, 2)
        out = search_with_snippets(ix, queries, QueryConfig(k=5))
        assert len(out) > 0
        qterms = {
            q: sorted(set(tokenize_py(t)))
            for q, t in zip(
                queries.column("query_id").to_pylist(),
                queries.column("text").to_pylist(),
            )
        }

        def oracle_window(toks: list[str], terms: list[str]) -> tuple[int, int]:
            present = [t for t in terms if t in toks]
            if not present:
                return (-1, 0)
            best = (-1, 1 << 30)
            for a in range(len(toks)):
                seen = set()
                for b in range(a, len(toks)):
                    if toks[b] in present:
                        seen.add(toks[b])
                    if len(seen) == len(present):
                        w = b - a + 1
                        if w < best[1] or (w == best[1] and a < best[0]):
                            best = (a, w)
                        break
            return best

        for q, d, s, w in zip(
            out.column("query_id").to_pylist(),
            out.column("doc_id").to_pylist(),
            out.column("snippet_start").to_pylist(),
            out.column("snippet_len").to_pylist(),
        ):
            es, ew = oracle_window(seq_of[d], qterms[q])
            assert (s, w) == (es, ew), (q, d)
            # the window really covers every present term
            window = seq_of[d][s: s + w]
            assert all(t in window for t in qterms[q] if t in seq_of[d])

    def test_server_mode_equals_dataset_path(self, phrase_index):
        from flatnav_ray.stages.search import SearchSession

        ix, cfg, pages = phrase_index
        queries = _occurring_phrases(pages, 8, 2)
        ds_out = search_to_table(ix, queries, QueryConfig(k=10, method="phrase"))
        sess = SearchSession(ix, num_actors=2)
        try:
            srv = sess.search(queries, QueryConfig(k=10, method="phrase"))
        finally:
            sess.shutdown()
        assert srv.select(["query_id", "doc_id", "score"]).equals(
            ds_out.select(["query_id", "doc_id", "score"])
        )
