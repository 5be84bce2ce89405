"""E2E build + query tests — the grafted integration layer (SURVEY.md §5):

* rank identity vs brute-force oracle (the gtruth conformance of
  /root/reference/tools/query_npy.cpp:52-66, but exact: floor = 1.0)
* build determinism across partition counts (graft of
  /root/reference/python-bindings/unit_tests/test_parallel_insertions.py)
* serialization round trip: fresh searcher over on-disk segments returns
  identical results (graft of test_serialization.cpp:64-75)
* taat == maxscore (pruned search is exact)
* two-phase spill build == the one-task `build_partition` reference,
  including recrawl ties and 2/4-byte spill widths
* checkpoint-resume skips completed partitions
"""

import shutil

import numpy as np
import pyarrow as pa
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.pipelines.build import build_index, prepare_batch
from flatnav_ray.pipelines.oracle import brute_force_topk, recall_at_k
from flatnav_ray.pipelines.query import search_to_table
from flatnav_ray.stages.build import dedup_latest
from flatnav_ray.stages.introspect import canonical_postings


@pytest.fixture(scope="module")
def built_index(ray_session, small_corpus, tmp_path_factory):
    import ray.data

    pages, queries = small_corpus
    ix = str(tmp_path_factory.mktemp("ix") / "main")
    res = build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=8))
    return ix, res, pages, queries


def _adapter_pages(urls, warc_ts, texts):
    """Pages on the adapter path: text already extracted, html null."""
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(warc_ts, pa.timestamp("us")),
            "html": pa.nulls(n, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    )


def _tie_key(texts):
    """Spec of the same-warc_ts tie key: the 63-bit stable_hash64(text)."""
    from flatnav_ray.functions.hashes import stable_hash64

    return stable_hash64(texts) & np.uint64(2**63 - 1)


def _oracle(pages, queries, k=10):
    deduped = dedup_latest(prepare_batch(pages, 8, None))
    return brute_force_topk(deduped.select(["doc_id", "text"]), queries, k=k)


class TestRankIdentity:
    def test_taat_rank_identical_to_oracle(self, built_index):
        ix, res, pages, queries = built_index
        out = search_to_table(ix, queries, QueryConfig(k=10, method="taat"))
        gt = _oracle(pages, queries)
        assert len(out) == len(gt)
        assert out.column("doc_id").to_pylist() == gt.column("doc_id").to_pylist()
        np.testing.assert_allclose(
            out.column("score").to_numpy(), gt.column("score").to_numpy(), rtol=0, atol=1e-9
        )
        # recall floor 1.0 — stronger than the reference's 0.97
        assert recall_at_k(out, gt) == 1.0

    def test_maxscore_equals_taat(self, built_index):
        ix, _, _, queries = built_index
        a = search_to_table(ix, queries, QueryConfig(k=10, method="taat"))
        b = search_to_table(ix, queries, QueryConfig(k=10, method="maxscore"))
        assert a.column("doc_id").to_pylist() == b.column("doc_id").to_pylist()
        np.testing.assert_array_equal(
            a.column("score").to_numpy(), b.column("score").to_numpy()
        )

    def test_wand_pruned_equals_taat(self, built_index):
        """Block-max pruned evaluation is exact: identical docs AND scores."""
        ix, _, _, queries = built_index
        a = search_to_table(ix, queries, QueryConfig(k=10, method="taat"))
        b = search_to_table(ix, queries, QueryConfig(k=10, method="wand"))
        assert a.column("doc_id").to_pylist() == b.column("doc_id").to_pylist()
        np.testing.assert_array_equal(
            a.column("score").to_numpy(), b.column("score").to_numpy()
        )

    def test_and_conjunctive_matches_oracle(self, built_index):
        """method='and' (posting-list intersection): rank-identical to the
        conjunctive brute-force oracle over the full 1-5-term query matrix
        (single-term, multi-term, and corpus-absent-term queries), and every
        surviving doc keeps its EXACT disjunctive score (the intersection
        filters candidates, never perturbs accumulation order)."""
        ix, _, pages, queries = built_index
        out = search_to_table(ix, queries, QueryConfig(k=10, method="and"))
        deduped = dedup_latest(prepare_batch(pages, 8, None))
        gt = brute_force_topk(
            deduped.select(["doc_id", "text"]), queries, k=10, conjunctive=True
        )
        assert out.column("query_id").to_pylist() == gt.column("query_id").to_pylist()
        assert out.column("doc_id").to_pylist() == gt.column("doc_id").to_pylist()
        np.testing.assert_allclose(
            out.column("score").to_numpy(), gt.column("score").to_numpy(), rtol=0, atol=1e-9
        )
        # conjunctive ⊆ disjunctive with identical per-doc scores (bit-exact)
        taat = search_to_table(ix, queries, QueryConfig(k=10, method="taat"))
        full = {
            (q, d): s
            for q, d, s in zip(
                taat.column("query_id").to_pylist(),
                taat.column("doc_id").to_pylist(),
                taat.column("score").to_pylist(),
            )
        }
        for q, d, s in zip(
            out.column("query_id").to_pylist(),
            out.column("doc_id").to_pylist(),
            out.column("score").to_pylist(),
        ):
            if (q, d) in full:  # doc also in the disjunctive top-k
                assert s == full[(q, d)]

    def test_min_should_match_matches_oracle(self, built_index):
        """min_should_match (threshold disjunction) at 2, 3 and one more than
        the longest query's distinct term count: rank-identical to the msm
        brute-force oracle. Past the longest query nothing matches; at 3 the
        queries with exactly 3 distinct terms answer as method="and"; msm=1
        degenerates to the plain disjunction."""
        import pyarrow.compute as pc

        from flatnav_ray.functions.tokenize import tokenize_py

        ix, _, pages, queries = built_index
        deduped = dedup_latest(prepare_batch(pages, 8, None))
        n_terms = [len(set(tokenize_py(t))) for t in queries.column("text").to_pylist()]
        for msm in (2, 3, max(n_terms) + 1):
            out = search_to_table(ix, queries, QueryConfig(k=10, min_should_match=msm))
            gt = brute_force_topk(
                deduped.select(["doc_id", "text"]), queries, k=10, min_should_match=msm
            )
            assert out.column("query_id").to_pylist() == gt.column("query_id").to_pylist()
            assert out.column("doc_id").to_pylist() == gt.column("doc_id").to_pylist()
            np.testing.assert_allclose(
                out.column("score").to_numpy(), gt.column("score").to_numpy(), rtol=0, atol=1e-9
            )
            assert (len(out) == 0) == (msm > max(n_terms)), msm
        three = pa.array([q for q, n in zip(queries.column("query_id").to_pylist(), n_terms)
                          if n == 3], pa.int64())
        msm3 = search_to_table(ix, queries, QueryConfig(k=10, min_should_match=3))
        conj = search_to_table(ix, queries, QueryConfig(k=10, method="and"))

        def of_three(t):
            return t.filter(pc.is_in(t.column("query_id"), three))

        assert len(of_three(msm3)) > 0
        assert of_three(msm3).equals(of_three(conj))
        taat = search_to_table(ix, queries, QueryConfig(k=10, method="taat"))
        msm1 = search_to_table(ix, queries, QueryConfig(k=10, min_should_match=1))
        assert taat.equals(msm1)

    def test_search_session_equals_dataset_path(self, built_index):
        """Server mode (persistent shard actors) returns identical results to
        the Dataset pipeline — the serialization/load-once round-trip."""
        from flatnav_ray.stages.search import SearchSession

        ix, _, _, queries = built_index
        a = search_to_table(ix, queries, QueryConfig(k=10))
        sess = SearchSession(ix, num_actors=3)
        try:
            b = sess.search(queries, QueryConfig(k=10))
        finally:
            sess.shutdown()
        assert a.equals(b)

    def test_inline_and_packed_url_paths_identical(self, built_index, monkeypatch):
        """The session's two serving shapes — small-batch inline urls vs the
        packed urlless shuffle + winner-url resolution — must return
        byte-identical tables (incl. the url column) for the same queries."""
        import flatnav_ray.stages.search as S

        ix, _, _, queries = built_index
        sess = S.SearchSession(ix, num_actors=3)
        try:
            monkeypatch.setattr(S, "_INLINE_URL_ROWS", 10**9)
            inline = sess.search(queries, QueryConfig(k=10))
            monkeypatch.setattr(S, "_INLINE_URL_ROWS", 0)
            packed = sess.search(queries, QueryConfig(k=10))
        finally:
            sess.shutdown()
        assert inline.equals(packed)
        assert inline.column("url").null_count == 0

    def test_unresolved_winner_url_raises(self, built_index, tmp_path):
        """A winner whose docmap row is gone must raise with its doc_id,
        not come back with a NULL url."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from flatnav_ray.stages.build import docmap_path
        from flatnav_ray.stages.search import SearchSession

        src, _, _, queries = built_index
        ix = str(tmp_path / "ix")
        shutil.copytree(src, ix)
        winners = search_to_table(ix, queries, QueryConfig(k=10)).drop_columns(["url"])
        lost = winners.column("doc_id")[0].as_py()
        path = docmap_path(ix, lost % 8)
        dm = pq.read_table(path)
        pq.write_table(dm.filter(pc.not_equal(dm.column("doc_id"), lost)), path)
        sess = SearchSession(ix, num_actors=3)
        try:
            with pytest.raises(RuntimeError, match=rf"1 winner doc_id\(s\).*\[{lost}\]"):
                sess._attach_urls(winners)
        finally:
            sess.shutdown()

    def test_empty_and_absent_queries(self, built_index):
        ix, *_ = built_index
        q = pa.table(
            {
                "query_id": pa.array([0, 1], type=pa.int64()),
                "text": pa.array(["zzznotinvocab qqqmissing", ""], type=pa.string()),
            }
        )
        out = search_to_table(ix, q, QueryConfig(k=10))
        assert len(out) == 0


class TestDeterminism:
    def test_partition_count_invariance(self, ray_session, small_corpus, tmp_path):
        """Graft of parallel==serial build equivalence: canonical postings are
        identical for num_partitions 4 vs 8 (doc_ids are stable url hashes,
        independent of the shuffle)."""
        import ray.data

        pages, _ = small_corpus
        ix4, ix8 = str(tmp_path / "p4"), str(tmp_path / "p8")
        build_index(ray.data.from_arrow(pages), ix4, IndexConfig(num_partitions=4))
        build_index(ray.data.from_arrow(pages), ix8, IndexConfig(num_partitions=8))
        c4, c8 = canonical_postings(ix4), canonical_postings(ix8)
        assert c4.equals(c8)

    def test_twophase_equals_onephase(self, ray_session, tmp_path):
        """The two-phase spill build yields the identical index to the
        one-phase reference: `build_partition` called once per partition on
        the whole prepared corpus, no Ray pipeline. The corpus spans two map
        batches and carries the cross-partial winner cases: exact-duplicate
        rows in both batches, and same-url versions with the same warc_ts
        but different text, one version per batch."""
        import os

        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray.data

        from flatnav_ray.sources.synth import pages_table
        from flatnav_ray.stages.build import build_partition

        base = pages_table(4200, seed=21, vocab_size=2000, mean_len=20)
        n_tie = 40
        urls = [f"https://tie.example.com/p{i}" for i in range(n_tie)]
        texts_a = [f"tie{i} alpha w000001" for i in range(n_tie)]
        texts_b = [f"tie{i} beta w000002" for i in range(n_tie)]
        # the case must tell the hash tie key from a raw-text one
        hash_b = _tie_key(texts_b) > _tie_key(texts_a)
        assert 0 < int(hash_b.sum()) < n_tie

        ts = [base.column("warc_ts")[0].as_py()] * n_tie
        # map batches are 4096 rows: version a and the originals of the
        # duplicated rows land in the first, version b and the copies in
        # the second
        assert n_tie + 100 <= 4096 < n_tie + len(base)
        pages = pa.concat_tables([
            _adapter_pages(urls, ts, texts_a), base,
            _adapter_pages(urls, ts, texts_b), base.slice(0, 100),
        ])

        cfg = IndexConfig(num_partitions=6)
        ix_ref, ix_two = str(tmp_path / "ref"), str(tmp_path / "two")
        prep = prepare_batch(pages, cfg.num_partitions, None)
        for p in range(cfg.num_partitions):
            build_partition(prep.filter(pc.equal(prep.column("partition"), p)), ix_ref, cfg)
        build_index(ray.data.from_arrow(pages), ix_two, cfg)
        assert canonical_postings(ix_ref).equals(canonical_postings(ix_two))
        for p in range(cfg.num_partitions):
            name = os.path.join("docmap", f"part-{p:05d}.parquet")
            assert pq.read_table(os.path.join(ix_ref, name)).equals(
                pq.read_table(os.path.join(ix_two, name))
            )

    def test_serialization_round_trip(self, built_index):
        """Fresh searcher processes (new actor pool) over the same on-disk
        segments return identical results — segments ARE the serialized index."""
        ix, _, _, queries = built_index
        a = search_to_table(ix, queries, QueryConfig(k=10))
        b = search_to_table(ix, queries, QueryConfig(k=10))
        assert a.equals(b)


class TestResume:
    def test_resume_skips_completed_partitions(self, ray_session, small_corpus, tmp_path):
        import ray.data

        pages, _ = small_corpus
        ix = str(tmp_path / "rix")
        r1 = build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=6))
        assert r1.n_partitions_built == 6 and r1.n_partitions_skipped == 0
        r2 = build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=6))
        assert r2.n_partitions_built == 0 and r2.n_partitions_skipped == 6
        assert r2.n_docs == r1.n_docs  # stats survive the resume

    def test_partial_failure_recovery(self, ray_session, small_corpus, tmp_path):
        """Simulated mid-build crash: wipe two partitions' artifacts; the
        resumed build rebuilds ONLY those and the index is byte-identical."""
        import os

        import ray.data

        from flatnav_ray.state.manifest import manifest_path
        from flatnav_ray.stages.build import docmap_path, segment_path

        pages, queries = small_corpus
        ix = str(tmp_path / "pfr")
        build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=6))
        before = canonical_postings(ix)
        # crash aftermath: two partitions lost
        for p in (1, 4):
            os.remove(segment_path(ix, p))
            os.remove(manifest_path(ix, p))
        r = build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=6))
        assert r.n_partitions_skipped == 4
        assert r.n_partitions_built == 2
        assert canonical_postings(ix).equals(before)
        out = search_to_table(ix, queries, QueryConfig(k=10))
        assert len(out) > 0

    def test_config_change_invalidates_manifests(self, ray_session, small_corpus, tmp_path):
        import ray.data

        pages, _ = small_corpus
        ix = str(tmp_path / "cix")
        build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=6))
        r = build_index(
            ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=6, block_size=64)
        )
        assert r.n_partitions_skipped == 0  # fingerprint changed -> full rebuild


class TestDedup:
    def test_dedup_keeps_latest(self, small_corpus):
        pages, _ = small_corpus
        prep = prepare_batch(pages, 8, None)
        dd = dedup_latest(prep)
        urls = dd.column("url").to_pylist()
        assert len(urls) == len(set(urls))
        # recrawls exist in the fixture and were removed
        assert len(dd) < len(prep)
        # kept row per duplicated url is the max warc_ts one
        t = prep.to_pandas()
        kept = dd.to_pandas().set_index("url")["warc_ts"]
        for url, grp in t.groupby("url"):
            assert kept[url] == grp["warc_ts"].max()

    def test_same_ts_tie_keeps_greatest_text_hash(self):
        """Versions of one url with the same warc_ts: the winner is the
        greatest text_tie_hash, the key the two-phase build uses — not the
        greatest raw text."""
        texts = [f"v{i} text" for i in range(8)]
        t = _adapter_pages(["https://tie.example.com/x"] * 8, [1_700_000_000] * 8, texts)
        kept = dedup_latest(t).column("text").to_pylist()
        assert kept == [texts[int(np.argmax(_tie_key(texts)))]]


class TestSpillWidths:
    def test_two_and_four_byte_partials_merge_like_reference(self, tmp_path):
        """Spill partials pack each posting stream in 2 bytes, or 4 when the
        slice needs it. One partition gets a tf of 65,535 (2-byte tfs), a tf
        of 65,536 (4-byte tfs) and a slice with more than 65,536 distinct
        terms (4-byte term codes), each in its own map batch; the merge of
        the mixed spill must equal the `build_partition` reference."""
        import os

        import pyarrow.ipc as ipc

        from flatnav_ray.stages.build import build_partition
        from flatnav_ray.stages.twophase import map_partial_spill, merge_spilled_partition

        ts = [1_700_000_000_000_000] * 3
        many = " ".join(f"v{i}" for i in range(70_000))
        batches = [
            _adapter_pages(
                [f"https://w.example.com/a{i}" for i in range(3)], ts,
                ["alpha " * 65_535 + "beta", "alpha beta gamma", "gamma v7"],
            ),
            _adapter_pages(
                [f"https://w.example.com/b{i}" for i in range(3)], ts,
                ["alpha " * 65_536, "beta beta", "gamma v69999"],
            ),
            _adapter_pages(
                [f"https://w.example.com/c{i}" for i in range(3)], ts,
                [many, "alpha " + many, "beta"],
            ),
        ]
        cfg = IndexConfig(num_partitions=1)
        spill = str(tmp_path / "spill")
        for b in batches:
            map_partial_spill(b, 1, None, spill)
        d = os.path.join(spill, "part=00000")
        widths = set()
        for f in os.listdir(d):
            if f.startswith("meta-"):
                with ipc.open_stream(os.path.join(d, f)) as r:
                    m = r.read_all()
                widths.add((m.column("w_code")[0].as_py(), m.column("w_tf")[0].as_py()))
        assert widths == {(2, 2), (2, 4), (4, 2)}

        ix_ref, ix_two = str(tmp_path / "ref"), str(tmp_path / "two")
        merge_spilled_partition(0, spill, ix_two, cfg)
        build_partition(prepare_batch(pa.concat_tables(batches), 1, None), ix_ref, cfg)
        ref, two = canonical_postings(ix_ref), canonical_postings(ix_two)
        assert ref.equals(two)
        assert {65_535, 65_536} <= set(two.column("tf").to_pylist())
        assert len(set(two.column("term").to_pylist())) > 65_536


class TestCodecWidthBoundaries:
    """The spill codec's width rule at its edges: a stream whose largest
    value is 0xFFFF packs in 2 bytes, one past it in 4."""

    def test_width_for_boundary(self):
        from flatnav_ray.stages.twophase import _width_for

        assert _width_for(0) == 2
        assert _width_for(0xFFFF) == 2
        assert _width_for(0x10000) == 4

    @staticmethod
    def _spill_equals_reference(tmp_path, batch) -> dict:
        """Map `batch` as one slice of a one-partition two-phase build, merge
        it, and check it equals `build_partition` segment for segment and
        docmap for docmap; returns the slice's spill widths, the segment's
        term count, the docmap's doc count and the two-phase index dir."""
        import os

        import pyarrow.ipc as ipc
        import pyarrow.parquet as pq

        from flatnav_ray.stages.build import build_partition, docmap_path, segment_path
        from flatnav_ray.stages.twophase import map_partial_spill, merge_spilled_partition

        cfg = IndexConfig(num_partitions=1)
        spill = str(tmp_path / "spill")
        map_partial_spill(batch, 1, None, spill)
        d = os.path.join(spill, "part=00000")
        [meta] = [f for f in os.listdir(d) if f.startswith("meta-")]
        with ipc.open_stream(os.path.join(d, meta)) as r:
            m = r.read_all()
        ix_ref, ix_two = str(tmp_path / "ref"), str(tmp_path / "two")
        merge_spilled_partition(0, spill, ix_two, cfg)
        build_partition(prepare_batch(batch, 1, None), ix_ref, cfg)
        ref = pq.read_table(segment_path(ix_ref, 0))
        assert ref.equals(pq.read_table(segment_path(ix_two, 0)))
        dm = pq.read_table(docmap_path(ix_ref, 0))
        assert dm.equals(pq.read_table(docmap_path(ix_two, 0)))
        widths = {w: m.column(w)[0].as_py() for w in ("w_code", "w_ord", "w_tf")}
        return {**widths, "n_terms": len(ref), "n_docs": len(dm), "ix": ix_two}

    @pytest.mark.parametrize("n_terms,w_code", [(65_535, 2), (65_536, 2), (65_537, 4)])
    def test_term_count_boundary_matches_reference(self, tmp_path, n_terms, w_code):
        """One map slice holds exactly `n_terms` distinct terms (codes
        0..n_terms-1) and one document has a tf of 65,536 (4-byte tfs); the
        two-phase build of the partition equals `build_partition` segment
        for segment and docmap for docmap."""
        ts = [1_700_000_000_000_000] * 3
        batch = _adapter_pages(
            [f"https://w.example.com/t{i}" for i in range(3)], ts,
            [
                " ".join(f"v{i}" for i in range(n_terms - 1)),
                "alpha " * 65_536,
                "alpha v0 v1",
            ],
        )
        got = self._spill_equals_reference(tmp_path, batch)
        assert (got["w_code"], got["w_tf"]) == (w_code, 4)
        assert got["n_terms"] == n_terms
        assert 65_536 in canonical_postings(got["ix"]).column("tf").to_pylist()

    @pytest.mark.parametrize("n_docs,w_ord", [(65_536, 2), (65_537, 4)])
    def test_doc_count_boundary_matches_reference(self, tmp_path, n_docs, w_ord):
        """One map slice holds exactly `n_docs` one-word documents (doc
        ordinals 0..n_docs-1): 65,536 fit 2-byte ordinals, one more needs 4;
        the two-phase build equals `build_partition` either way."""
        batch = _adapter_pages(
            [f"https://d.example.com/{i}" for i in range(n_docs)],
            [1_700_000_000_000_000] * n_docs,
            [f"w{i % 97}" for i in range(n_docs)],
        )
        got = self._spill_equals_reference(tmp_path, batch)
        assert (got["w_code"], got["w_ord"], got["w_tf"]) == (2, w_ord, 2)
        assert (got["n_docs"], got["n_terms"]) == (n_docs, 97)


class TestSpillRouting:
    """Multi-node safety of the two-phase build's shuffle spill (node-local
    tmpfs is only a valid spill when there is exactly one node — nothing
    fetches partials across nodes, unlike a Spark shuffle service)."""

    def test_single_node_prefers_tmpfs_or_local(self, tmp_path, monkeypatch):
        from flatnav_ray.pipelines import build as bmod

        monkeypatch.delenv("FLATNAV_SPILL_ROOT", raising=False)
        monkeypatch.setattr(bmod, "_is_multi_node", lambda: False)
        d = bmod._pick_spill_dir(str(tmp_path / "ix"))
        assert d.startswith("/dev/shm") or d.endswith("_partials")

    def test_multi_node_routes_to_shared_index_dir(self, tmp_path, monkeypatch):
        from flatnav_ray.pipelines import build as bmod

        monkeypatch.delenv("FLATNAV_SPILL_ROOT", raising=False)
        monkeypatch.setattr(bmod, "_is_multi_node", lambda: True)
        ix = str(tmp_path / "ix")
        assert bmod._pick_spill_dir(ix) == f"{ix}/_partials"

    def test_explicit_spill_root_always_wins(self, tmp_path, monkeypatch):
        from flatnav_ray.pipelines import build as bmod

        monkeypatch.setenv("FLATNAV_SPILL_ROOT", str(tmp_path / "shared"))
        for multi in (False, True):
            monkeypatch.setattr(bmod, "_is_multi_node", lambda m=multi: m)
            assert bmod._pick_spill_dir(str(tmp_path / "ix")).startswith(
                str(tmp_path / "shared")
            )

    def test_build_identical_across_spill_locations(
        self, ray_session, small_corpus, tmp_path, monkeypatch
    ):
        """Same corpus through the tmpfs spill and the shared-dir spill (the
        multi-node route) -> byte-identical canonical postings."""
        import ray.data

        pages, _ = small_corpus
        monkeypatch.delenv("FLATNAV_SPILL_ROOT", raising=False)
        ix1 = str(tmp_path / "ix_default")
        build_index(ray.data.from_arrow(pages), ix1, IndexConfig(num_partitions=6))
        from flatnav_ray.pipelines import build as bmod

        monkeypatch.setattr(bmod, "_is_multi_node", lambda: True)
        ix2 = str(tmp_path / "ix_shared")
        build_index(ray.data.from_arrow(pages), ix2, IndexConfig(num_partitions=6))
        assert canonical_postings(ix1).equals(canonical_postings(ix2))


class TestMergeFanout:
    def test_fanout_merge_identical_to_driver_merge(self, built_index, monkeypatch):
        """The query-range fan-out merge (big batches) must return exactly
        what the driver-side lexsort merge returns."""
        from flatnav_ray.stages import search as smod
        from flatnav_ray.stages.search import SearchSession

        ix, _, _, queries = built_index
        sess = SearchSession(ix, num_actors=4)
        try:
            base = sess.search(queries, QueryConfig(k=10))
            monkeypatch.setattr(smod, "_MERGE_FANOUT_ROWS", 1)
            fanned = sess.search(queries, QueryConfig(k=10))
            assert fanned.equals(base)
        finally:
            sess.shutdown()
