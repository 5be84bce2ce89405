"""LM Dirichlet similarity (the third pluggable scorer — Lucene
LMDirichletSimilarity semantics; graft of the reference's pluggable distance
family, /root/reference/include/flatnav/distances/DistanceInterface.h:22-59).

Oracle: an independent per-doc python loop over the tokenized corpus using
the identical libm float ops (math.log), so score equality is EXACT, not
approximate. Also pins: method identity (taat == maxscore == wand), the lazy
cf loader, and the synonyms guard.
"""

from __future__ import annotations

import math
import shutil
from collections import Counter

import numpy as np
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.functions.tokenize import tokenize_py
from flatnav_ray.pipelines.build import build_index, prepare_batch
from flatnav_ray.pipelines.query import search_to_table
from flatnav_ray.stages.build import dedup_latest

MU = 2000.0


@pytest.fixture(scope="module")
def lmd_index(ray_session, small_corpus, tmp_path_factory):
    import ray.data

    pages, queries = small_corpus
    ix = str(tmp_path_factory.mktemp("lmdix") / "main")
    shutil.rmtree(ix, ignore_errors=True)
    build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=5))
    return ix, pages, queries


def _brute_lmd(pages, queries, k):
    deduped = dedup_latest(prepare_batch(pages, 5, None))
    docs = deduped.column("doc_id").to_pylist()
    texts = deduped.column("text").to_pylist()
    tfs, dls = {}, {}
    cf: Counter = Counter()
    total = 0
    for d, t in zip(docs, texts):
        toks = tokenize_py(t)
        tfs[d] = Counter(toks)
        dls[d] = len(toks)
        cf.update(toks)
        total += len(toks)
    rows = []
    for qi, qtext in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        qc = Counter(tokenize_py(qtext))
        scored = []
        for d in docs:
            s = 0.0
            matched = False
            for term in sorted(qc):
                tf = tfs[d].get(term, 0)
                if tf == 0 or cf[term] == 0:
                    continue
                matched = True
                mup = MU * (cf[term] / total)
                s += qc[term] * max(
                    math.log(1.0 + (tf / mup)) + math.log(MU / (MU + dls[d])), 0.0
                )
            if matched:
                scored.append((-s, d))
        scored.sort()
        for r, (negs, d) in enumerate(scored[:k]):
            rows.append((qi, r, d, -negs))
    return sorted(rows)


def test_lmd_exact_vs_brute_force(lmd_index):
    ix, pages, queries = lmd_index
    out = search_to_table(ix, queries, QueryConfig(k=8, scorer="lmd"))
    got = sorted(
        zip(
            out.column("query_id").to_pylist(),
            out.column("rank").to_pylist(),
            out.column("doc_id").to_pylist(),
            out.column("score").to_pylist(),
        )
    )
    want = _brute_lmd(pages, queries, k=8)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:3] == w[:3]
        assert g[3] == w[3]  # exact float64 equality (libm on both sides)


def test_lmd_method_identity(lmd_index):
    ix, pages, queries = lmd_index
    base = search_to_table(ix, queries, QueryConfig(k=8, scorer="lmd", method="taat"))
    for m in ("maxscore", "wand"):
        out = search_to_table(ix, queries, QueryConfig(k=8, scorer="lmd", method=m))
        assert base.column("doc_id").to_pylist() == out.column("doc_id").to_pylist()
        assert base.column("score").to_pylist() == out.column("score").to_pylist()


def test_lmd_synonyms_rejected(lmd_index):
    ix, pages, queries = lmd_index
    toks = tokenize_py(queries.column("text")[0].as_py())
    syn = {toks[0]: (toks[0] + "x",)} if toks else {"a": ("b",)}
    with pytest.raises(ValueError, match="lmd"):
        search_to_table(
            ix, queries.slice(0, 1), QueryConfig(k=5, scorer="lmd", synonyms=syn)
        )


def test_lmd_scores_nonnegative_and_sorted(lmd_index):
    ix, pages, queries = lmd_index
    out = search_to_table(ix, queries, QueryConfig(k=8, scorer="lmd"))
    sc = np.asarray(out.column("score").to_pylist())
    assert (sc >= 0.0).all()


def test_lmd_rejected_on_generation_stack(ray_session, small_corpus, tmp_path_factory):
    """cf over a stack would double-count shadowed docs — must raise. So
    must cf over one generation with tombstones: the stored cf and corpus
    length still count the deleted docs."""
    import ray.data

    from flatnav_ray.pipelines.ingest import add_documents, delete_documents, open_session

    pages, queries = small_corpus
    half = len(pages) // 2
    for case in ("delta stack", "tombstones only"):
        ix = str(tmp_path_factory.mktemp("lmdstack") / "main")
        build_index(ray.data.from_arrow(pages.slice(0, half)), ix, IndexConfig(num_partitions=4))
        if case == "delta stack":
            add_documents(ix, ray.data.from_arrow(pages.slice(half)), mode="stack")
        else:
            delete_documents(ix, urls=pages.column("url").to_pylist()[:5])
        sess = open_session(ix, num_actors=2)
        try:
            assert len(getattr(sess, "index_dirs", [ix])) == (2 if case == "delta stack" else 1)
            with pytest.raises(ValueError, match="generation stack"):
                sess.search(queries.slice(0, 2), QueryConfig(k=5, scorer="lmd"))
        finally:
            sess.shutdown()
