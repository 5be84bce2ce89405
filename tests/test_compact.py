"""Index merge/compaction (S8 graft): merging two disjoint-corpus indexes
must equal one index built over the union corpus."""

import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.pipelines.query import search_to_table
from flatnav_ray.stages.compact import merge_indexes
from flatnav_ray.stages.introspect import canonical_postings


def test_merge_two_indexes_equals_union_build(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data

    from flatnav_ray.sources.synth import PagesGenerator, queries_table

    gen = PagesGenerator(seed=7, vocab_size=2000, mean_len=50, dup_rate=0.0)
    a = gen.chunk(0, 400)
    b = gen.chunk(1, 400)
    cfg = IndexConfig(num_partitions=6)
    ix_a, ix_b = str(tmp_path / "a"), str(tmp_path / "b")
    ix_m, ix_u = str(tmp_path / "m"), str(tmp_path / "u")
    build_index(ray.data.from_arrow(a), ix_a, cfg)
    build_index(ray.data.from_arrow(b), ix_b, cfg)
    stats = merge_indexes([ix_a, ix_b], ix_m)
    build_index(ray.data.from_arrow(pa.concat_tables([a, b])), ix_u, cfg)
    assert canonical_postings(ix_m).equals(canonical_postings(ix_u))
    # merged index serves identical results
    q = queries_table(15, seed=3, vocab_size=2000)
    ra = search_to_table(ix_m, q, QueryConfig(k=10))
    rb = search_to_table(ix_u, q, QueryConfig(k=10))
    assert ra.equals(rb)
    assert stats["n_docs"] == 800


def test_add_documents_equals_union_build_and_upserts(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data

    from flatnav_ray.pipelines.ingest import add_documents
    from flatnav_ray.sources.synth import PagesGenerator, queries_table

    gen = PagesGenerator(seed=11, vocab_size=2000, mean_len=50, dup_rate=0.0)
    a = gen.chunk(0, 300)
    b = gen.chunk(1, 300)
    cfg = IndexConfig(num_partitions=6)
    ix, ix_u = str(tmp_path / "incr"), str(tmp_path / "union")
    build_index(ray.data.from_arrow(a), ix, cfg)
    stats = add_documents(ix, ray.data.from_arrow(b))  # in-place generation swap
    build_index(ray.data.from_arrow(pa.concat_tables([a, b])), ix_u, cfg)
    assert canonical_postings(ix).equals(canonical_postings(ix_u))
    q = queries_table(15, seed=5, vocab_size=2000)
    assert search_to_table(ix, q, QueryConfig(k=10)).equals(
        search_to_table(ix_u, q, QueryConfig(k=10))
    )
    assert stats["n_docs"] == 600

    # upsert: re-adding an existing url with new text replaces its postings
    import pyarrow.compute as pc

    row = a.slice(0, 1)
    url = row.column("url")[0].as_py()
    updated = row.set_column(
        row.schema.get_field_index("html"),
        "html",
        pa.array([b"<html><body><p>zzzreplacementterm only</p></body></html>"], pa.binary()),
    )
    add_documents(ix, ray.data.from_arrow(updated))
    qq = pa.table({"query_id": pa.array([0], pa.int64()), "text": pa.array(["zzzreplacementterm"])})
    hit = search_to_table(ix, qq, QueryConfig(k=5))
    assert len(hit) == 1 and hit.column("url")[0].as_py() == url


def test_block_size_mismatch_rejected(ray_session, tmp_path):
    """Merging indexes built with different block_size would silently corrupt
    postings (positions are block-absolute) — must be rejected up front."""
    import ray.data

    from flatnav_ray.sources.synth import PagesGenerator

    a = PagesGenerator(seed=1).chunk(0, 200)
    ix_a = str(tmp_path / "a")
    ix_b = str(tmp_path / "b")
    build_index(ray.data.from_arrow(a), ix_a, IndexConfig(num_partitions=2, block_size=128))
    build_index(ray.data.from_arrow(a), ix_b, IndexConfig(num_partitions=2, block_size=64))
    with pytest.raises(ValueError, match="block_size"):
        merge_indexes([ix_a, ix_b], str(tmp_path / "m"), IndexConfig(num_partitions=2, block_size=128))


def test_stacked_generations_serve_bit_identical_to_union_build(ray_session, tmp_path):
    """add_documents(mode='stack') builds only the delta; StackedSearchSession
    over [base, delta] must return results bit-identical to a SearchSession
    over the single union-built index — including an upsert collision (the
    base's copy of a re-added url must be shadowed in postings AND in the
    global n_docs/avgdl/df statistics)."""
    import os

    import pyarrow as pa
    import ray.data

    from flatnav_ray.pipelines.ingest import add_documents, list_generations
    from flatnav_ray.sources.synth import PagesGenerator, queries_table
    from flatnav_ray.stages.search import SearchSession, StackedSearchSession

    gen = PagesGenerator(seed=13, vocab_size=2000, mean_len=50, dup_rate=0.0)
    a = gen.chunk(0, 1200)
    b = gen.chunk(1, 80)
    # upsert: delta re-adds an existing url with different text
    row = a.slice(4, 1)
    updated = row.set_column(
        row.schema.get_field_index("html"),
        "html",
        pa.array([b"<html><body><p>zzzstacked replacement</p></body></html>"], pa.binary()),
    )
    delta = pa.concat_tables([b, updated])
    cfg = IndexConfig(num_partitions=6)
    ix = str(tmp_path / "stacked")
    build_index(ray.data.from_arrow(a), ix, cfg)
    base_bytes = sum(
        os.path.getsize(os.path.join(r, f))
        for r, _, fs in os.walk(ix) for f in fs
    )
    add_documents(ix, ray.data.from_arrow(delta), mode="stack")
    gens = list_generations(ix)
    assert len(gens) == 2
    delta_bytes = sum(
        os.path.getsize(os.path.join(r, f))
        for r, _, fs in os.walk(gens[1]) for f in fs
    )

    # union equivalent: base docs with the upserted row's NEW text
    union = pa.concat_tables([a.slice(0, 4), a.slice(5), b, updated])
    ix_u = str(tmp_path / "union")
    build_index(ray.data.from_arrow(union), ix_u, cfg)
    union_bytes = sum(
        os.path.getsize(os.path.join(r, f))
        for r, _, fs in os.walk(ix_u) for f in fs
    )
    # O(delta) ingest: the stacked add wrote a fraction of a full rebuild
    # (the remainder of delta_bytes is the per-partition parquet floor,
    # O(num_partitions), not O(corpus)); mode="compact" writes union_bytes
    assert delta_bytes < union_bytes / 2

    q = queries_table(20, seed=5, vocab_size=2000)
    q = pa.concat_tables(
        [q, pa.table({"query_id": pa.array([100], pa.int64()),
                      "text": pa.array(["zzzstacked"])})]
    )
    s_stack = StackedSearchSession(gens, num_actors=3)
    s_union = SearchSession(ix_u, num_actors=3)
    try:
        rs = s_stack.search(q, QueryConfig(k=10))
        ru = s_union.search(q, QueryConfig(k=10))
        assert rs.equals(ru)  # doc ids AND float64 scores, bit-identical
        # wand path over the stack stays exact too
        rw = s_stack.search(q, QueryConfig(k=10, method="wand"))
        assert rw.equals(ru)
        # packed urlless shuffle over a GENERATION STACK: winner urls must
        # resolve across generations (lookup_urls dedupes multi-gen hits)
        import flatnav_ray.stages.search as S

        old = S._INLINE_URL_ROWS
        S._INLINE_URL_ROWS = 0
        try:
            rp = s_stack.search(q, QueryConfig(k=10))
        finally:
            S._INLINE_URL_ROWS = old
        assert rp.equals(ru)
    finally:
        s_stack.shutdown()
        s_union.shutdown()


def test_stack_compaction_threshold(ray_session, tmp_path):
    """Once the stack would exceed compact_threshold generations, the next
    add folds everything into one generation first; results are unchanged."""
    import pyarrow as pa
    import ray.data

    from flatnav_ray.pipelines.ingest import add_documents, list_generations
    from flatnav_ray.sources.synth import PagesGenerator, queries_table
    from flatnav_ray.stages.search import SearchSession, StackedSearchSession

    gen = PagesGenerator(seed=17, vocab_size=1500, mean_len=40, dup_rate=0.0)
    chunks = [gen.chunk(i, 120) for i in range(4)]
    cfg = IndexConfig(num_partitions=4)
    ix = str(tmp_path / "thr")
    build_index(ray.data.from_arrow(chunks[0]), ix, cfg)
    for c in chunks[1:3]:
        add_documents(ix, ray.data.from_arrow(c), mode="stack", compact_threshold=3)
    assert len(list_generations(ix)) == 3
    # 4th generation would exceed the threshold -> compact, then stack
    add_documents(ix, ray.data.from_arrow(chunks[3]), mode="stack", compact_threshold=3)
    gens = list_generations(ix)
    assert len(gens) == 2  # compacted base + the fresh delta

    ix_u = str(tmp_path / "u")
    build_index(ray.data.from_arrow(pa.concat_tables(chunks)), ix_u, cfg)
    q = queries_table(10, seed=9, vocab_size=1500)
    sess = StackedSearchSession(gens, num_actors=2)
    s_union = SearchSession(ix_u, num_actors=2)
    try:
        assert sess.search(q, QueryConfig(k=10)).equals(
            s_union.search(q, QueryConfig(k=10))
        )
    finally:
        sess.shutdown()
        s_union.shutdown()


def test_stack_compaction_size_ratio(ray_session, tmp_path):
    """Tiered trigger: once the stacked deltas' on-disk bytes reach
    compact_ratio x the base's, the next add compacts first — even though the
    generation COUNT stays far below compact_threshold. Results unchanged."""
    import pyarrow as pa
    import ray.data

    from flatnav_ray.pipelines.ingest import (
        add_documents,
        list_generations,
        stack_size_bytes,
    )
    from flatnav_ray.sources.synth import PagesGenerator, queries_table
    from flatnav_ray.stages.search import SearchSession, StackedSearchSession

    gen = PagesGenerator(seed=23, vocab_size=1500, mean_len=40, dup_rate=0.0)
    base = gen.chunk(0, 100)
    deltas = [gen.chunk(i, 100) for i in range(1, 4)]  # each delta ~ base-sized
    cfg = IndexConfig(num_partitions=4)
    ix = str(tmp_path / "ratio")
    build_index(ray.data.from_arrow(base), ix, cfg)
    # first delta stacks (no deltas on disk yet -> ratio can't trigger)
    add_documents(ix, ray.data.from_arrow(deltas[0]), mode="stack",
                  compact_threshold=100, compact_ratio=0.5)
    assert len(list_generations(ix)) == 2
    base_b, delta_b = stack_size_bytes(ix)
    assert delta_b >= 0.5 * base_b  # a base-sized delta trips the 0.5 ratio
    # second add: ratio trips -> compact, then stack the fresh delta
    add_documents(ix, ray.data.from_arrow(deltas[1]), mode="stack",
                  compact_threshold=100, compact_ratio=0.5)
    gens = list_generations(ix)
    assert len(gens) == 2  # compacted base + the fresh delta
    add_documents(ix, ray.data.from_arrow(deltas[2]), mode="stack",
                  compact_threshold=100, compact_ratio=0.5)
    gens = list_generations(ix)
    assert len(gens) == 2

    ix_u = str(tmp_path / "u_ratio")
    build_index(ray.data.from_arrow(pa.concat_tables([base] + deltas)), ix_u, cfg)
    q = queries_table(10, seed=11, vocab_size=1500)
    sess = StackedSearchSession(gens, num_actors=2)
    s_union = SearchSession(ix_u, num_actors=2)
    try:
        assert sess.search(q, QueryConfig(k=10)).equals(
            s_union.search(q, QueryConfig(k=10))
        )
    finally:
        sess.shutdown()
        s_union.shutdown()


def test_recover_generation_rolls_forward_and_back(ray_session, tmp_path):
    """Crash between the two swap renames leaves index_dir missing with
    .old-<tag> (and maybe a complete .gen-<tag>) beside it; opening the index
    must repair the state (ADVICE r2)."""
    import os
    import shutil

    import ray.data

    from flatnav_ray.pipelines.ingest import recover_generation
    from flatnav_ray.sources.synth import PagesGenerator
    from flatnav_ray.state.stats import load_stats

    a = PagesGenerator(seed=2).chunk(0, 150)
    ix = str(tmp_path / "ix")
    build_index(ray.data.from_arrow(a), ix, IndexConfig(num_partitions=2))

    # forward: complete .gen exists (stats.json present)
    gen = f"{ix}.gen-deadbeef"
    shutil.copytree(ix, gen)
    os.rename(ix, f"{ix}.old-deadbeef")
    assert recover_generation(ix) == "forward"
    assert os.path.exists(os.path.join(ix, "stats.json"))
    assert not os.path.exists(gen) and not os.path.exists(f"{ix}.old-deadbeef")
    n_docs = load_stats(ix)["n_docs"]

    # back: .gen is torn (no stats.json) -> old generation restored
    gen = f"{ix}.gen-cafe0001"
    shutil.copytree(ix, gen)
    os.remove(os.path.join(gen, "stats.json"))
    os.rename(ix, f"{ix}.old-cafe0001")
    assert recover_generation(ix) == "back"
    assert load_stats(ix)["n_docs"] == n_docs
    assert not os.path.exists(gen)

    # intact index: no-op
    assert recover_generation(ix) is None


def _stacked_corpus(tmp_path, seed):
    """A two-generation stack and the brute-force oracle inputs over it."""
    import pyarrow as pa
    import ray.data

    from flatnav_ray.pipelines.build import prepare_batch
    from flatnav_ray.pipelines.ingest import add_documents
    from flatnav_ray.sources.synth import PagesGenerator, queries_table
    from flatnav_ray.stages.build import dedup_latest

    gen = PagesGenerator(seed=seed, vocab_size=1500, mean_len=40, dup_rate=0.0)
    a, b = gen.chunk(0, 240), gen.chunk(1, 60)
    ix = str(tmp_path / f"stack{seed}")
    build_index(ray.data.from_arrow(a), ix, IndexConfig(num_partitions=8))
    add_documents(ix, ray.data.from_arrow(b), mode="stack")
    docs = dedup_latest(prepare_batch(pa.concat_tables([a, b]), 8, None))
    return ix, docs.select(["doc_id", "text"]), queries_table(12, seed=seed + 1, vocab_size=1500)


def _assert_oracle(got, docs, queries, k=10):
    import numpy as np

    from flatnav_ray.pipelines.oracle import brute_force_topk

    want = brute_force_topk(docs, queries, k=k)
    for col in ("query_id", "rank", "doc_id"):
        assert got.column(col).to_pylist() == want.column(col).to_pylist()
    np.testing.assert_allclose(
        got.column("score").to_numpy(), want.column("score").to_numpy(), rtol=0, atol=1e-9
    )


def _wait_dead(actor, timeout_s=60.0):
    """Block until a ray.kill has landed (the kill is asynchronous)."""
    import time

    import ray

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            ray.get(actor.__ray_ready__.remote(), timeout=5)
        except ray.exceptions.RayActorError:
            return
        time.sleep(0.1)
    raise AssertionError("killed actor still answers")


def test_dead_shard_actor_respawns_and_retries(ray_session, tmp_path):
    """ray.kill one actor of a 4-actor stacked session between calls: the
    next search respawns it with its partition group (same files, same
    masks) and answers exactly like the oracle."""
    import ray

    from flatnav_ray.pipelines.ingest import open_session

    ix, docs, queries = _stacked_corpus(tmp_path, 81)
    sess = open_session(ix, num_actors=4)
    try:
        _assert_oracle(sess.search(queries, QueryConfig(k=10)), docs, queries)
        dead = sess.actors[2]
        ray.kill(dead)
        _wait_dead(dead)
        sess._df_cache.clear()  # the first call to fail is the dead peer's live df
        _assert_oracle(sess.search(queries, QueryConfig(k=10)), docs, queries)
        assert sess.actors[2] is not dead and len(sess.actors) == 4
        dead = sess.actors[0]
        ray.kill(dead)
        _wait_dead(dead)  # df now cached: the first call to fail is the search
        _assert_oracle(sess.search(queries, QueryConfig(k=10)), docs, queries)
        assert sess.actors[0] is not dead
    finally:
        sess.shutdown()


def test_dead_idle_actor_replaced_on_open(ray_session, tmp_path):
    """A pooled actor that died while idle is replaced at acquire time."""
    import ray

    from flatnav_ray.pipelines.ingest import open_session
    from flatnav_ray.stages.search import _POOL

    ix, docs, queries = _stacked_corpus(tmp_path, 91)
    sess = open_session(ix, num_actors=2)
    sess.shutdown()
    for actor, _ in _POOL["idle"]:
        ray.kill(actor)
        _wait_dead(actor)
    sess = open_session(ix, num_actors=2)
    try:
        assert sess.files_reused == 0
        _assert_oracle(sess.search(queries, QueryConfig(k=10)), docs, queries)
    finally:
        sess.shutdown()


def test_idle_pool_capped_at_cluster_cpus(ray_session, tmp_path):
    """Idle actors never exceed the cluster's CPU count: releasing more
    kills the oldest."""
    import ray

    from flatnav_ray.pipelines.ingest import open_session
    from flatnav_ray.stages.search import _POOL

    ix, _, _ = _stacked_corpus(tmp_path, 95)
    cpus = int(ray.cluster_resources()["CPU"])
    sessions = [open_session(ix, num_actors=cpus) for _ in range(2)]
    for s in sessions:
        s.shutdown()
    assert len(_POOL["idle"]) == cpus
    ray.get([a.__ray_ready__.remote() for a, _ in _POOL["idle"]])


_RESTART_SCRIPT = """
import sys
import pyarrow as pa
import ray, ray.data
from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.pipelines.ingest import open_session
from flatnav_ray.sources.synth import PagesGenerator

def init():
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")

q = pa.table({"query_id": pa.array([0], pa.int64()), "text": pa.array([sys.argv[1]])})
ix = sys.argv[2]
init()
pages = PagesGenerator(seed=3, vocab_size=500, mean_len=30).chunk(0, 80)
build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=2))
sess = open_session(ix)
first = sess.search(q, QueryConfig(k=5))
sess.shutdown()
ray.shutdown()
init()
sess = open_session(ix)
assert sess.files_loaded == 2 and sess.files_reused == 0, (sess.files_loaded, sess.files_reused)
assert sess.search(q, QueryConfig(k=5)).equals(first) and len(first)
sess.shutdown()
ray.shutdown()
print("OK")
"""


def test_open_session_after_ray_restart(tmp_path):
    """After ray.shutdown() + ray.init() the pool drops the old cluster's
    handles and open_session spawns fresh actors. Runs in a subprocess so the
    test session's own cluster is untouched."""
    import os
    import subprocess
    import sys

    from flatnav_ray.functions.tokenize import tokenize_py
    from flatnav_ray.sources.synth import PagesGenerator

    term = tokenize_py(
        PagesGenerator(seed=3, vocab_size=500, mean_len=30).chunk(0, 1).column("text")[0].as_py()
    )[0]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    out = subprocess.run(
        [sys.executable, "-c", _RESTART_SCRIPT, term, str(tmp_path / "ix")], env=env, cwd=repo,
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0 and out.stdout.strip().endswith("OK"), out.stderr[-3000:]
