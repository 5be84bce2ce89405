"""One-shot shard operations run as plain Ray tasks (pipelines/query.py).

* no one-shot operator builds a Ray Data actor pool: every call works with
  `Dataset.map_batches` disabled;
* the empty paths through the task fan-out (partitions without a segment
  file, queries whose terms are all unknown) return the same empty schemas
  as before;
* the distributed-merge fallback (partial sets above DRIVER_MERGE_MAX_ROWS)
  returns the same table as the driver-side merge.
"""

import os

import pyarrow as pa
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.pipelines import query as Q
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.sources.synth import pages_table


def _empty(**cols):
    return pa.table({name: pa.array([], type=typ) for name, typ in cols.items()})


@pytest.fixture(scope="module")
def task_index(ray_session, small_corpus, tmp_path_factory):
    import ray.data

    from flatnav_ray.stages.positions import build_position_sidecar

    pages, queries = small_corpus
    ix = str(tmp_path_factory.mktemp("oneshot") / "ix")
    cfg = IndexConfig(num_partitions=8)
    build_index(ray.data.from_arrow(pages), ix, cfg)
    build_position_sidecar(ray.data.from_arrow(pages), ix, cfg)
    return ix, queries.slice(0, 10)


@pytest.fixture(scope="module")
def sparse_index(ray_session, tmp_path_factory):
    """Three docs over eight partitions: most partitions have no segment."""
    import ray.data

    ix = str(tmp_path_factory.mktemp("oneshot") / "sparse")
    pages = pages_table(3, seed=5, vocab_size=50, mean_len=8)
    build_index(ray.data.from_arrow(pages), ix, IndexConfig(num_partitions=8))
    return ix


def test_no_oneshot_op_builds_an_actor_pool(task_index, monkeypatch):
    import ray.data

    ix, queries = task_index

    def _no_pool(self, *a, **kw):
        raise AssertionError("a one-shot query op called Dataset.map_batches")

    monkeypatch.setattr(ray.data.Dataset, "map_batches", _no_pool)
    cfg = QueryConfig(k=5)
    outs = {
        "search_to_table": Q.search_to_table(ix, queries, cfg),
        "facet_counts": Q.facet_counts(ix, queries),
        "match_stats": Q.match_stats(ix, queries),
        "prefix_doc_counts": Q.prefix_doc_counts(ix, ["a", "b"]),
        "suggest_terms": Q.suggest_terms(ix, ["a", "b"]),
        "search_collapsed": Q.search_collapsed(ix, queries, k=5),
        "federated_search": Q.federated_search([ix], queries, cfg),
        "search_with_snippets": Q.search_with_snippets(ix, queries, cfg),
    }
    assert all(len(t) for t in outs.values()), {k: len(t) for k, t in outs.items()}


def test_empty_paths_keep_their_schemas(sparse_index):
    from flatnav_ray.state.stats import load_stats
    from flatnav_ray.stages.build import segment_path

    ix = sparse_index
    parts = load_stats(ix)["partitions"]
    assert any(not os.path.exists(segment_path(ix, p)) for p in range(8))
    assert parts, "the sparse index has no partitions at all"
    unknown = pa.table(
        {
            "query_id": pa.array([0, 1], type=pa.int64()),
            "text": pa.array(["zzqunknown", "qqxnothere zzqunknown"], type=pa.string()),
        }
    )
    i64, s, f64 = pa.int64(), pa.string(), pa.float64()
    expect = {
        "search_to_table": (Q.search_to_table(ix, unknown, QueryConfig(k=5)), Q._EMPTY_RESULT),
        "federated_search": (
            Q.federated_search([ix, ix], unknown, QueryConfig(k=5)), Q._EMPTY_RESULT
        ),
        "facet_counts": (
            Q.facet_counts(ix, unknown), _empty(query_id=i64, lang=s, n_docs=i64)
        ),
        "facet_counts_len": (
            Q.facet_counts(ix, unknown, facet="len:4"),
            _empty(query_id=i64, bucket=i64, n_docs=i64),
        ),
        "match_stats": (
            Q.match_stats(ix, unknown),
            _empty(query_id=i64, n_docs=i64, dl_min=i64, dl_max=i64, dl_sum=i64,
                 dl_avg=f64),
        ),
        "significant_terms": (
            Q.significant_terms(ix, unknown),
            _empty(query_id=i64, term=s, match_df=i64, match_n=i64, df=i64, lift=f64),
        ),
        "prefix_doc_counts": (
            Q.prefix_doc_counts(ix, ["zzq"]), _empty(query_id=i64, n_docs=i64)
        ),
        "suggest_terms": (
            Q.suggest_terms(ix, ["zzq"]), _empty(query_id=i64, rank=i64, term=s, df=i64)
        ),
        "search_collapsed": (
            Q.search_collapsed(ix, unknown, k=5),
            _empty(query_id=i64, rank=i64, lang=s, doc_id=i64, score=f64),
        ),
    }
    for name, (got, want) in expect.items():
        assert got.equals(want), f"{name}: {got.schema} != {want.schema}"


def test_streaming_merge_fallback_equals_driver_merge(task_index, monkeypatch):
    ix, queries = task_index
    cfg = QueryConfig(k=5)
    driver = Q.search_to_table(ix, queries, cfg)
    fed_driver = Q.federated_search([ix], queries, cfg)
    monkeypatch.setattr(Q, "DRIVER_MERGE_MAX_ROWS", 0)
    assert Q.search_to_table(ix, queries, cfg).equals(driver)
    assert Q.federated_search([ix], queries, cfg).equals(fed_driver)
    assert len(driver)
