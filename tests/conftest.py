import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus():
    """The 'small' fixture (FIXTURES.md §1) at test-friendly scale."""
    from flatnav_ray.sources.synth import pages_table, queries_table

    pages = pages_table(600, seed=42, vocab_size=2000, mean_len=60)
    queries = queries_table(40, seed=43, vocab_size=2000)
    return pages, queries


@pytest.fixture(scope="session")
def phrase_index(ray_session, tmp_path_factory):
    """A 600-page index over a small vocabulary (so bigrams repeat across
    docs: non-trivial top-k), 4 partitions, with its positional sidecar;
    returns (index_dir, IndexConfig, pages)."""
    import pyarrow.parquet as pq
    import ray.data

    from flatnav_ray.config import IndexConfig
    from flatnav_ray.pipelines.build import build_index
    from flatnav_ray.sources.synth import pages_table
    from flatnav_ray.stages.positions import build_position_sidecar

    pages = pages_table(600, seed=11, vocab_size=400, mean_len=40)
    pdir = tmp_path_factory.mktemp("phrase_pages")
    pq.write_table(pages, str(pdir / "p0.parquet"))
    ix = str(tmp_path_factory.mktemp("phrase_ix") / "ix")
    cfg = IndexConfig(num_partitions=4)
    build_index(ray.data.read_parquet(str(pdir)), ix, cfg)
    man = build_position_sidecar(ray.data.read_parquet(str(pdir)), ix, cfg)
    assert len(man) >= 1 and not man.column("skipped").to_pylist()[0]
    return ix, cfg, pages
