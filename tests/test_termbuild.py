"""Term-partitioned build: groupby(term) shuffle + heavy-hitter salting +
hierarchical sub-list merge (north_rule checklist; SURVEY.md §4 skew table).

The canonical postings of the term layout must equal the doc layout's —
the two layouts are reorderings of the same index (graft of the reference's
reorder capability, Index.h:412-427), and the term-index search must be
rank-identical to the shard search."""

import numpy as np
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.pipelines.query import search_to_table
from flatnav_ray.stages.introspect import canonical_postings
from flatnav_ray.stages.termbuild import (
    TermIndexSearcher,
    build_term_index,
    canonical_term_postings,
)


@pytest.fixture(scope="module")
def both_indexes(ray_session, small_corpus, tmp_path_factory):
    import ray.data

    pages, queries = small_corpus
    base = tmp_path_factory.mktemp("term_ix")
    doc_ix = str(base / "doc")
    term_ix = str(base / "term")
    build_index(ray.data.from_arrow(pages), doc_ix, IndexConfig(num_partitions=8))
    # salt threshold low enough that Zipf-head terms actually get salted
    stats = build_term_index(
        ray.data.from_arrow(pages), term_ix,
        IndexConfig(num_partitions=8, layout="term"), salt_threshold=100,
    )
    return doc_ix, term_ix, stats, pages, queries


class TestTermLayout:
    def test_salting_engaged(self, both_indexes):
        _, _, stats, _, _ = both_indexes
        assert stats["n_heavy_terms"] > 0  # Zipf head got salted

    def test_segments_hold_the_posting_columns_and_dl_blob(self, both_indexes):
        import glob
        import os

        import pyarrow.parquet as pq

        from flatnav_ray.functions.codec import TF_CODEC, TF_CODEC_KEY
        from flatnav_ray.stages.build import POSTING_COLUMNS

        _, term_ix, *_ = both_indexes
        files = glob.glob(os.path.join(term_ix, "term_segments", "*.parquet"))
        assert files
        for f in files:
            assert pq.read_schema(f).names == [*POSTING_COLUMNS, "dl_blob"]
            assert pq.read_schema(f).metadata[TF_CODEC_KEY] == TF_CODEC
            # the one writer setting of every index file: zstd, a dictionary
            # for df only, the term column front-coded
            md = pq.ParquetFile(f).metadata
            for g in range(md.num_row_groups):
                for c in range(md.num_columns):
                    col = md.row_group(g).column(c)
                    name = col.path_in_schema
                    assert col.compression == "ZSTD", (f, name)
                    assert col.has_dictionary_page == (name == "df"), (f, name)
                    assert ("DELTA_BYTE_ARRAY" in col.encodings) == (name == "term"), (f, name)

    def test_canonical_postings_equal_doc_layout(self, both_indexes):
        doc_ix, term_ix, *_ = both_indexes
        a = canonical_postings(doc_ix)
        b = canonical_term_postings(term_ix)
        assert a.equals(b)

    def test_term_search_rank_identical(self, both_indexes):
        doc_ix, term_ix, _, _, queries = both_indexes
        a = search_to_table(doc_ix, queries, QueryConfig(k=10))
        b = TermIndexSearcher(term_ix).search(queries, k=10)
        assert a.column("doc_id").to_pylist() == b.column("doc_id").to_pylist()
        np.testing.assert_allclose(
            a.column("score").to_numpy(), b.column("score").to_numpy(), rtol=0, atol=1e-9
        )


class TestTermBuildResume:
    def test_completed_build_skipped(self, both_indexes, small_corpus):
        import ray.data

        _, term_ix, stats, pages, _ = both_indexes
        again = build_term_index(
            ray.data.from_arrow(pages), term_ix,
            IndexConfig(num_partitions=8, layout="term"), salt_threshold=100,
        )
        assert again.get("resumed") is True
        assert again["n_docs"] == stats["n_docs"]
        assert canonical_term_postings(term_ix).num_rows > 0

    def test_config_change_rebuilds(self, both_indexes, small_corpus):
        import ray.data

        _, term_ix, _, pages, _ = both_indexes
        # different salt threshold -> fingerprint context differs -> rebuild
        again = build_term_index(
            ray.data.from_arrow(pages), term_ix,
            IndexConfig(num_partitions=8, layout="term"), salt_threshold=101,
        )
        assert "resumed" not in again
