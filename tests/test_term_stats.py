"""The global (term, df) table: both aggregation branches of
`_build_term_stats` write the same rows, term-sorted, zstd-compressed and
without dictionary pages, through tmp+rename; `lookup_term_df` reads it by
row-group pruning across many row groups; an empty index still gets a
typed table."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from flatnav_ray.pipelines import build as pipeline
from flatnav_ray.state.stats import lookup_term_df, term_stats_dir

N_TERMS = 70_000  # more than one 65,536-row group


def _segments(ix: str, n_terms: int = N_TERMS, parts: int = 3) -> pa.Table:
    """Write `parts` segment files of overlapping (term, df) rows (all the
    term-stats pass reads) and return the summed table it must produce."""
    rng = np.random.default_rng(7)
    terms = np.array([f"t{i:06d}" for i in range(n_terms)], dtype=object)
    total = np.zeros(n_terms, dtype=np.int64)
    os.makedirs(os.path.join(ix, "segments"))
    for p in range(parts):
        rows = np.sort(rng.choice(n_terms, size=n_terms * 2 // 3, replace=False))
        df = rng.integers(1, 1000, rows.size).astype(np.int32)
        np.add.at(total, rows, df)
        pq.write_table(
            pa.table({"term": pa.array(terms[rows], pa.string()), "df": pa.array(df, pa.int32())}),
            os.path.join(ix, "segments", f"part-{p:05d}.parquet"),
        )
    seen = total > 0
    return pa.table({"term": pa.array(terms[seen], pa.string()), "df": pa.array(total[seen])})


def _written(ix: str) -> tuple[pa.Table, list[str]]:
    d = term_stats_dir(ix)
    assert sorted(os.listdir(ix)) in (["segments", "term_stats"], ["term_stats"])
    names = sorted(os.listdir(d))
    assert names and not [n for n in names if ".tmp-" in n], names
    for n in names:
        meta = pq.ParquetFile(os.path.join(d, n)).metadata
        for g in range(meta.num_row_groups):
            assert meta.row_group(g).num_rows <= pipeline.TERMSTATS_ROW_GROUP
            for c in range(meta.num_columns):
                col = meta.row_group(g).column(c)
                name = col.path_in_schema  # the index writer: a dictionary for df only,
                assert col.compression == "ZSTD", (n, col)  # the terms front-coded
                if col.num_values:  # an empty chunk has no pages
                    assert col.has_dictionary_page == (name == "df"), (n, col)
                    assert ("DELTA_BYTE_ARRAY" in col.encodings) == (name == "term"), (n, col)
    t = pa.concat_tables(pq.read_table(os.path.join(d, n)) for n in names)
    return t, names


def test_driver_side_table_spans_row_groups_and_serves_lookups(tmp_path):
    ix = str(tmp_path / "ix")
    want = _segments(ix)
    pipeline._build_term_stats(ix)
    got, names = _written(ix)
    assert names == ["term_stats.parquet"]
    assert got.equals(want)  # term-sorted, (string, int64)
    assert pq.ParquetFile(os.path.join(term_stats_dir(ix), names[0])).metadata.num_row_groups > 1

    oracle = dict(zip(want.column("term").to_pylist(), want.column("df").to_pylist()))
    rng = np.random.default_rng(8)
    asked = [f"t{i:06d}" for i in rng.choice(N_TERMS + 500, size=600, replace=False)]
    asked += ["", "t", "zzz", want.column("term")[0].as_py(), want.column("term")[-1].as_py()]
    assert lookup_term_df(ix, asked) == {t: oracle[t] for t in asked if t in oracle}


def test_ray_data_branch_writes_the_driver_rows(ray_session, tmp_path, monkeypatch):
    ix = str(tmp_path / "ix")
    want = _segments(ix, n_terms=5_000)
    pipeline._build_term_stats(ix)
    driver, _ = _written(ix)
    assert driver.equals(want)
    monkeypatch.setattr(pipeline, "DRIVER_SIDE_TERMSTATS_ROWS", 0)
    pipeline._build_term_stats(ix)
    got, _ = _written(ix)
    assert got.sort_by("term").equals(driver)
    terms = want.column("term").to_pylist()[::50] + ["absent"]
    assert lookup_term_df(ix, terms) == dict(zip(
        want.column("term").to_pylist()[::50], want.column("df").to_pylist()[::50]
    ))


def test_empty_index_gets_a_typed_table(tmp_path):
    ix = str(tmp_path / "ix")
    os.makedirs(ix)
    pipeline._build_term_stats(ix)
    got, names = _written(ix)
    assert names == ["term_stats.parquet"]
    assert got.num_rows == 0
    assert got.schema.equals(pa.schema([("term", pa.string()), ("df", pa.int64())]))
    assert lookup_term_df(ix, ["a"]) == {}
