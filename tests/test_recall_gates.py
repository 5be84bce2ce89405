"""Recall-floor driver gates for the approximate ANN family.

The reference gates its approximate index on recall vs brute force
(python-bindings/unit_tests/test_index.py:62, compute_recall >= 0.97);
these tests hold the same contract for the driver-checkable entries:
the emitted table must carry the TRUE exact top-k and a clamped overlap
that equals the floor for every query (i.e. recall clears the floor).
The gates' input helpers fail loud on inputs they cannot value."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


class TestRecallFloorTable:
    def test_overlap_math_synthetic(self, ray_session):
        # hand-built approx table: query 0 hits 10/10 exact, query 1 hits a
        # disjoint id range -> clamp must floor query 0 and report query 1 low
        from flatnav_ray.pipelines.documents import _recall_floor_table, knn_cosine

        exact = knn_cosine(SF)
        q0 = exact.filter(pa.compute.equal(exact.column("query_id"), 0))
        fake = pa.table({
            "query_id": pa.array([0] * 10 + [1] * 10, type=pa.int64()),
            "rank": pa.array(list(range(10)) * 2, type=pa.int64()),
            "vec_id": pa.array(
                q0.column("vec_id").to_pylist() + list(range(100000, 100010)),
                type=pa.int64(),
            ),
        })
        out = _recall_floor_table(fake, SF, k=10, n_queries=10, floor=4)
        ov = dict(zip(out.column("query_id").to_pylist(),
                      out.column("overlap_at_least").to_pylist()))
        assert ov[0] == 4      # clamped at floor
        assert ov[1] == 0      # disjoint ids -> zero overlap
        # the exact reference rows are exactly knn_cosine's
        assert out.select(["query_id", "rank", "vec_id"]).equals(exact)

    @pytest.mark.parametrize("name,floor", [
        ("knn_ivf_recall", 4), ("knn_ivfpq_recall", 4), ("knn_nsw_recall", 9),
    ])
    def test_floor_holds(self, ray_session, name, floor):
        from flatnav_ray.pipelines import documents as d

        out = getattr(d, name)(SF)
        ov = np.asarray(out.column("overlap_at_least").to_pylist())
        assert (ov == floor).all(), f"{name}: some query below floor {floor}: {ov}"

    def test_lsh_recall_gate(self, ray_session):
        from flatnav_ray.pipelines.documents import embedding_dups_lsh_recall

        out = embedding_dups_lsh_recall(SF)
        row = {c: out.column(c)[0].as_py() for c in out.column_names}
        assert row["false_pairs"] == 0          # precision 1.0
        assert row["found_true_at_least"] == 300  # recall floor met (clamped)
        assert row["n_exact_pairs"] > 300


class TestDriverEntryGuards:
    def test_q6_rejects_non_finite(self):
        from flatnav_ray.pipelines.documents import _q6

        assert _q6(np.array([1.5, -2.25, 0.0])).tolist() == [1_500_000, -2_250_000, 0]
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                _q6(np.array([1.0, bad]))

    def test_lsh_recall_gate_rejects_unknown_vec_id(self, ray_session, monkeypatch):
        import pyarrow.parquet as pq

        from flatnav_ray.pipelines import documents as d

        vid = np.sort(pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id"])
                      .column("vec_id").to_numpy())
        absent = int(vid[-1]) + 1000
        pairs = pa.table({
            "doc_a": pa.array([vid[0], vid[2]], type=pa.int64()),
            "doc_b": pa.array([vid[1], absent], type=pa.int64()),
        })
        monkeypatch.setattr(d, "embedding_dups_lsh", lambda sf_dir, threshold: pairs)
        with pytest.raises(ValueError, match=rf"1 vec_id\(s\) absent.*\[{absent}\]"):
            d.embedding_dups_lsh_recall(SF)
