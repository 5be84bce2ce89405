"""SemDeDup (stages/dedup.semdedup): planted near-identical vectors must be
flagged keep-first; the distributed result must equal a numpy replica that
uses the same trained centroids."""

import numpy as np
import pyarrow as pa
import pytest


def _vec_table(mat: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "vec_id": pa.array(np.arange(mat.shape[0], dtype=np.int64)),
            "embedding": pa.array(
                [row.astype(np.float32) for row in mat], type=pa.list_(pa.float32())
            ),
        }
    )


@pytest.fixture(scope="module")
def planted(ray_session):
    rng = np.random.RandomState(3)
    base = rng.normal(size=(120, 16))
    # plant 3 duplicate families: ids (120,121) ~ id 0, (122,123) ~ id 1,
    # (124) ~ id 2 — tiny perturbations keep cosine ~0.999
    fam = np.concatenate(
        [
            base,
            base[0:1] + 1e-3 * rng.normal(size=(1, 16)),
            base[0:1] + 1e-3 * rng.normal(size=(1, 16)),
            base[1:2] + 1e-3 * rng.normal(size=(2, 16)),
            base[2:3] + 1e-3 * rng.normal(size=(1, 16)),
        ]
    )
    return fam


class TestSemDeDup:
    def test_planted_dups_flagged(self, planted):
        import ray.data

        from flatnav_ray.stages.dedup import semdedup

        out = semdedup(
            ray.data.from_arrow(_vec_table(planted)), n_clusters=8, tau=0.98
        )
        keep = dict(
            zip(out.column("vec_id").to_pylist(), out.column("keep").to_pylist())
        )
        dup_of = dict(
            zip(out.column("vec_id").to_pylist(), out.column("dup_of").to_pylist())
        )
        assert len(keep) == planted.shape[0]
        # originals (lowest id in each family) kept, clones flagged
        for orig, clones in ((0, (120, 121)), (1, (122, 123)), (2, (124,))):
            assert keep[orig]
            for c in clones:
                assert not keep[c], c
                assert dup_of[c] == orig

    def test_matches_numpy_replica(self, planted):
        import ray.data

        from flatnav_ray.stages.dedup import _normalize_rows, semdedup
        from flatnav_ray.stages.knn import IvfIndex

        tau, k = 0.5, 6
        ds = ray.data.from_arrow(_vec_table(planted))
        out = semdedup(ds, n_clusters=k, tau=tau)

        ivf = IvfIndex.train(
            ray.data.from_arrow(_vec_table(planted)), k, iters=10, sample=2048, seed=0
        )
        m = _normalize_rows(planted.astype(np.float64))
        assign = np.argmax(m @ ivf.centroids.T, axis=1)
        want_keep = {}
        want_dup = {}
        for c in np.unique(assign):
            ids = np.nonzero(assign == c)[0]
            kept: list[int] = []
            for j in ids:  # already ascending
                hit = next(
                    (i for i in kept if float(m[j] @ m[i]) >= tau), None
                )
                if hit is None:
                    kept.append(int(j))
                    want_keep[int(j)] = True
                    want_dup[int(j)] = -1
                else:
                    want_keep[int(j)] = False
                    want_dup[int(j)] = hit
        got_keep = dict(
            zip(out.column("vec_id").to_pylist(), out.column("keep").to_pylist())
        )
        got_dup = dict(
            zip(out.column("vec_id").to_pylist(), out.column("dup_of").to_pylist())
        )
        assert got_keep == want_keep
        assert got_dup == want_dup


class TestChunkedGreedyEquivalence:
    def test_chunked_scan_equals_naive_greedy_across_chunk_boundaries(
        self, ray_session, monkeypatch
    ):
        """Force tiny chunks so prefix-shadow, in-chunk-shadow and
        chunk-boundary cases all occur; the chunked scan must reproduce the
        naive keep-first greedy exactly (keep AND dup_of)."""
        import ray.data

        from flatnav_ray.stages import dedup as dd

        monkeypatch.setattr(dd, "_SEMDEDUP_CHUNK", 7)
        rng = np.random.default_rng(11)
        # clusters of correlated vectors -> plenty of >= tau hits
        base = rng.normal(size=(12, 16))
        vecs = np.repeat(base, 10, axis=0) + rng.normal(scale=0.35, size=(120, 16))
        tau = 0.8
        out = dd.semdedup(
            ray.data.from_arrow(_vec_table(vecs)), n_clusters=1, tau=tau
        )
        m = dd._normalize_rows(vecs.astype(np.float64))
        kept: list[int] = []
        want_keep, want_dup = {}, {}
        for j in range(len(vecs)):
            hit = next((i for i in kept if float(m[j] @ m[i]) >= tau), None)
            if hit is None:
                kept.append(j)
                want_keep[j], want_dup[j] = True, -1
            else:
                want_keep[j], want_dup[j] = False, hit
        got_keep = dict(zip(out.column("vec_id").to_pylist(), out.column("keep").to_pylist()))
        got_dup = dict(zip(out.column("vec_id").to_pylist(), out.column("dup_of").to_pylist()))
        assert got_keep == want_keep
        assert got_dup == want_dup


def _naive_greedy(m: np.ndarray, tau: float) -> tuple[dict, dict]:
    kept: list[int] = []
    keep, dup = {}, {}
    for j in range(len(m)):
        hit = next((i for i in kept if float(m[j] @ m[i]) >= tau), None)
        if hit is None:
            kept.append(j)
            keep[j], dup[j] = True, -1
        else:
            keep[j], dup[j] = False, hit
    return keep, dup


def test_exact_tau_pair_same_decision_at_every_chunk(ray_session, monkeypatch):
    """Pairs whose cosine equals tau exactly are duplicates (>= tau), and
    get the same keep/dup_of decision at chunk widths 1, 2 and the default.
    The vectors are unit-norm with entries in {0, +-0.5, +-1}, so every
    cosine is an exact multiple of 0.25 whatever order the matmul sums in;
    tau = 0.5 sits exactly on many pairs."""
    import itertools

    import ray.data

    from flatnav_ray.stages import dedup as dd

    axes = [s * np.eye(4)[i] for i in range(4) for s in (1.0, -1.0)]
    halves = [0.5 * np.array(signs) for signs in itertools.product((1.0, -1.0), repeat=4)]
    vecs = np.array(axes + halves)
    vecs = np.hstack([vecs, np.zeros((len(vecs), 4))])[np.random.default_rng(9).permutation(len(vecs))]
    tau = 0.5
    m = dd._normalize_rows(vecs.astype(np.float64))
    want_keep, want_dup = _naive_greedy(m, tau)
    # at least one duplicate is decided by a cosine of exactly tau
    assert any(d >= 0 and float(m[j] @ m[d]) == tau for j, d in want_dup.items())

    default = dd._SEMDEDUP_CHUNK
    for chunk in (1, 2, default):
        monkeypatch.setattr(dd, "_SEMDEDUP_CHUNK", chunk)
        out = dd.semdedup(ray.data.from_arrow(_vec_table(vecs)), n_clusters=1, tau=tau)
        got_keep = dict(zip(out.column("vec_id").to_pylist(), out.column("keep").to_pylist()))
        got_dup = dict(zip(out.column("vec_id").to_pylist(), out.column("dup_of").to_pylist()))
        assert got_keep == want_keep, chunk
        assert got_dup == want_dup, chunk


def test_semdedup_stream_equals_table_form(ray_session):
    """semdedup_stream (the Dataset-returning 100-TB label path) must carry
    identical rows to the table form."""
    import ray.data

    from flatnav_ray.stages.dedup import semdedup, semdedup_stream

    rng = np.random.default_rng(5)
    vecs = np.repeat(rng.normal(size=(8, 12)), 6, axis=0) + rng.normal(
        scale=0.3, size=(48, 12)
    )
    tbl = semdedup(ray.data.from_arrow(_vec_table(vecs)), n_clusters=4, tau=0.8)
    st = pa.concat_tables(
        semdedup_stream(
            ray.data.from_arrow(_vec_table(vecs)), n_clusters=4, tau=0.8
        ).iter_batches(batch_format="pyarrow")
    ).sort_by("vec_id")
    assert tbl.equals(st.select(tbl.column_names))
