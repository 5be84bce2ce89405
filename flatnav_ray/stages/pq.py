"""Product quantization for the embedding path — the graft of the reference's
developmental PQ feature (/root/reference/developmental-features/quantization/
ProductQuantization.h:91-210 `ProductQuantizer` train/computeCodes +
asymmetric-distance scan; CentroidsGenerator.h:23 k-means).

Compression story at 100 TB: a float32 embedding column is 4*dim bytes/row;
PQ codes are `m` bytes/row (dim/m floats -> 1 byte each), a 4*dim/m x
reduction (e.g. 64x for dim=128, m=8), which is what makes a corpus-wide ANN
sweep fit the object store. Search uses asymmetric distance computation
(ADC): per query ONE (m, k) lookup table of subspace inner products, then a
vectorized per-batch gather+sum over the code matrix — no decode, no matmul
against raw vectors.

All stages are Ray-Data-first: training samples are the deterministic
smallest-hash-rank sample (IvfIndex.train's scheme), encoding is a stateless
map_batches, search reuses the partial-top-k / per-query-merge shape of
brute_force_knn. `IvfPqIndex` composes the IVF coarse quantizer (probe
pruning) with PQ codes (cheap scan) + optional exact re-rank of the PQ
short-list against the true vectors — the standard IVF-PQ layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .knn import IvfIndex, _batch_topk_partial, _merge_partials, _normalize, _to_matrix


class ProductQuantizer:
    """Codebooks: (m, k, dsub) float64 — m subspaces, k centroids each."""

    def __init__(self, codebooks: np.ndarray):
        self.codebooks = np.ascontiguousarray(codebooks, dtype=np.float64)
        self.m, self.k, self.dsub = self.codebooks.shape

    @property
    def dim(self) -> int:
        return self.m * self.dsub

    @staticmethod
    def train_matrix(mat: np.ndarray, m: int = 8, n_bits: int = 8,
                     iters: int = 12, seed: int = 0) -> "ProductQuantizer":
        """k-means per subspace on an in-memory (already sampled) matrix.
        Vectors are L2-normalized first (the cosine serving contract)."""
        mat = _normalize(np.asarray(mat, dtype=np.float64))
        n, dim = mat.shape
        if dim % m:
            raise ValueError(f"dim {dim} not divisible by m {m}")
        dsub = dim // m
        k = min(1 << n_bits, n)
        rng = np.random.Generator(np.random.PCG64(seed))
        books = np.empty((m, k, dsub), dtype=np.float64)
        for j in range(m):
            sub = mat[:, j * dsub : (j + 1) * dsub]
            cent = sub[rng.choice(n, size=k, replace=False)].copy()
            for _ in range(iters):
                # assign to nearest centroid (L2) then recenter
                d2 = ((sub[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
                assign = np.argmin(d2, axis=1)
                for c in range(k):
                    msk = assign == c
                    if msk.any():
                        cent[c] = sub[msk].mean(axis=0)
            books[j] = cent
        return ProductQuantizer(books)

    @staticmethod
    def train(ds: ray.data.Dataset, m: int = 8, n_bits: int = 8, iters: int = 12,
              sample: int = 4096, seed: int = 0, id_col: str = "vec_id",
              vec_col: str = "embedding") -> "ProductQuantizer":
        """Distributed deterministic sampling (smallest splitmix64(id^seed)
        rank, per-batch pre-pruned) then in-memory per-subspace k-means."""
        from ..functions.hashes import splitmix64

        def _ranked(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.uint64)
            r = splitmix64(ids ^ np.uint64(seed)).astype(np.int64) & np.int64(2**62 - 1)
            if r.size > sample:
                keep = np.sort(np.argpartition(r, sample - 1)[:sample])
                batch = batch.take(pa.array(keep))
                r = r[keep]
            return pa.table({"rank_": pa.array(r, type=pa.int64()), vec_col: batch.column(vec_col)})

        parts = pa.concat_tables(
            ds.map_batches(_ranked, batch_format="pyarrow", zero_copy_batch=True)
            .iter_batches(batch_format="pyarrow")
        )
        order = np.argsort(parts.column("rank_").to_numpy(zero_copy_only=False))[:sample]
        mat = _to_matrix(parts.column(vec_col).take(pa.array(order)))
        return ProductQuantizer.train_matrix(mat, m=m, n_bits=n_bits, iters=iters, seed=seed)

    def encode_matrix(self, mat: np.ndarray) -> np.ndarray:
        """(n, dim) -> (n, m) uint8 codes (nearest centroid per subspace)."""
        mat = _normalize(np.asarray(mat, dtype=np.float64))
        n = mat.shape[0]
        codes = np.empty((n, self.m), dtype=np.uint8)
        for j in range(self.m):
            sub = mat[:, j * self.dsub : (j + 1) * self.dsub]
            # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 -> argmin over centroids
            dots = sub @ self.codebooks[j].T
            c2 = (self.codebooks[j] ** 2).sum(-1)
            codes[:, j] = np.argmin(c2[None, :] - 2.0 * dots, axis=1).astype(np.uint8)
        return codes

    def decode_matrix(self, codes: np.ndarray) -> np.ndarray:
        """(n, m) codes -> (n, dim) reconstruction."""
        return np.concatenate(
            [self.codebooks[j][codes[:, j]] for j in range(self.m)], axis=1
        )

    def encode_dataset(self, ds: ray.data.Dataset, id_col: str = "vec_id",
                       vec_col: str = "embedding", keep_vectors: bool = True) -> ray.data.Dataset:
        """Append a `pq_code` binary column (m bytes/row). With
        keep_vectors=False the float column is dropped — the 100-TB layout
        (codes + docmap only; exact re-rank then needs a separate store)."""
        pq_ref = ray.put(self.codebooks)

        def _enc(batch: pa.Table) -> pa.Table:
            books = ray.get(pq_ref)
            pq = ProductQuantizer(books)
            codes = pq.encode_matrix(_to_matrix(batch.column(vec_col)))
            flat = codes.reshape(-1)
            offs = np.arange(0, (len(batch) + 1) * pq.m, pq.m, dtype=np.int32)
            arr = pa.BinaryArray.from_buffers(
                pa.binary(), len(batch), [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(flat.tobytes())]
            )
            out = batch.append_column("pq_code", arr)
            if not keep_vectors:
                out = out.drop_columns([vec_col])
            return out

        return ds.map_batches(_enc, batch_format="pyarrow", zero_copy_batch=True)

    def adc_tables(self, queries: np.ndarray) -> np.ndarray:
        """(Q, dim) queries -> (Q, m, k) inner-product lookup tables."""
        q = _normalize(np.asarray(queries, dtype=np.float64))
        out = np.empty((q.shape[0], self.m, self.k), dtype=np.float64)
        for j in range(self.m):
            out[:, j, :] = q[:, j * self.dsub : (j + 1) * self.dsub] @ self.codebooks[j].T
        return out


def _codes_from_binary(col, m: int) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
    vals = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    start = offs[0]
    return vals[start : start + len(arr) * m].reshape(len(arr), m)


def pq_search(
    pq: ProductQuantizer,
    coded: ray.data.Dataset,
    query_vectors: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    rerank: int = 0,
    vec_col: str = "embedding",
) -> pa.Table:
    """ADC top-k over a pq_code column: per batch one gather+sum per query
    (no decode); partial-top-k/merge like brute_force_knn. With rerank>0 the
    per-batch PQ short-list of that size is re-scored EXACTLY against the
    still-present float vectors before the partial truncation — recall of
    the final top-k then approaches exact while the full scan stays ADC."""
    qids = np.arange(np.asarray(query_vectors).shape[0], dtype=np.int64)
    tables = pq.adc_tables(query_vectors)
    flat = tables.reshape(tables.shape[0], -1)  # (Q, m*k)
    col_off = (np.arange(pq.m, dtype=np.int64) * pq.k)[None, :]
    q_exact = _normalize(np.asarray(query_vectors, dtype=np.float64)) if rerank else None
    bref = ray.put((qids, flat, col_off, q_exact))
    m = pq.m

    def _partial(batch: pa.Table) -> pa.Table:
        qids_, flat_, col_off_, q_ex = ray.get(bref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        codes = _codes_from_binary(batch.column("pq_code"), m)
        idx = col_off_ + codes  # (B, m) flattened table indices
        sims = flat_[:, idx].sum(-1)  # (Q, B) ADC scores
        if q_ex is None:
            return _batch_topk_partial(sims, ids, qids_, k, id_col)
        # exact re-rank of the per-batch PQ short-list (union over queries)
        r = min(rerank, sims.shape[1])
        short = np.unique(np.argpartition(-sims, r - 1, axis=1)[:, :r].ravel())
        mat = _normalize(_to_matrix(batch.column(vec_col).take(pa.array(short))))
        exact = q_ex @ mat.T  # (Q, |short|)
        masked = np.full_like(sims, -np.inf)
        masked[:, short] = exact
        return _batch_topk_partial(masked, ids, qids_, k, id_col)

    partials = coded.map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)
    return _merge_partials(partials, k, id_col)


class IvfPqIndex:
    """IVF coarse quantizer + PQ codes: probe nprobe lists, ADC-scan only
    those codes, optional exact re-rank — the reference's IVF(+PQ) scale path
    with flatnav's recall/speed knob shape (nprobe ~ ef_search)."""

    def __init__(self, ivf: IvfIndex, pq: ProductQuantizer):
        self.ivf = ivf
        self.pq = pq

    @staticmethod
    def build(ds: ray.data.Dataset, n_centroids: int = 16, m: int = 8,
              n_bits: int = 8, seed: int = 0, id_col: str = "vec_id",
              vec_col: str = "embedding") -> tuple["IvfPqIndex", ray.data.Dataset]:
        ivf = IvfIndex.train(ds, n_centroids, vec_col=vec_col, seed=seed, id_col=id_col)
        pq = ProductQuantizer.train(ds, m=m, n_bits=n_bits, seed=seed,
                                    id_col=id_col, vec_col=vec_col)
        coded = pq.encode_dataset(ivf.assign(ds, id_col=id_col, vec_col=vec_col),
                                  id_col=id_col, vec_col=vec_col)
        return IvfPqIndex(ivf, pq), coded

    def search(self, coded: ray.data.Dataset, query_vectors: np.ndarray,
               k: int = 10, nprobe: int = 4, rerank: int = 0,
               id_col: str = "vec_id", vec_col: str = "embedding") -> pa.Table:
        q = _normalize(np.asarray(query_vectors, dtype=np.float64))
        probes = np.argsort(-(q @ self.ivf.centroids.T), axis=1)[:, :nprobe]
        wanted = sorted({int(c) for row in probes for c in row})
        sub = coded.filter(
            expr=f"centroid in {wanted}" if len(wanted) > 1 else f"centroid == {wanted[0]}"
        )
        qids = np.arange(q.shape[0], dtype=np.int64)
        probed = np.zeros((q.shape[0], self.ivf.centroids.shape[0]), dtype=bool)
        probed[np.repeat(qids, probes.shape[1]), probes.ravel()] = True
        tables = self.pq.adc_tables(q)
        flat = tables.reshape(tables.shape[0], -1)
        col_off = (np.arange(self.pq.m, dtype=np.int64) * self.pq.k)[None, :]
        bref = ray.put((qids, flat, col_off, probed, q if rerank else None))
        m = self.pq.m

        def _partial(batch: pa.Table) -> pa.Table:
            qids_, flat_, col_off_, probed_, q_ex = ray.get(bref)
            ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            cents = batch.column("centroid").to_numpy(zero_copy_only=False)
            codes = _codes_from_binary(batch.column("pq_code"), m)
            sims = flat_[:, col_off_ + codes].sum(-1)
            sims[~probed_[:, cents]] = -np.inf
            if q_ex is not None:
                r = min(rerank, sims.shape[1])
                cand = np.argpartition(-sims, r - 1, axis=1)[:, :r]
                short = np.unique(cand.ravel())
                live = np.isfinite(sims[:, short]).any(axis=0)
                short = short[live] if live.any() else short[:0]
                if short.size:
                    mat = _normalize(_to_matrix(batch.column(vec_col).take(pa.array(short))))
                    exact = q_ex @ mat.T
                    masked = np.full_like(sims, -np.inf)
                    keepmask = np.isfinite(sims[:, short])
                    vals = np.where(keepmask, exact, -np.inf)
                    masked[:, short] = vals
                    sims = masked
                else:
                    sims = np.full_like(sims, -np.inf)
            return _batch_topk_partial(sims, ids, qids_, k, id_col)

        partials = sub.map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)
        return _merge_partials(partials, k, id_col)
