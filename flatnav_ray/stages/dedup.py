"""Deduplication family for training-data pipelines.

Extends the engine's url-exact dedup (stages/build.py dedup_latest, SURVEY.md
D4) with content-level exact and near-duplicate detection:

* exact_text_dedup      — hash-partitioned exact dedup (first doc_id wins)
* minhash_lsh_clusters  — shingle -> MinHash -> banded LSH -> union-find
* simhash_clusters      — 64-bit SimHash, banded buckets, Hamming verify
* ngram_jaccard_pairs   — exact word-n-gram Jaccard over candidate pairs
* embedding_near_dups   — cosine near-dup over an embedding column

Scale notes (100 TB): every operator pre-aggregates inside map_batches
(per-batch signatures) so only small (key, doc_id) pairs shuffle; candidate
pairs are verified distributedly; the final union-find runs on the driver over
*pairs only* (|pairs| << |docs|). For corpus-scale clustering the same pair
stream feeds an iterative distributed connected-components loop — pairs are
produced by bounded per-bucket emit (cap + deterministic order) so a hot
bucket cannot explode the shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.hashes import minhash_signature, simhash64, splitmix64, stable_hash64
from .knn import _to_matrix
from ..functions.textstats import token_shingles
from ..functions.tokenize import explode_tokens


def exact_text_dedup(ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text") -> ray.data.Dataset:
    """Exact dedup by full text content: keep the smallest doc_id per distinct
    text. Shuffles only (text_hash, doc_id) — the text itself never moves."""

    def _sig(batch: pa.Table) -> pa.Table:
        h = stable_hash64(batch.column(text_col)).astype(np.int64) & np.int64(2**63 - 1)
        return pa.table(
            {
                "text_hash": pa.array(h, type=pa.int64()),
                id_col: batch.column(id_col),
            }
        )

    sigs = ds.map_batches(_sig, batch_format="pyarrow", zero_copy_batch=True)
    kept = sigs.groupby("text_hash").min(id_col)

    def _rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {"text_hash": b.column("text_hash"), id_col: b.column(f"min({id_col})")}
        )

    return kept.map_batches(_rename, batch_format="pyarrow")


# Above this many kept ids the broadcast array stops being "small side"
# (2^24 ids = 128 MB as int64 — one object-store copy per node is still fine,
# but the driver-side assembly is not) and the semi-join switches to a
# hash-shuffle join. Classic broadcast-vs-shuffle planner cutoff.
BROADCAST_MAX_KEEP = 1 << 24


def semi_join_keep(
    ds: ray.data.Dataset,
    keep_ids,
    id_col: str = "doc_id",
    mode: str = "auto",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Filter a corpus to a kept-id set — the dedup keep-list composer:
    `semi_join_keep(pages, exact_text_dedup(pages))`.

    mode="broadcast" (small keep side): the id set ships ONCE via ray.put
    (plasma shares one copy per node); each batch filters with a vectorized
    sorted-membership test — the corpus never shuffles (SURVEY.md §4
    broadcast-small-side).

    mode="shuffle" (large keep side — the 100 TB path when the keep-list
    itself has billions of ids): Ray Data's native hash-partitioned
    `left_semi` join; both sides shuffle by id hash, nothing materializes on
    the driver.

    mode="auto": broadcast below BROADCAST_MAX_KEEP kept ids, shuffle above
    — the standard join-planner decision, made on the keep-side count only
    (cheap: count() on a Dataset of ids)."""
    import ray as _ray

    keep_ds = None
    if isinstance(keep_ids, ray.data.Dataset):
        keep_ds = keep_ids.select_columns([id_col])
        if mode == "auto":
            mode = "broadcast" if keep_ds.count() <= BROADCAST_MAX_KEEP else "shuffle"
    elif mode == "auto":
        mode = "broadcast"

    if mode == "shuffle":
        if keep_ds is None:
            keep_ds = ray.data.from_arrow(
                pa.table({id_col: pa.array(np.asarray(keep_ids, dtype=np.int64))})
            )
        return ds.join(
            keep_ds, "left_semi", num_partitions=num_partitions, on=(id_col,)
        )

    if keep_ds is not None:
        keep_ids = pa.concat_tables(
            keep_ds.iter_batches(batch_format="pyarrow")
        ).column(id_col)
    arr = np.sort(np.asarray(keep_ids, dtype=np.int64))
    ref = _ray.put(arr)

    def _filter(batch: pa.Table) -> pa.Table:
        keep = _ray.get(ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(keep, ids)
        ok = pos < keep.size
        ok[ok] = keep[pos[ok]] == ids[ok]
        return batch.filter(pa.array(ok))

    return ds.map_batches(_filter, batch_format="pyarrow", zero_copy_batch=True)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount over a uint64 array (np.bitwise_count on numpy>=2)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.int64)
    ham = np.zeros(x.shape, dtype=np.int64)
    for k in range(64):
        ham += ((x >> np.uint64(k)) & np.uint64(1)).astype(np.int64)
    return ham


def _union_find(pairs: list[tuple[int, int]]) -> dict[int, int]:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.setdefault(r, r) != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            # deterministic: smaller id is the representative
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent}


@ray.remote(num_cpus=0)
def _rename_to_cluster_id(blk: pa.Table) -> pa.Table:
    return blk.rename_columns(["node", "cluster_id"])


def drop_empty_blocks(ds):
    """Return `ds` with empty blocks removed (None if ALL blocks are empty).

    Works around a Ray 2.49 hash-shuffle join hazard: only the FIRST shuffled
    block of each join input broadcasts its schema to every partition, but
    `_shuffle_block` early-returns on empty blocks while the driver still
    marks the schema as broadcast — so an empty first block leaves row-less
    partitions finalizing zero-column tables and pyarrow raising "No match
    ... for FieldRef" mid-join. Filtering uses block METADATA only; no data
    moves to the driver."""
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    mds = ds if isinstance(ds, MaterializedDataset) else ds.materialize()
    bundle = mds._plan.execute()
    refs = [ref for ref, meta in bundle.blocks if (meta.num_rows or 0) > 0]
    return rd.from_arrow_refs(refs) if refs else None


def distributed_components(
    pairs, num_partitions: int = 8, max_rounds: int = 50, as_dataset: bool = False
) -> pa.Table:
    """Distributed connected components over an (a, b) edge list: iterative
    min-label propagation on Ray Data — per round, one hash join (edge.v ->
    labels.node), one groupby-min, one join back, one change count. The
    driver holds ONLY convergence counters; labels live as a Dataset. Final
    label = min doc_id of the component (identical contract to _union_find;
    tests assert equality). Rounds needed = component diameter — near-dup
    clusters are dense, so this converges in a handful of rounds.

    This is the 100-TB path for minhash/simhash clustering; below
    _CC_DISTRIBUTED_THRESHOLD pairs the driver union-find is cheaper (the
    pair stream, not the corpus, is what must fit driver-side there)."""
    import ray.data as rd

    empty = pa.table(
        {"node": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
    )
    if isinstance(pairs, pa.Table):
        if len(pairs) == 0:
            return rd.from_arrow(empty) if as_dataset else empty
        pairs = rd.from_arrow(pairs)

    def _sym(b: pa.Table) -> pa.Table:
        # symmetric edges PLUS self-loops: the per-node neighbor-min then
        # includes the node's own label, so one join+groupby IS a full
        # propagation step (no second compare/update join needed)
        av = b.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        bv = b.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "u": pa.array(np.concatenate([av, bv, av, bv]), type=pa.int64()),
                "v": pa.array(np.concatenate([bv, av, av, bv]), type=pa.int64()),
            }
        )

    # drop_empty_blocks on every join input: see its docstring (Ray shuffle
    # schema-broadcast hazard). edges/labels stay in the object store.
    edges = drop_empty_blocks(
        pairs.map_batches(_sym, batch_format="pyarrow", zero_copy_batch=True)
    )
    if edges is None:  # no edges at all: empty component set
        return rd.from_arrow(empty) if as_dataset else empty

    def _init(b: pa.Table) -> pa.Table:
        return pa.table({"node": b.column("u"), "label": b.column("min(v)")})

    def _relab(b: pa.Table) -> pa.Table:
        return pa.table({"node": b.column("u"), "label": b.column("min(label)")})

    # round 0 for free: label(u) = min(u, neighbors) via the self-loops
    labels = drop_empty_blocks(
        edges.groupby("u").min("v").map_batches(_init, batch_format="pyarrow")
    )
    prev_sum = labels.sum("label")
    for _ in range(max_rounds):
        labels = drop_empty_blocks(
            edges.join(labels, join_type="inner", num_partitions=num_partitions,
                       on=("v",), right_on=("node",))
            .groupby("u")
            .min("label")
            .map_batches(_relab, batch_format="pyarrow")
        )
        # labels only ever decrease (min-propagation), so the global sum is a
        # strictly-decreasing convergence witness — the ONLY driver-side state
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    if as_dataset:  # labels never leave the cluster (the 100-TB return path)
        # per-block rename (not map_batches: empty blocks would be skipped and
        # keep the old "label" name, poisoning downstream joins with a mixed
        # right-side schema)
        return rd.from_arrow_refs(
            [_rename_to_cluster_id.remote(r) for r in labels.to_arrow_refs()]
        )
    out = pa.concat_tables(labels.iter_batches(batch_format="pyarrow"))
    return pa.table(
        {"node": out.column("node"), "cluster_id": out.column("label")}
    ).sort_by("node")


# pair streams above this size go through distributed_components instead of
# the driver union-find (pairs<<docs usually, but a 100-TB corpus's pair
# stream can itself outgrow one machine)
_CC_DISTRIBUTED_THRESHOLD = 200_000


def _cluster_assignments(
    pair_ds, corpus_ids: np.ndarray, threshold: int | None = None
) -> np.ndarray:
    """Resolve a candidate-pair Dataset into per-doc cluster ids (min-id
    representative; singletons = own id). Driver union-find below `threshold`
    pairs (default _CC_DISTRIBUTED_THRESHOLD, read at call time), distributed
    label propagation above it. Vectorized assembly."""
    if threshold is None:
        threshold = _CC_DISTRIBUTED_THRESHOLD
    m = pair_ds.materialize()
    n_pairs = m.count()
    uniq = np.unique(corpus_ids)
    labels = uniq.copy()
    if n_pairs == 0:
        pass
    elif n_pairs <= threshold:
        pairs = []
        for bt in m.iter_batches(batch_format="pyarrow"):
            pairs.extend(zip(bt.column("a").to_pylist(), bt.column("b").to_pylist()))
        comp = _union_find(pairs)
        if comp:
            keys = np.fromiter(comp.keys(), dtype=np.int64, count=len(comp))
            vals = np.fromiter(comp.values(), dtype=np.int64, count=len(comp))
            o = np.argsort(keys)
            keys, vals = keys[o], vals[o]
            pos = np.searchsorted(keys, uniq)
            hit = pos < keys.size
            hit[hit] = keys[pos[hit]] == uniq[hit]
            labels[hit] = vals[pos[hit]]
    else:
        comp_tbl = distributed_components(m)
        keys = comp_tbl.column("node").to_numpy(zero_copy_only=False)
        vals = comp_tbl.column("cluster_id").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, uniq)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == uniq[hit]
        labels[hit] = vals[pos[hit]]
    return labels


def cluster_labels_dataset(
    ids_ds: ray.data.Dataset,
    pair_ds: ray.data.Dataset,
    id_col: str = "doc_id",
    num_partitions: int = 8,
) -> ray.data.Dataset:
    """Dataset-returning cluster assembly — the 100-TB return path.

    Same contract as _cluster_assignments (min-id representative, singleton =
    own id) but the per-doc label vector NEVER materializes on the driver:
    components resolve via distributed label propagation, labels stream back
    onto the corpus id Dataset with a left-outer hash join, and missing
    labels coalesce to the doc's own id. Consume with write_parquet or a
    downstream join; the driver holds only convergence counters. `ids_ds`
    must carry unique ids in `id_col` (one row per doc)."""
    import pyarrow.compute as pc

    m = pair_ds.materialize()
    if m.count() == 0:  # no candidate pairs: every doc is its own cluster
        return ids_ds.map_batches(
            lambda b: pa.table(
                {id_col: b.column(id_col), "cluster_id": b.column(id_col)}
            ),
            batch_format="pyarrow",
        )
    comp = distributed_components(m, num_partitions=num_partitions, as_dataset=True)
    # left side too: an empty first block would eat the shuffle's one-shot
    # schema broadcast (see drop_empty_blocks)
    left = drop_empty_blocks(ids_ds.materialize())
    if left is None:
        return ids_ds  # corpus is empty; nothing to label
    joined = left.join(
        comp, join_type="left_outer", num_partitions=num_partitions,
        on=(id_col,), right_on=("node",),
    )

    def _fill(b: pa.Table) -> pa.Table:
        ids = b.column(id_col)
        return pa.table(
            {id_col: ids, "cluster_id": pc.coalesce(b.column("cluster_id"), ids)}
        )

    return joined.map_batches(_fill, batch_format="pyarrow")


def minhash_lsh_clusters(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    output: str = "table",
) -> pa.Table:
    """MinHash + banded LSH near-dup clustering.

    Pipeline: map_batches computes per-doc signatures (stateless, vectorized),
    explodes to (band, bucket, doc_id); a small groupby-style pair extraction
    + union-find assigns cluster ids. Returns (doc_id, cluster_id); docs with
    no near-dup get cluster_id = doc_id."""
    rows_per_band = num_perm // bands

    def _bands(batch: pa.Table) -> pa.Table:
        # fully vectorized across the batch: one splitmix re-mix of the
        # shingle-hash stream per permutation, per-doc minima via
        # np.minimum.reduceat over the (sorted) parent segments — identical
        # values to the scalar minhash_signature path (tested)
        texts = batch.column(text_col)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        parents, shingles = token_shingles(texts, n=shingle_n)
        nb = ids.size
        counts = np.bincount(parents, minlength=nb) if parents.size else np.zeros(nb, np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        empty = counts == 0
        u64max = np.uint64(np.iinfo(np.uint64).max)
        sig = np.empty((num_perm, nb), dtype=np.uint64)
        if shingles.size:
            red_starts = np.minimum(starts, shingles.size - 1)  # reduceat bounds
            for p in range(num_perm):
                mixed = splitmix64(shingles ^ np.uint64(1 + p * 0x9E3779B9))
                s = np.minimum.reduceat(mixed, red_starts)
                s[empty] = u64max  # reduceat returns a garbage element for empty segments
                sig[p] = s
        else:
            sig[:] = u64max
        out_band = np.repeat(np.arange(bands, dtype=np.int32), nb)
        out_id = np.tile(ids, bands)
        out_bucket = np.empty(bands * nb, dtype=np.int64)
        for b in range(bands):
            xb = np.bitwise_xor.reduce(sig[b * rows_per_band : (b + 1) * rows_per_band], axis=0)
            out_bucket[b * nb : (b + 1) * nb] = (
                splitmix64(xb ^ np.uint64(b + 1)) & np.uint64(2**62 - 1)
            ).astype(np.int64)
        return pa.table(
            {
                "band": pa.array(out_band, type=pa.int32()),
                "bucket": pa.array(out_bucket, type=pa.int64()),
                id_col: pa.array(out_id, type=pa.int64()),
            }
        )

    bands_ds = ds.map_batches(_bands, batch_format="pyarrow", zero_copy_batch=True)

    def _combine_key(batch: pa.Table) -> pa.Table:
        # the band index is already mixed into the bucket hash at signature
        # time (xor with b+1 before splitmix64), so the bucket IS the key —
        # no further arithmetic (an int64 multiply-add here would wrap and
        # alias distinct (bucket, band) pairs)
        return batch.select(["bucket", id_col])

    def _bucket_pairs(group: pa.Table) -> pa.Table:
        # star pattern: each member pairs with the bucket minimum — linear,
        # sufficient for union-find connectivity; hot buckets capped
        members = np.sort(
            group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        )[:64]
        if members.size < 2:
            return pa.table(
                {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
            )
        return pa.table(
            {
                "a": pa.array(np.full(members.size - 1, members[0]), type=pa.int64()),
                "b": pa.array(members[1:], type=pa.int64()),
            }
        )

    # distributed candidate-pair extraction; cluster resolution switches
    # between driver union-find (small pair streams) and distributed
    # label-propagation connected components (_cluster_assignments)
    pair_ds = (
        bands_ds.map_batches(_combine_key, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_bucket_pairs, batch_format="pyarrow")
    )
    ids_ds = ds.map_batches(lambda b: b.select([id_col]), batch_format="pyarrow")
    if output == "dataset":  # streaming labels, nothing corpus-sized driver-side
        return cluster_labels_dataset(ids_ds, pair_ds, id_col=id_col)
    ids_tbl = pa.concat_tables(ids_ds.iter_batches(batch_format="pyarrow"))
    corpus_ids = np.unique(
        ids_tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    )
    labels = _cluster_assignments(pair_ds, corpus_ids)
    return pa.table(
        {
            id_col: pa.array(corpus_ids, type=pa.int64()),
            "cluster_id": pa.array(labels, type=pa.int64()),
        }
    )


def simhash_clusters(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    hamming_threshold: int = 3,
    output: str = "table",
) -> pa.Table:
    """SimHash near-dup: 64-bit signature, 4×16-bit band buckets (any doc pair
    within Hamming distance 3 shares at least one band), Hamming verify."""

    def _sig(batch: pa.Table) -> pa.Table:
        # vectorized SimHash: per-token ±1 bit matrix, per-doc bit votes via
        # np.add.reduceat over parent segments, sign-pack — identical values
        # to the scalar simhash64 path (tested)
        texts = batch.column(text_col)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        parents, toks = explode_tokens(texts)
        th = stable_hash64(toks)
        nb = ids.size
        counts = np.bincount(parents, minlength=nb) if parents.size else np.zeros(nb, np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        empty = counts == 0
        if th.size:
            pm = (
                ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
                .astype(np.int32) * 2 - 1
            )
            votes = np.add.reduceat(pm, np.minimum(starts, th.size - 1), axis=0)
            votes[empty] = 0
            pow2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
            sigs = ((votes > 0).astype(np.uint64) * pow2[None, :]).sum(axis=1, dtype=np.uint64)
        else:
            sigs = np.zeros(nb, dtype=np.uint64)
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "simhash": pa.array(sigs.astype(np.int64), type=pa.int64()),
            }
        )

    sigs_ds = ds.map_batches(_sig, batch_format="pyarrow", zero_copy_batch=True)

    def _band_rows(batch: pa.Table) -> pa.Table:
        ids_ = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        sg = batch.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        rows_b, rows_id, rows_sig = [], [], []
        for band in range(4):
            chunk = ((sg >> np.uint64(band * 16)) & np.uint64(0xFFFF)).astype(np.int64)
            rows_b.append(chunk * 4 + band)
            rows_id.append(ids_)
            rows_sig.append(sg.astype(np.int64))
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(rows_b), type=pa.int64()),
                id_col: pa.array(np.concatenate(rows_id), type=pa.int64()),
                "simhash": pa.array(np.concatenate(rows_sig), type=pa.int64()),
            }
        )

    def _bucket_verified_pairs(group: pa.Table) -> pa.Table:
        # verify the Hamming distance inside the reducer: only true near-dup
        # pairs leave the group (distributed verification). ALL pairs within
        # the (capped) bucket are checked — the 4-band pigeonhole guarantee
        # only says a near-dup PAIR shares a band, so a star pattern anchored
        # at the bucket minimum would miss pairs that are both far from the
        # anchor. O(cap^2) XOR+popcount, vectorized.
        order = np.argsort(group.column(id_col).to_numpy(zero_copy_only=False))[:256]
        ids_ = group.column(id_col).to_numpy(zero_copy_only=False)[order]
        sg = group.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)[order]
        if ids_.size < 2:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        x = sg[:, None] ^ sg[None, :]
        ham = _popcount64(x)
        ai, bi = np.nonzero(np.triu(ham <= hamming_threshold, 1))
        return pa.table(
            {
                "a": pa.array(ids_[ai], type=pa.int64()),
                "b": pa.array(ids_[bi], type=pa.int64()),
            }
        )

    pair_ds = (
        sigs_ds.map_batches(_band_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_bucket_verified_pairs, batch_format="pyarrow")
    )
    ids_ds = sigs_ds.map_batches(lambda b: b.select([id_col]), batch_format="pyarrow")
    if output == "dataset":  # streaming labels, nothing corpus-sized driver-side
        return cluster_labels_dataset(ids_ds, pair_ds, id_col=id_col)
    ids_tbl = pa.concat_tables(ids_ds.iter_batches(batch_format="pyarrow"))
    corpus_ids = np.unique(
        ids_tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    )
    labels = _cluster_assignments(pair_ds, corpus_ids)
    return pa.table(
        {
            id_col: pa.array(corpus_ids, type=pa.int64()),
            "cluster_id": pa.array(labels, type=pa.int64()),
        }
    )


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    threshold: float = 0.5,
    max_shingle_df: int | None = 128,
    sizes_mode: str = "auto",
    num_partitions: int = 16,
) -> pa.Table:
    """Exact word-n-gram Jaccard similarity for all doc pairs sharing >=1
    shingle, thresholded. Fully distributed (DuckDB-checkable, oracle_sql):

        map_batches: distinct (doc_id, shingle) per doc + doc shingle-set size
        -> groupby(shingle).map_groups: emit co-occurring pairs
        -> groupby(doc_a, doc_b).count: intersection sizes
        -> map_batches: jaccard = inter / (|A|+|B|-inter), threshold filter
           (doc sizes broadcast via ray.put — at larger scale this becomes a
           hash join on doc_a/doc_b)

    `max_shingle_df` (DEFAULT 128 — a hot boilerplate shingle shared by m
    docs would otherwise emit m*(m-1)/2 pairs: quadratic blow-up) drops
    shingles appearing in more than that many docs from PAIR GENERATION and
    intersection counting; doc shingle-set sizes stay exact. The SQL oracle
    applies the identical df filter. Pass None to disable (exact all-pairs
    semantics, small corpora only).

    `sizes_mode` picks how doc sizes meet the pair stream: "broadcast"
    (sorted arrays via ray.put, vectorized lookup — one int64+float64 per
    doc), "join" (two hash-partitioned inner joins of the pair stream
    against the sizes dataset — nothing doc-sized on the driver, the 100 TB
    path), or "auto" (broadcast below BROADCAST_MAX_KEEP docs)."""

    def _shingles(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        parents, sh = token_shingles(texts, n=n)
        t = pa.table(
            {
                id_col: pa.array(ids[parents], type=pa.int64()),
                "shingle": pa.array(sh.astype(np.int64), type=pa.int64()),
            }
        )
        # each doc is whole within a batch, so per-batch distinct == global
        return t.group_by([id_col, "shingle"]).aggregate([])

    shingles = ds.map_batches(_shingles, batch_format="pyarrow", zero_copy_batch=True)

    # doc shingle-set sizes (one row per doc). Small side -> broadcast as a
    # sorted (ids, sizes) array pair: compact, zero-copy-shared via the
    # object store, vectorized searchsorted lookup. At corpus scales where
    # even one int64 per doc is too much driver memory, sizes_mode="join"
    # hash-joins the pair stream against the sizes dataset instead.
    sizes = shingles.groupby(id_col).count()
    if sizes_mode == "auto":
        sizes_mode = "broadcast" if sizes.count() <= BROADCAST_MAX_KEEP else "join"
    sizes_ref = None
    if sizes_mode == "broadcast":
        sizes_tbl = pa.concat_tables(sizes.iter_batches(batch_format="pyarrow"))
        _sz_ids = sizes_tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        _sz_vals = sizes_tbl.column("count()").to_numpy(zero_copy_only=False).astype(np.float64)
        _o = np.argsort(_sz_ids)
        sizes_ref = ray.put((_sz_ids[_o], _sz_vals[_o]))

    def _pairs(group: pa.Table) -> pa.Table:
        members = np.sort(group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64))
        m = members.size
        if m < 2 or (max_shingle_df is not None and m > max_shingle_df):
            return pa.table(
                {"doc_a": pa.array([], type=pa.int64()), "doc_b": pa.array([], type=pa.int64())}
            )
        ai, bi = np.triu_indices(m, 1)
        return pa.table(
            {
                "doc_a": pa.array(members[ai], type=pa.int64()),
                "doc_b": pa.array(members[bi], type=pa.int64()),
            }
        )

    inter = (
        shingles.groupby("shingle")
        .map_groups(_pairs, batch_format="pyarrow")
        .groupby(["doc_a", "doc_b"])
        .count()
    )

    def _threshold_out(a, b, it, sa, sb) -> pa.Table:
        j = it / (sa + sb - it)
        keep = j >= threshold
        return pa.table(
            {
                "doc_a": pa.array(a[keep], type=pa.int64()),
                "doc_b": pa.array(b[keep], type=pa.int64()),
                "jaccard": pa.array(j[keep], type=pa.float64()),
            }
        )

    def _jaccard(batch: pa.Table) -> pa.Table:
        import ray as _ray

        sz_ids, sz_vals = _ray.get(sizes_ref)
        a = batch.column("doc_a").to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").to_numpy(zero_copy_only=False)
        it = batch.column("count()").to_numpy(zero_copy_only=False).astype(np.float64)
        sa = sz_vals[np.searchsorted(sz_ids, a)]
        sb = sz_vals[np.searchsorted(sz_ids, b)]
        return _threshold_out(a, b, it, sa, sb)

    if sizes_mode == "join":
        # two hash-partitioned inner joins of the (much smaller) pair stream
        # against the sizes dataset — the doc count never reaches one process
        def _as_sizes(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "sz_id": b.column(id_col).cast(pa.int64()),
                    "sz": b.column("count()").cast(pa.float64()),
                }
            )

        sizes_n = sizes.map_batches(_as_sizes, batch_format="pyarrow")

        def _keep_a(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_a": b.column("doc_a"),
                    "doc_b": b.column("doc_b"),
                    "inter": b.column("count()").cast(pa.float64()),
                    "sz_a": b.column("sz"),
                }
            )

        j1 = inter.join(
            sizes_n, "inner", num_partitions=num_partitions,
            on=("doc_a",), right_on=("sz_id",)
        ).map_batches(_keep_a, batch_format="pyarrow")

        def _jaccard_joined(b: pa.Table) -> pa.Table:
            a = b.column("doc_a").to_numpy(zero_copy_only=False)
            bb = b.column("doc_b").to_numpy(zero_copy_only=False)
            it = b.column("inter").to_numpy(zero_copy_only=False)
            sa = b.column("sz_a").to_numpy(zero_copy_only=False)
            sb = b.column("sz").to_numpy(zero_copy_only=False)
            return _threshold_out(a, bb, it, sa, sb)

        stream = j1.join(
            sizes_n, "inner", num_partitions=num_partitions,
            on=("doc_b",), right_on=("sz_id",)
        ).map_batches(_jaccard_joined, batch_format="pyarrow")
    else:
        stream = inter.map_batches(_jaccard, batch_format="pyarrow")

    batches = list(stream.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "jaccard": pa.array([], type=pa.float64()),
            }
        )
    return pa.concat_tables(batches).sort_by(
        [("doc_a", "ascending"), ("doc_b", "ascending")]
    )


def embedding_near_dups_lsh(
    ds: ray.data.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.9,
    n_planes: int = 10,
    n_tables: int = 4,
    seed: int = 0,
) -> pa.Table:
    """Scale-path embedding near-dup: random-hyperplane LSH bucketing
    (sign-pattern key, `n_tables` independent plane sets — a pair is a
    candidate if it collides in ANY table) then exact cosine verification
    within buckets — no all-pairs matmul against a broadcast matrix.
    Candidate recall for a pair at angle θ: 1 - (1 - (1-θ/π)^n_planes)^n_tables
    — tune for the HIGH-threshold near-dup regime (e.g. ≥0.9 cosine)."""
    import ray as _ray

    first = pa.concat_tables(ds.limit(1).iter_batches(batch_format="pyarrow"))
    dim = len(first.column(vec_col)[0].as_py())
    rng = np.random.Generator(np.random.PCG64(seed))
    planes = rng.normal(size=(n_tables, n_planes, dim))
    planes_ref = _ray.put(planes)

    def _bucketize(batch: pa.Table) -> pa.Table:
        pl = _ray.get(planes_ref)
        m = _normalize_rows(_to_matrix(batch.column(vec_col)))
        outs = []
        for t in range(pl.shape[0]):
            bits = (m @ pl[t].T) > 0
            key = bits.dot(1 << np.arange(pl.shape[1], dtype=np.int64))
            outs.append(
                batch.append_column(
                    "bucket",
                    pa.array(
                        key.astype(np.int64) * np.int64(pl.shape[0]) + t, type=pa.int64()
                    ),
                )
            )
        return pa.concat_tables(outs)

    def _verify(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if ids.size < 2:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        m = _normalize_rows(_to_matrix(group.column(vec_col)))
        sims = m @ m.T
        ai, bi = np.nonzero(np.triu(sims >= threshold, 1))
        a, b = ids[ai], ids[bi]
        swap = a > b
        a[swap], b[swap] = b[swap], a[swap]
        return pa.table(
            {
                "doc_a": pa.array(a, type=pa.int64()),
                "doc_b": pa.array(b, type=pa.int64()),
                "cosine": pa.array(sims[ai, bi], type=pa.float64()),
            }
        )

    batches = list(
        ds.map_batches(_bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_verify, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    )
    if not batches:
        return pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
    out = pa.concat_tables(batches)
    # distinct (a pair can reappear if a bucket key repeats across groups)
    g = out.group_by(["doc_a", "doc_b"]).aggregate([("cosine", "max")])
    out = pa.table(
        {
            "doc_a": g.column("doc_a"),
            "doc_b": g.column("doc_b"),
            "cosine": g.column("cosine_max"),
        }
    )
    return out.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


# semdedup greedy-scan chunk width (patchable in tests to force the
# multi-chunk code path on small clusters)
_SEMDEDUP_CHUNK = 512


def semdedup(
    ds: ray.data.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_clusters: int = 16,
    tau: float = 0.3,
    iters: int = 10,
    sample: int = 2048,
    seed: int = 0,
    stream: bool = False,
) -> pa.Table | ray.data.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): k-means cluster the
    embedding space, then remove within-cluster semantic duplicates —
    per cluster, scan members in ascending id order and flag a member as a
    duplicate iff its cosine to some KEPT earlier member is >= tau
    (keep-first greedy, the same winner rule as exact_text_dedup).

    100-TB shape: centroids train on a deterministic unbiased sample
    (IvfIndex.train — per-batch partial top-k of splitmix64 ranks), the
    assignment is a streaming map_batches against broadcast centroids, and
    the quadratic verify runs per CLUSTER via groupby(centroid).map_groups
    — the corpus is never all-pairs'd; n_clusters scales so cluster sizes
    stay bounded (the paper uses ~100k clusters). The greedy scan is
    chunked: one chunk x kept-prefix matmul settles every prefix-shadowed
    member vectorized; only the residual in-chunk dependencies run the
    short sequential loop (identical keep-first semantics, see _flag).

    Ties: a cosine equal to tau is a duplicate (>=). The chunk matmuls'
    shapes follow `_SEMDEDUP_CHUNK` and BLAS may sum each dot product in a
    shape-dependent order, so for arbitrary vectors a cosine within rounding
    of tau can compare differently at another chunk width: decisions are
    the same at every chunk width when the cosines are computed exactly
    (as for the dyadic vectors in tests/test_semdedup.py), and otherwise
    only away from exact-tau ties.

    Returns (vec_id, centroid, keep, dup_of) — dup_of = the kept member
    that shadowed this one, -1 for kept rows. This table-returning form
    materializes the per-vector labels on the driver (fine for gates and
    small corpora); the 100-TB path is `semdedup_stream`, which returns
    the SAME labels as a Ray Dataset to be joined/consumed distributedly
    (the minhash_clusters_stream pattern)."""
    from .knn import IvfIndex

    ivf = IvfIndex.train(
        ds, n_clusters, vec_col=vec_col, iters=iters, sample=sample,
        seed=seed, id_col=id_col,
    )
    assigned = ivf.assign(ds, id_col=id_col, vec_col=vec_col)

    def _flag(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        m = _normalize_rows(_to_matrix(group.column(vec_col)))[order]
        cent = int(group.column("centroid")[0].as_py())
        n = ids.size
        keep = np.ones(n, dtype=bool)
        dup_of = np.full(n, -1, dtype=np.int64)
        if n > 1:
            # chunked keep-first greedy, identical semantics to the naive
            # sequential scan: a chunk member's first kept hit is either in
            # the KEPT PREFIX (all indices < chunk start — one vectorized
            # chunk x prefix matmul decides every prefix-shadowed member
            # and its first shadower at once) or, failing that, among kept
            # EARLIER members of its own chunk (short sequential loop
            # bounded by the chunk size). Replaces the O(n) Python loop
            # over n x n sims with O(n/C) matmuls + O(C) inner steps.
            chunk = _SEMDEDUP_CHUNK
            kept_idx: list[int] = [0]
            for s in range(1, n, chunk):
                e = min(s + chunk, n)
                kid = np.asarray(kept_idx, dtype=np.int64)
                pre = (m[s:e] @ m[kid].T) >= tau
                pre_any = pre.any(axis=1)
                pre_first = pre.argmax(axis=1)
                local = m[s:e] @ m[s:e].T
                for jl in range(e - s):
                    j = s + jl
                    if pre_any[jl]:
                        keep[j] = False
                        dup_of[j] = ids[kid[pre_first[jl]]]
                        continue
                    lk = keep[s:j]
                    hit = np.nonzero(lk & (local[jl, : j - s] >= tau))[0]
                    if hit.size:
                        keep[j] = False
                        dup_of[j] = ids[s + hit[0]]
                    else:
                        kept_idx.append(j)
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "centroid": pa.array(np.full(n, cent, dtype=np.int32), type=pa.int32()),
                "keep": pa.array(keep, type=pa.bool_()),
                "dup_of": pa.array(dup_of, type=pa.int64()),
            }
        )

    labels = assigned.groupby("centroid").map_groups(
        _flag, batch_format="pyarrow"
    )
    if stream:
        return labels
    batches = list(labels.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table(
            {
                id_col: pa.array([], type=pa.int64()),
                "centroid": pa.array([], type=pa.int32()),
                "keep": pa.array([], type=pa.bool_()),
                "dup_of": pa.array([], type=pa.int64()),
            }
        )
    return pa.concat_tables(batches).sort_by(id_col)


def semdedup_stream(
    ds: ray.data.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_clusters: int = 16,
    tau: float = 0.3,
    iters: int = 10,
    sample: int = 2048,
    seed: int = 0,
) -> ray.data.Dataset:
    """SemDeDup labels as a streaming Dataset — the 100-TB return path:
    (vec_id, centroid, keep, dup_of) rows flow out of the per-cluster
    map_groups tasks and can be joined back onto the corpus distributedly;
    nothing per-vector ever lands on the driver. Values identical to
    `semdedup` (same pipeline, minus the driver concat)."""
    return semdedup(
        ds, id_col=id_col, vec_col=vec_col, n_clusters=n_clusters, tau=tau,
        iters=iters, sample=sample, seed=seed, stream=True,
    )


def embedding_near_dups(
    ds: ray.data.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    target_block_rows: int = 8192,
) -> pa.Table:
    """Embedding-cosine near-dup pairs (doc_a < doc_b, cosine >= threshold),
    EXACT all-pairs semantics.

    Distributed block-pair matmul: the dataset is split into row blocks
    that stay in the object store (to_arrow_refs — nothing corpus-sized is
    ever materialized on the driver), then every unordered block pair
    (i <= j) is one Ray task computing a single cross matmul and emitting
    only its above-threshold pairs. Memory per task = two blocks; the
    driver holds only the result pairs. Exact all-pairs compute is
    inherently O(N^2) whatever the engine — at 100 TB use
    embedding_near_dups_lsh (the recall-gated scale path) and keep this as
    the oracle/verifier for bounded slices."""
    import ray

    nrows = ds.count()
    if nrows == 0:
        return pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "cosine": pa.array([], type=pa.float64()),
            }
        )
    nblocks = max(1, -(-nrows // target_block_rows))
    refs = ds.repartition(nblocks).to_arrow_refs()

    def _prep(t: pa.Table):
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        m = _normalize_rows(_to_matrix(t.column(vec_col)))
        return ids, m

    @ray.remote(num_cpus=1)
    def _pair_task(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ids_a, ma = _prep(ta)
        ids_b, mb = _prep(tb)
        sims = ma @ mb.T
        ai, bi = np.nonzero(sims >= threshold)
        a, b = ids_a[ai], ids_b[bi]
        if same:
            k = a < b
        else:
            k = a != b  # distinct blocks: every cross pair, once
        a, b, c = a[k], b[k], sims[ai, bi][k]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table(
            {
                "doc_a": pa.array(lo, type=pa.int64()),
                "doc_b": pa.array(hi, type=pa.int64()),
                "cosine": pa.array(c, type=pa.float64()),
            }
        )

    tasks = [
        _pair_task.remote(refs[i], refs[j], i == j)
        for i in range(len(refs))
        for j in range(i, len(refs))
    ]
    out = pa.concat_tables(ray.get(tasks))
    if len(out) == 0:
        return pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "cosine": pa.array([], type=pa.float64()),
            }
        )
    return out.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])
