"""End-to-end index build pipeline (SURVEY.md §3.1 flagship trace, build side).

One build path, the two-phase spill build of stages/twophase.py:

    read_parquet(pages)
      -> map_batches(map_partial_spill)   [extract + doc_id + partition +
                                           within-batch dedup + tokenize;
                                           one packed partial per partition,
                                           spilled as a meta/post file pair]
      -> count()                          [the map barrier]
      -> merge_spilled_partition per partition, as raw Ray tasks
                                          [recrawl winners across partials,
                                           k-way run merge, encode; atomic
                                           segment/docmap/manifest, resumable]
      -> term_stats: column-pruned read over segments -> groupby(term).sum(df)
      -> stats.json (n_docs, avgdl, fingerprint)

Design note vs SURVEY.md A8: postings are built PARTITION-LOCAL — the heavy
(term, doc_id, tf) stream never crosses the network. Only the tiny (term, df)
pairs shuffle globally for BM25's idf (classic partial-aggregation/combiner).
The groupby(term) full-posting shuffle with heavy-hitter salting + hierarchical
merge exists as the alternative "term" layout in stages/termbuild.py.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray.data

from ..config import IndexConfig
from ..functions.extract import extract_text_batch
from ..functions.hashes import doc_ids_for_urls
from ..state.manifest import completed_partitions, manifest_dir, read_manifest
from ..state.stats import save_stats, term_stats_dir


def prepare_batch(batch: pa.Table, num_partitions: int, langs: tuple[str, ...] | None) -> pa.Table:
    """Stateless prep: extract text (M1), assign doc_id (M3: stable url hash —
    or the carried ext_doc_id on the adapter path), derive partition, drop the
    heavy html column immediately (SURVEY.md §7 'wide rows')."""
    from ..stages.build import _clamp_worker_threads

    _clamp_worker_threads()
    batch = extract_text_batch(batch)
    if "ext_doc_id" in batch.column_names:
        doc_id = batch.column("ext_doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        batch = batch.drop_columns(["ext_doc_id"])
    else:
        doc_id = doc_ids_for_urls(batch.column("url")).astype(np.int64)
    part = (doc_id % np.int64(num_partitions)).astype(np.int32)
    batch = batch.append_column("doc_id", pa.array(doc_id, type=pa.int64()))
    batch = batch.append_column("partition", pa.array(part, type=pa.int32()))
    if langs is not None:
        import pyarrow.compute as pc

        batch = batch.filter(pc.is_in(batch.column("lang"), value_set=pa.array(langs)))
    keep = ["url", "warc_ts", "text", "lang", "doc_id", "partition"]
    return batch.select(keep)


def _is_multi_node() -> bool:
    """True when the connected Ray cluster has more than one alive node."""
    try:
        import ray as _ray

        if not _ray.is_initialized():
            return False
        return sum(1 for n in _ray.nodes() if n.get("Alive")) > 1
    except Exception:  # pragma: no cover - defensive (no cluster info)
        return False


def _pick_spill_dir(index_dir: str) -> str:
    """Shuffle-spill location for the two-phase build.

    SINGLE NODE: $FLATNAV_SPILL_ROOT > /dev/shm (tmpfs: no disk writeback
    competing with the merge's reads + segment writes) > index_dir/_partials.

    MULTI NODE: node-local tmpfs is NOT a shuffle — map tasks would write
    partials to each node's own /dev/shm and a merge task scheduled on one
    node would silently read only that node's files (Spark-style shuffle
    files work only because reducers FETCH from every mapper; nothing here
    fetches). So with >1 alive node the spill defaults to
    index_dir/_partials: the index dir must be on shared storage for a
    multi-node build to be readable at all, and spilling beside it keeps
    every partial visible to every merge task. $FLATNAV_SPILL_ROOT still
    overrides — it must then point at shared storage (NFS/FSx/object mount).
    """
    root = os.environ.get("FLATNAV_SPILL_ROOT")
    if not root and _is_multi_node():
        return os.path.join(index_dir, "_partials")
    if not root and os.path.isdir("/dev/shm"):
        try:
            import shutil as _sh

            if _sh.disk_usage("/dev/shm").free > 16 * 1024**3:
                root = "/dev/shm/flatnav_spill"
        except OSError:
            root = None
    if root:
        key = hashlib.blake2b(os.path.abspath(index_dir).encode(), digest_size=6).hexdigest()
        return os.path.join(root, key)
    return os.path.join(index_dir, "_partials")


@dataclass
class BuildResult:
    index_dir: str
    n_docs: int
    sum_doc_len: int
    avgdl: float
    num_partitions: int
    n_partitions_built: int
    n_partitions_skipped: int
    # file bytes of the segments and docmaps (the manifests' sum); the
    # term_stats file is not counted here (`ingest.stack_size_bytes` and
    # `introspect.index_size_bytes` count it)
    bytes: int
    # wall-clock seconds of the build's layers: "map_s" (read + map + the
    # count() barrier), "merge_s" (all merge tasks, as waited for),
    # "merge_max_s" / "merge_median_s" (one merge task, timed inside it),
    # "term_stats_s", and "unexplained_s" (the wall time the others leave)
    laps: dict[str, float] = field(default_factory=dict)


def build_index(
    pages: ray.data.Dataset,
    index_dir: str,
    cfg: IndexConfig | None = None,
    resume: bool = True,
) -> BuildResult:
    """Build (or resume) the partitioned inverted index from a pages Dataset.

    Map side (`map_partial_spill`, pipelined with the read): extract,
    within-batch dedup, tokenize and pack one partial per partition, spilled
    to `_pick_spill_dir`. After the map barrier, one raw Ray task per
    partition (`merge_spilled_partition`) resolves recrawl winners across
    partials, merges the sorted runs, encodes and writes the segment, docmap
    and manifest. Partitions whose manifest already matches the config
    fingerprint are skipped when `resume` is set. `BuildResult.laps` times
    the layers."""
    import shutil

    from ..stages.twophase import MERGE_NUM_CPUS, map_partial_spill

    cfg = cfg or IndexConfig()
    os.makedirs(index_dir, exist_ok=True)
    fingerprint = cfg.fingerprint()
    done = completed_partitions(index_dir, fingerprint) if resume else set()

    t0 = time.perf_counter()
    spill_dir = _pick_spill_dir(index_dir)
    shutil.rmtree(spill_dir, ignore_errors=True)
    mapped = pages.map_batches(
        map_partial_spill,
        batch_format="pyarrow",
        zero_copy_batch=True,
        # big enough that each partial row covers many docs per partition
        # (tiny batches would fragment dictionaries and bloat the merge)
        batch_size=4096,
        fn_kwargs={
            "num_partitions": cfg.num_partitions,
            "langs": cfg.langs,
            "spill_dir": spill_dir,
        },
    )
    mapped.count()  # the map barrier: drives the map phase, partials land on disk
    t1 = time.perf_counter()

    merge_cpus = max(1, min(MERGE_NUM_CPUS, int(ray.cluster_resources().get("CPU", 1))))
    merge_task = ray.remote(num_cpus=merge_cpus)(_timed_merge)
    futs = [
        merge_task.remote(p, spill_dir, index_dir, cfg, done)
        for p in range(cfg.num_partitions)
    ]
    rows, merge_secs = zip(*ray.get(futs))
    mt = pa.concat_tables(rows)
    shutil.rmtree(spill_dir, ignore_errors=True)
    t2 = time.perf_counter()
    built = mt.filter(pa.compute.equal(mt.column("skipped_resume"), False)) if len(mt) else mt

    # authoritative stats come from the on-disk manifests (includes resumed parts)
    n_docs = 0
    sum_dl = 0
    nbytes = 0
    n_built = 0
    mdir = manifest_dir(index_dir)
    parts_on_disk = []
    if os.path.isdir(mdir):
        for name in sorted(os.listdir(mdir)):
            if name.startswith("part-") and name.endswith(".json"):
                p = int(name[5:-5])
                m = read_manifest(index_dir, p)
                if m and m.config_fingerprint == fingerprint:
                    parts_on_disk.append(p)
                    n_docs += m.n_docs
                    sum_dl += m.sum_doc_len
                    nbytes += m.bytes
                    n_built += 1
    avgdl = (sum_dl / n_docs) if n_docs else 0.0

    t3 = time.perf_counter()
    _build_term_stats(index_dir)
    t4 = time.perf_counter()

    save_stats(
        index_dir,
        {
            "n_docs": n_docs,
            "sum_doc_len": sum_dl,
            "avgdl": avgdl,
            "num_partitions": cfg.num_partitions,
            "partitions": parts_on_disk,
            "config_fingerprint": fingerprint,
            "block_size": cfg.block_size,
            "k1": cfg.k1,
            "b": cfg.b,
            "scorer": cfg.scorer,
            "analyzer": cfg.analyzer,
            "layout": cfg.layout,
            "docid_strategy": cfg.docid_strategy,
        },
    )
    return BuildResult(
        index_dir=index_dir,
        n_docs=n_docs,
        sum_doc_len=sum_dl,
        avgdl=avgdl,
        num_partitions=cfg.num_partitions,
        n_partitions_built=len(built),
        n_partitions_skipped=len(done),
        bytes=nbytes,
        laps={
            "map_s": t1 - t0,
            "merge_s": t2 - t1,
            "merge_max_s": max(merge_secs),
            "merge_median_s": float(np.median(merge_secs)),
            "term_stats_s": t4 - t3,
            "unexplained_s": (time.perf_counter() - t0) - (t2 - t0) - (t4 - t3),
        },
    )


def _timed_merge(partition, spill_dir, index_dir, cfg, resume):
    """One build merge task: the partition's manifest row and its seconds."""
    from ..stages import twophase

    t0 = time.perf_counter()
    row = twophase.merge_spilled_partition(partition, spill_dir, index_dir, cfg, resume)
    return row, time.perf_counter() - t0


DRIVER_SIDE_TERMSTATS_ROWS = 20_000_000

# term_stats row groups: lookup_term_df's filtered read prunes by the
# min/max term of each group of the term-sorted file
TERMSTATS_ROW_GROUP = 65536
TERMSTATS_SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64())])


def _build_term_stats(index_dir: str) -> None:
    """Global (term, df): column-pruned read of segment files (only term+df
    leave disk), partial dfs combine in a small groupby — the combiner-style
    aggregation SURVEY.md §4 prescribes instead of shuffling postings.

    Small/medium vocabularies aggregate driver-side in Arrow C++ (a Ray
    groupby+sort costs seconds of fixed overhead); huge ones fall back to the
    distributed path. Both write term-sorted, zstd, dictionary-less Parquet
    in 65,536-row groups, the way every index file is written."""
    import shutil

    from ..stages.build import PARQUET_WRITE_ARGS, _atomic_write_parquet

    seg_dir = os.path.join(index_dir, "segments")
    files = (
        [os.path.join(seg_dir, f) for f in sorted(os.listdir(seg_dir)) if f.endswith(".parquet")]
        if os.path.isdir(seg_dir)
        else []
    )
    out_dir = term_stats_dir(index_dir)
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    out_path = os.path.join(out_dir, "term_stats.parquet")

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    if not files:  # empty index (e.g. empty input): typed empty term_stats
        _atomic_write_parquet(TERMSTATS_SCHEMA.empty_table(), out_path)
        return

    total_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    if total_rows <= DRIVER_SIDE_TERMSTATS_ROWS:
        t = pads.dataset(files, format="parquet").to_table(columns=["term", "df"])
        agg = t.group_by("term").aggregate([("df", "sum")])
        # select by generated name (key-vs-aggregate column order varies
        # across pyarrow releases; a positional rename would mislabel)
        agg = pa.table({"term": agg.column("term"), "df": agg.column("df_sum")})
        _atomic_write_parquet(
            agg.sort_by("term").cast(TERMSTATS_SCHEMA), out_path, row_group_size=TERMSTATS_ROW_GROUP
        )
        return

    ts = (
        ray.data.read_parquet(files, columns=["term", "df"])
        .groupby("term")
        .sum("df")
        .map_batches(
            lambda b: pa.table({"term": b.column("term"), "df": b.column("sum(df)")}),
            batch_format="pyarrow",
        )
        .sort("term")
    )
    # the same tmp+rename, of the whole directory
    tmp_dir = f"{out_dir}.tmp-{os.getpid()}"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    ts.write_parquet(tmp_dir, row_group_size=TERMSTATS_ROW_GROUP, **PARQUET_WRITE_ARGS)
    os.replace(tmp_dir, out_dir)
