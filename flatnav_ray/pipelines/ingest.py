"""Incremental ingest: delta-segment build, generation stacking, compaction.

The graft of the reference's single-point `add` surface
(/root/reference/include/flatnav/index/Index.h:298-336 `add` /
python-bindings/src/flatnav/bindings.cpp:216-259 batched `add`) re-expressed
for a batch engine, in two tiers (the Lucene soft-commit/merge design on
Ray Data):

* STACK (default): new documents build only a DELTA index (cost O(delta),
  the reference's O(insert) analog) registered in `generations.json`;
  `StackedSearchSession` serves [base, deltas...] with upsert resolution at
  serve time, bit-identical to the compacted index. Compaction triggers when
  the stack exceeds `compact_threshold`.
* COMPACT: `merge_indexes([deltas newest-first..., base])` folds everything
  into a new generation (newest listed first, so a re-crawled url's new
  version wins — upsert semantics, matching the build's
  max-(warc_ts, text_hash) dedup direction) and atomically swaps it in.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..config import IndexConfig
from ..state.stats import load_stats
from .build import build_index

GENERATIONS_FILE = "generations.json"
TOMBSTONES_DIR = "_tombstones"


def list_generations(index_dir: str) -> list[str]:
    """Generation directories oldest-first: the base index itself plus any
    stacked deltas registered in generations.json."""
    path = os.path.join(index_dir, GENERATIONS_FILE)
    if not os.path.exists(path):
        return [index_dir]
    with open(path) as f:
        stack = json.load(f)["stack"]
    return [index_dir] + [os.path.join(index_dir, d) for d in stack]


def _write_generations(index_dir: str, stack: list[str]) -> None:
    """Atomic single-file manifest update (write-temp + rename)."""
    path = os.path.join(index_dir, GENERATIONS_FILE)
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump({"stack": stack}, f)
    os.rename(tmp, path)


def _cfg_from_stats(stats: dict) -> IndexConfig:
    return IndexConfig(
        num_partitions=int(stats["num_partitions"]),
        block_size=int(stats["block_size"]),
        k1=float(stats["k1"]),
        b=float(stats["b"]),
        scorer=stats["scorer"],
        analyzer=stats["analyzer"],
        layout=stats.get("layout", "doc"),
    )


def recover_generation(index_dir: str) -> str | None:
    """Roll a crashed generation swap forward (or back).

    The swap is two renames — `index_dir -> .old-<tag>` then
    `.gen-<tag> -> index_dir` — and cannot be fully atomic without
    renameat2(RENAME_EXCHANGE): a crash in the window between them leaves
    index_dir missing with the `.old-<tag>` (and possibly a complete
    `.gen-<tag>`) beside it. This detects that state and repairs it:
    roll FORWARD to the new generation when a complete `.gen-<tag>` exists
    (stats.json is written last by merge_indexes, so its presence proves
    completeness), else roll BACK to `.old-<tag>`. Returns "forward",
    "back", or None when index_dir is intact."""
    if os.path.exists(os.path.join(index_dir, "stats.json")):
        return None
    parent = os.path.dirname(os.path.abspath(index_dir)) or "."
    base = os.path.basename(os.path.abspath(index_dir))
    olds = sorted(n for n in os.listdir(parent) if n.startswith(f"{base}.old-"))
    if not olds:
        return None
    tag = olds[-1].rsplit("-", 1)[1]
    gen = os.path.join(parent, f"{base}.gen-{tag}")
    shutil.rmtree(index_dir, ignore_errors=True)  # at most a torn partial
    if os.path.exists(os.path.join(gen, "stats.json")):
        os.rename(gen, index_dir)
        for n in olds:
            shutil.rmtree(os.path.join(parent, n), ignore_errors=True)
        return "forward"
    os.rename(os.path.join(parent, olds[-1]), index_dir)
    shutil.rmtree(gen, ignore_errors=True)
    return "back"


def stack_size_bytes(index_dir: str) -> tuple[int, int]:
    """(base_bytes, delta_bytes): on-disk index bytes of the base generation
    vs the sum of all stacked deltas — the tiered-compaction policy input."""
    from ..stages.introspect import index_size_bytes

    gens = list_generations(index_dir)
    base = sum(index_size_bytes(gens[0]).values())
    deltas = sum(sum(index_size_bytes(g).values()) for g in gens[1:])
    return base, deltas


def delete_documents(
    index_dir: str,
    urls=None,
    doc_ids=None,
) -> int:
    """Delete documents by url (or precomputed doc_id) — the Lucene
    deleteDocuments(Term) analog the reference lacks entirely (flatnav has no
    remove; Index.h grows monotonically): an O(delete-set) TOMBSTONE write,
    no index rewrite.

    A tombstone file `_tombstones/<n_gens:04d>-<seq:04d>-<tag>.parquet`
    (sorted unique int64 `doc_id`) records WHICH generations it covers:
    `n_gens` = the stack length at delete time, so the delete kills the doc
    in every generation that existed then, while a LATER `add_documents`
    delta re-adding the same url produces a live document again (Lucene
    delete-then-reindex semantics). Serving applies tombstones through the
    same dead-mask path as stacked-generation shadows (`open_session`);
    compaction (`_compact_stack` / add_documents mode="compact") physically
    drops tombstoned docs and clears the files.

    `urls` may be a Python list or a ray.data.Dataset with a `url` column.
    Urls resolve to doc_ids through the index's own docmaps (one pruned-read
    Ray task per partition, the url set broadcast once via ray.put) — NOT by
    re-hashing, so deletes are correct under every docid strategy and on the
    driver-table adapter path where doc_id is the carried external id.
    Absent urls are silently no-ops, like Lucene deleteDocuments(Term).
    Returns the number of doc_ids tombstoned.
    """
    import ray

    from ..stages.build import _atomic_write_parquet

    recover_generation(index_dir)
    load_stats(index_dir)  # asserts a complete index is present
    if doc_ids is None:
        if urls is None:
            raise ValueError("need urls or doc_ids")
        if isinstance(urls, ray.data.Dataset):
            url_list: list[str] = []
            for b in urls.select_columns(["url"]).iter_batches(batch_format="pyarrow"):
                url_list.extend(b.column("url").to_pylist())
        else:
            url_list = list(urls)
        if not url_list:
            return 0
        urls_ref = ray.put(pa.array(sorted(set(url_list)), type=pa.string()))
        gens = list_generations(index_dir)
        parts = sorted({int(p) for g in gens for p in load_stats(g)["partitions"]})
        task = ray.remote(num_cpus=1)(_url_ids_one)
        id_parts = [a for a in ray.get(
            [task.remote(p, gens, urls_ref) for p in parts]
        ) if a.size]
        if not id_parts:
            return 0
        doc_ids = np.concatenate(id_parts)
    ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
    if not ids.size:
        return 0
    n_gens = len(list_generations(index_dir))
    tdir = os.path.join(index_dir, TOMBSTONES_DIR)
    seq = len(list_tombstone_files(index_dir))
    tag = uuid.uuid4().hex[:8]
    path = os.path.join(tdir, f"{n_gens:04d}-{seq:04d}-{tag}.parquet")
    _atomic_write_parquet(pa.table({"doc_id": pa.array(ids)}), path)
    return int(ids.size)


def _url_ids_one(partition: int, dirs: list[str], urls: pa.Array) -> np.ndarray:
    """Per-partition url -> doc_id resolution against every generation's
    docmap (columns pruned to (doc_id, url)); the url set arrives broadcast
    (ray.put) so N partitions share one object-store copy."""
    import pyarrow.compute as pc

    from ..stages.build import _clamp_worker_threads, docmap_path

    _clamp_worker_threads()
    out = []
    for d in dirs:
        p = docmap_path(d, partition)
        if not os.path.exists(p):
            continue
        dm = pq.read_table(p, columns=["doc_id", "url"])
        sel = dm.filter(pc.is_in(dm.column("url"), value_set=urls))
        if len(sel):
            out.append(
                sel.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
            )
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(out))


def _match_ids_one(
    partition: int, dirs: list[str], tombs, terms: list[str], block_size: int
) -> np.ndarray:
    """Per-partition match-set task for delete_by_query: load ONLY the query
    terms' segment rows (parquet row filter — the read is O(terms), not
    O(vocabulary)), apply the same generation-shadow + tombstone dead masks
    the serving actors use, and return the live doc_ids containing ANY term."""
    from ..stages.build import _clamp_worker_threads
    from ..stages.search import _ShardState, stack_states

    _clamp_worker_threads()
    out = []
    for _, st in stack_states(
        dirs, partition, tombs,
        lambda g, dead: _ShardState(dirs[g], partition, block_size,
                                    terms_filter=terms, dead_ids=dead),
    ):
        for t in terms:
            ids = st.live_term_doc_ids(t)
            if ids.size:
                out.append(ids)
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(out))


def delete_by_query(index_dir: str, text: str) -> int:
    """Delete every LIVE document matching any term of `text` (the Lucene
    deleteDocuments(Term) / delete-by-query surface): one pruned-read Ray
    task per partition collects the match set under the same shadow +
    tombstone masks serving uses, then the union becomes one tombstone file.
    Matching is OR over the analyzed terms; returns the number of ids
    tombstoned."""
    import ray

    from ..functions.tokenize import tokenize_py

    terms = sorted(set(tokenize_py(text)))
    if not terms:
        return 0
    recover_generation(index_dir)
    gens = list_generations(index_dir)
    tombs = load_tombstones(index_dir)
    stats = load_stats(index_dir)
    parts = sorted({int(p) for g in gens for p in load_stats(g)["partitions"]})
    task = ray.remote(num_cpus=1)(_match_ids_one)
    id_parts = ray.get(
        [task.remote(p, gens, tombs, terms, int(stats["block_size"])) for p in parts]
    )
    id_parts = [a for a in id_parts if a.size]
    if not id_parts:
        return 0
    return delete_documents(index_dir, doc_ids=np.concatenate(id_parts))


def list_tombstone_files(index_dir: str) -> list[str]:
    tdir = os.path.join(index_dir, TOMBSTONES_DIR)
    if not os.path.isdir(tdir):
        return []
    return sorted(
        os.path.join(tdir, n) for n in os.listdir(tdir) if n.endswith(".parquet")
    )


def load_tombstones(index_dir: str) -> list | None:
    """Per-generation deleted-id arrays aligned oldest-first with
    `list_generations(index_dir)` (None when no tombstones exist): generation
    g's array is the union of every tombstone file whose recorded coverage
    `n_gens` exceeds g — files only ever cover a PREFIX of the stack, so a
    delta added after a delete is never masked by it."""
    files = list_tombstone_files(index_dir)
    if not files:
        return None
    n = len(list_generations(index_dir))
    per_file = []
    for f in files:
        cover = int(os.path.basename(f).split("-", 1)[0])
        ids = pq.read_table(f).column("doc_id").to_numpy(zero_copy_only=False)
        per_file.append((cover, ids.astype(np.int64)))
    out = []
    for g in range(n):
        arrs = [ids for cover, ids in per_file if g < cover]
        out.append(np.unique(np.concatenate(arrs)) if arrs else None)
    return out


def open_session(index_dir: str, num_actors: int | None = None):
    """Open the right serving session for an index directory: a plain
    SearchSession for a single clean generation, a StackedSearchSession when
    delta generations and/or tombstones exist (live stats — n_docs / avgdl /
    df — are then computed over live documents, so results are rank- AND
    score-identical to the compacted, delete-applied rebuild)."""
    from ..stages.search import SearchSession, StackedSearchSession

    recover_generation(index_dir)
    gens = list_generations(index_dir)
    tombs = load_tombstones(index_dir)
    if len(gens) == 1 and tombs is None:
        return SearchSession(index_dir, num_actors=num_actors)
    return StackedSearchSession(gens, num_actors=num_actors, tombstones=tombs)


def add_documents(
    index_dir: str,
    pages: ray.data.Dataset,
    out_dir: str | None = None,
    mode: str = "compact",
    compact_threshold: int = 4,
    compact_ratio: float | None = None,
) -> dict:
    """Add `pages` to an existing doc-layout index.

    mode="stack": build ONLY the delta index (cost scales with the
    delta, not the corpus — the reference's O(insert) `add`, Index.h:298-336)
    as `_delta-<seq>-<tag>/` inside index_dir and register it atomically in
    generations.json; serve with `StackedSearchSession(list_generations(d))`.
    When the stack (base + deltas) would exceed `compact_threshold`
    generations — or, with `compact_ratio` set, when the deltas' combined
    on-disk bytes reach `compact_ratio` × the base's (the Lucene tiered-merge
    analog: many small deltas accumulate cheaply; compaction amortizes
    against a base at least 1/ratio their size) — everything compacts into a
    fresh single-generation index first. Returns the newest generation's
    stats dict.

    mode="compact" (default): fold [delta, base] into a new generation and
    either write it to `out_dir` or swap it into `index_dir`. The swap is
    two renames; a crash between them leaves index_dir missing with the
    `.old-<tag>` dir beside it — `recover_generation` (called here on open)
    detects that and rolls forward/back, so the observable states are: old
    generation, new generation, or recoverable-by-open.
    """
    recover_generation(index_dir)
    stats = load_stats(index_dir)
    if stats.get("layout", "doc") != "doc":
        raise ValueError("incremental add requires the doc layout")
    # dense_url / gorder assign per-partition DENSE ids: two independently
    # built generations would collide on id 0,1,2,... — only the stable
    # hash(url) id space merges safely
    if stats.get("docid_strategy", "hash") != "hash":
        raise ValueError(
            "incremental add requires docid_strategy='hash' (dense/gorder ids "
            "collide across generations; compact with a full rebuild instead)"
        )
    cfg = _cfg_from_stats(stats)
    tag = uuid.uuid4().hex[:8]

    if mode == "stack" and out_dir is None:
        gens = list_generations(index_dir)
        stack = [os.path.basename(g) for g in gens[1:]]
        # crashed delta builds leave unregistered _delta-* dirs: sweep them
        for n in os.listdir(index_dir):
            if n.startswith("_delta-") and n not in stack:
                shutil.rmtree(os.path.join(index_dir, n), ignore_errors=True)
        over_count = len(gens) + 1 > compact_threshold
        over_ratio = False
        if compact_ratio is not None and len(gens) > 1:
            base_b, delta_b = stack_size_bytes(index_dir)
            over_ratio = delta_b >= compact_ratio * base_b
        if over_count or over_ratio:
            _compact_stack(index_dir, cfg)
            gens = [index_dir]
            stack = []
        name = f"_delta-{len(gens):04d}-{tag}"
        delta_dir = os.path.join(index_dir, name)
        try:
            build_index(pages, delta_dir, cfg, resume=False)
        except BaseException:
            shutil.rmtree(delta_dir, ignore_errors=True)
            raise
        _write_generations(index_dir, stack + [name])
        return load_stats(delta_dir)

    delta_dir = f"{index_dir}.delta-{tag}"
    try:
        build_index(pages, delta_dir, cfg, resume=False)
        # delta FIRST: on doc_id collision the freshly added version wins
        return _compact_stack(index_dir, cfg, head=delta_dir, out_dir=out_dir)
    finally:
        shutil.rmtree(delta_dir, ignore_errors=True)


def compact(index_dir: str) -> dict:
    """Public force-merge (the Lucene forceMerge(1) analog): fold the whole
    generation stack into one fresh generation, physically dropping
    tombstoned documents, and swap it in. No-op-shaped but still rewrites
    when the index is already a single clean generation."""
    recover_generation(index_dir)
    return _compact_stack(index_dir, _cfg_from_stats(load_stats(index_dir)))


def _compact_stack(index_dir: str, cfg: IndexConfig, head: str | None = None,
                   out_dir: str | None = None) -> dict:
    """Fold the whole generation stack into a fresh single-generation index
    (newest generation listed first so its documents win; tombstones are
    applied) and swap it in, or write it to `out_dir` instead. `head`, a
    freshly built delta that no tombstone covers, is listed before them all."""
    from ..stages.compact import merge_indexes

    tag = uuid.uuid4().hex[:8]
    gen_dir = out_dir or f"{index_dir}.gen-{tag}"
    srcs = list(reversed(list_generations(index_dir)))
    tombs = load_tombstones(index_dir)
    excl = list(reversed(tombs)) if tombs else None
    if head is not None:
        srcs = [head] + srcs
        excl = [None] + excl if excl else None
    try:
        merged = merge_indexes(srcs, gen_dir, cfg, exclude_per_src=excl)
    except BaseException:
        if out_dir is None:
            shutil.rmtree(gen_dir, ignore_errors=True)
        raise
    if out_dir is None:
        old = f"{index_dir}.old-{tag}"
        os.rename(index_dir, old)
        os.rename(gen_dir, index_dir)
        shutil.rmtree(old, ignore_errors=True)
    return merged
