"""CLI entry points — the graft of the reference's tools
(/root/reference/tools/construct_npy.cpp:90-135, query_npy.cpp:71-160) in the
`ray job submit` form the north rule requires:

    ray job submit -- python -m flatnav_ray.cli build --input DIR --out IX \
        [--partitions 32] [--layout doc|term] [--no-resume]
    ray job submit -- python -m flatnav_ray.cli query --index IX \
        --queries Q.parquet --out OUT.parquet [--k 10] [--method maxscore]
    python -m flatnav_ray.cli synth --rows 100000 --out DIR   # fixture corpus

Owns its Ray session (guarded init — under `ray job submit` the cluster is
already up).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _ray_init():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")


def cmd_build(args) -> int:
    import ray.data

    from .config import IndexConfig
    from .pipelines.build import build_index
    from .stages.termbuild import build_term_index

    _ray_init()
    cfg = IndexConfig(num_partitions=args.partitions, layout=args.layout)
    t0 = time.perf_counter()
    src = ray.data.read_parquet(args.input)
    if args.layout == "term":
        stats = build_term_index(src, args.out, cfg, salt_threshold=args.salt_threshold)
        n_docs = stats["n_docs"]
    else:
        res = build_index(src, args.out, cfg, resume=not args.no_resume)
        n_docs = res.n_docs
    dt = time.perf_counter() - t0
    print(json.dumps({"stage": "build", "layout": args.layout, "n_docs": n_docs,
                      "sec": round(dt, 2), "docs_per_sec": round(n_docs / dt, 1),
                      "index": args.out}))
    return 0


def cmd_query(args) -> int:
    import pyarrow.parquet as pq

    from .config import QueryConfig
    from .pipelines.ingest import open_session
    from .stages.termbuild import TermIndexSearcher
    from .state.stats import load_stats

    _ray_init()
    queries = pq.read_table(args.queries)
    t0 = time.perf_counter()
    if load_stats(args.index).get("layout") == "term":
        out = TermIndexSearcher(args.index).search(queries, k=args.k)
    else:
        # the session serves stacked deltas and tombstones (after `delete`)
        sess = open_session(args.index)
        try:
            out = sess.search(queries, QueryConfig(k=args.k, method=args.method))
        finally:
            sess.shutdown()
    dt = time.perf_counter() - t0
    pq.write_table(out, args.out)
    print(json.dumps({"stage": "query", "n_queries": len(queries), "rows": len(out),
                      "sec": round(dt, 3), "qps": round(len(queries) / dt, 1),
                      "out": args.out}))
    return 0


def cmd_explain(args) -> int:
    """Per-result score breakdown (the Lucene explain analog): one row per
    (query, top-k doc, term) whose contributions sum to the search score."""
    import pyarrow.parquet as pq

    from .config import QueryConfig
    from .pipelines.query import explain_to_table

    _ray_init()
    queries = pq.read_table(args.queries)
    t0 = time.perf_counter()
    out = explain_to_table(args.index, queries, QueryConfig(k=args.k))
    pq.write_table(out, args.out)
    print(json.dumps({"stage": "explain", "n_queries": len(queries),
                      "rows": len(out),
                      "sec": round(time.perf_counter() - t0, 3), "out": args.out}))
    return 0


def cmd_info(args) -> int:
    """Dump index stats + per-partition manifest summary (S9 introspection)."""
    from .state.manifest import read_manifest
    from .state.stats import load_stats

    stats = load_stats(args.index)
    parts = [
        m
        for p in stats.get("partitions", [])
        if (m := read_manifest(args.index, int(p))) is not None
    ]
    out = {
        "stage": "info",
        **{k: stats[k] for k in sorted(stats) if k != "partitions"},
        "n_partitions": len(stats.get("partitions", [])),
        "manifest_bytes": sum(p.bytes for p in parts),
        "manifest_terms": sum(p.n_terms for p in parts),
    }
    print(json.dumps(out))
    return 0


def cmd_compact(args) -> int:
    """Merge several same-config indexes into one (S8 graft — the
    segment-merge compaction stage)."""
    from .stages.compact import merge_indexes

    _ray_init()
    t0 = time.perf_counter()
    stats = merge_indexes(args.src, args.out)
    print(json.dumps({"stage": "compact", "n_docs": stats["n_docs"],
                      "sec": round(time.perf_counter() - t0, 2), "out": args.out}))
    return 0


def cmd_delete(args) -> int:
    """Tombstone deletes (the Lucene deleteDocuments surface): by url list,
    by id list, or by query text (--query). O(delete-set) tombstone write —
    no index rewrite; `compact` reclaims the space physically."""
    from .pipelines.ingest import delete_by_query, delete_documents

    _ray_init()
    t0 = time.perf_counter()
    if args.query:
        n = delete_by_query(args.index, args.query)
    elif args.ids:
        n = delete_documents(args.index, doc_ids=[int(x) for x in args.ids])
    else:
        n = delete_documents(args.index, urls=args.urls)
    print(json.dumps({"stage": "delete", "tombstoned": int(n),
                      "sec": round(time.perf_counter() - t0, 2)}))
    return 0


def cmd_fetch(args) -> int:
    """Stored-fields get-by-id (Lucene StoredFields.document): docmap rows
    for the given doc_ids, owner-routed pruned reads."""
    from .pipelines.query import fetch_docs

    _ray_init()
    out = fetch_docs(args.index, [int(x) for x in args.ids])
    if args.out:
        import pyarrow.parquet as pq

        pq.write_table(out, args.out)
        print(json.dumps({"stage": "fetch", "rows": len(out), "out": args.out}))
    else:
        for row in out.to_pylist():
            print(json.dumps(row))
    return 0


def _vectors_dataset(path: str):
    """Parquet dir/file or packed vector file -> Dataset(vec_id, embedding)."""
    import ray.data

    if path.endswith(".parquet") or os.path.isdir(path):
        return ray.data.read_parquet(path)
    from .sources.vectors import read_vectors

    return read_vectors(path)


def _vectors_matrix(path: str):
    """Small-side load (queries / gtruth): file -> (ids, ndarray)."""
    import numpy as np
    import pyarrow as pa

    ds = _vectors_dataset(path)
    t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow")).sort_by("vec_id")
    from .stages.knn import _to_matrix

    ids = t.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    return ids, _to_matrix(t.column("embedding"))


def cmd_ann_build(args) -> int:
    """construct_npy graft (tools/construct_npy.cpp:90-135): packed vector
    file (or embeddings parquet) -> sharded NSW graph index on disk."""
    from .stages.nsw import build_nsw_index

    _ray_init()
    t0 = time.perf_counter()
    n = build_nsw_index(
        _vectors_dataset(args.vectors), args.out, n_shards=args.shards,
        m=args.m, ef_construction=args.ef_construction, metric=args.metric,
    )
    dt = time.perf_counter() - t0
    print(json.dumps({"stage": "ann-build", "n_vectors": n, "shards": args.shards,
                      "m": args.m, "metric": args.metric, "sec": round(dt, 2),
                      "vecs_per_sec": round(n / dt, 1), "index": args.out}))
    return 0


def cmd_ann_query(args) -> int:
    """query_npy graft (tools/query_npy.cpp:71-160): query the NSW index,
    write (query_id, rank, vec_id, score) parquet; with --gtruth (ivecs/ibin
    or parquet of true neighbor id lists) also report recall@k — the
    reference CLI's headline output."""
    import numpy as np
    import pyarrow.parquet as pq

    from .stages.nsw import search_nsw_index

    _ray_init()
    qids, qv = _vectors_matrix(args.queries)
    t0 = time.perf_counter()
    out = search_nsw_index(args.index, qv, k=args.k, ef_search=args.ef_search,
                           query_ids=qids)
    dt = time.perf_counter() - t0
    pq.write_table(out, args.out)
    rep = {"stage": "ann-query", "n_queries": len(qids), "k": args.k,
           "ef_search": args.ef_search, "sec": round(dt, 3),
           "qps": round(len(qids) / dt, 1), "out": args.out}
    if args.gtruth:
        _, gt = _vectors_matrix(args.gtruth)  # row i = true neighbor ids of query i
        got: dict[int, list[int]] = {}
        for r in out.to_pylist():
            got.setdefault(r["query_id"], []).append(r["vec_id"])
        rec = [
            len(set(got.get(int(qid), [])) & set(gt[i][: args.k].astype(np.int64).tolist()))
            / args.k
            for i, qid in enumerate(qids)
        ]
        rep["recall"] = round(float(np.mean(rec)), 4)
    print(json.dumps(rep))
    return 0


def cmd_synth(args) -> int:
    from .sources.synth import pages_dataset

    _ray_init()
    pages_dataset(args.rows, seed=args.seed, chunk_rows=args.chunk_rows).write_parquet(args.out)
    print(json.dumps({"stage": "synth", "rows": args.rows, "out": args.out}))
    return 0


def cmd_export(args) -> int:
    """Sharded shuffled export: `export --input DIR --out DIR [--shards N]`
    — the deterministic SGD-shuffle final step (stages/export.py); re-runs
    resume per shard."""
    import ray.data

    from .stages.export import export_shuffled

    _ray_init()
    t0 = time.perf_counter()
    man = export_shuffled(
        ray.data.read_parquet(args.input), args.out,
        num_shards=args.shards, id_col=args.id_col, seed=args.seed,
    )
    rows = sum(man.column("rows").to_pylist())
    print(json.dumps({
        "stage": "export", "shards": len(man), "rows": rows,
        "bytes": sum(man.column("bytes").to_pylist()),
        "sec": round(time.perf_counter() - t0, 2), "out": args.out,
    }))
    return 0


def cmd_curate(args) -> int:
    """End-to-end curation chain over an sf-dir-style documents table:
    quality gate -> exact dedup -> decontamination -> mixture cut; writes
    the kept manifest (doc_id, source, n_tokens) to --out."""
    import pyarrow.parquet as pq

    from .pipelines.documents import curate_pipeline

    _ray_init()
    t0 = time.perf_counter()
    out = curate_pipeline(args.input, budget=args.budget)
    pq.write_table(out, args.out)
    print(json.dumps({
        "stage": "curate", "kept": len(out), "budget": args.budget,
        "sec": round(time.perf_counter() - t0, 2), "out": args.out,
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="flatnav_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("export")
    ex.add_argument("--input", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--shards", type=int, default=8)
    ex.add_argument("--id-col", default="doc_id")
    ex.add_argument("--seed", type=int, default=0)
    ex.set_defaults(fn=cmd_export)

    cu = sub.add_parser("curate")
    cu.add_argument("--input", required=True, help="sf-dir containing documents.parquet")
    cu.add_argument("--out", required=True)
    cu.add_argument("--budget", type=int, default=400)
    cu.set_defaults(fn=cmd_curate)

    b = sub.add_parser("build")
    b.add_argument("--input", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--partitions", type=int, default=32)
    b.add_argument("--layout", choices=["doc", "term"], default="doc")
    b.add_argument("--salt-threshold", type=int, default=50_000)
    b.add_argument("--no-resume", action="store_true")
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query")
    q.add_argument("--index", required=True)
    q.add_argument("--queries", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--method", choices=["taat", "maxscore", "wand"], default="maxscore")
    q.set_defaults(fn=cmd_query)

    e = sub.add_parser("explain")
    e.add_argument("--index", required=True)
    e.add_argument("--queries", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--k", type=int, default=10)
    e.set_defaults(fn=cmd_explain)

    inf = sub.add_parser("info")
    inf.add_argument("--index", required=True)
    inf.set_defaults(fn=cmd_info)

    c = sub.add_parser("compact")
    c.add_argument("--src", nargs="+", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_compact)

    dl = sub.add_parser("delete")
    dl.add_argument("--index", required=True)
    dl.add_argument("--urls", nargs="*", default=None)
    dl.add_argument("--ids", nargs="*", default=None)
    dl.add_argument("--query", default=None)
    dl.set_defaults(fn=cmd_delete)

    ft = sub.add_parser("fetch")
    ft.add_argument("--index", required=True)
    ft.add_argument("--ids", nargs="+", required=True)
    ft.add_argument("--out", default=None)
    ft.set_defaults(fn=cmd_fetch)

    ab = sub.add_parser("ann-build")
    ab.add_argument("--vectors", required=True,
                    help="packed vector file (.fvecs/.bvecs/.fbin/...) or embeddings parquet")
    ab.add_argument("--out", required=True)
    ab.add_argument("--shards", type=int, default=8)
    ab.add_argument("--m", type=int, default=16)
    ab.add_argument("--ef-construction", type=int, default=64)
    ab.add_argument("--metric", choices=["cosine", "l2", "ip"], default="cosine")
    ab.set_defaults(fn=cmd_ann_build)

    aq = sub.add_parser("ann-query")
    aq.add_argument("--index", required=True)
    aq.add_argument("--queries", required=True,
                    help="packed vector file or embeddings parquet")
    aq.add_argument("--out", required=True)
    aq.add_argument("--k", type=int, default=10)
    aq.add_argument("--ef-search", type=int, default=64)
    aq.add_argument("--gtruth", default=None,
                    help="true-neighbor id lists (.ivecs/.ibin or parquet) -> report recall@k")
    aq.set_defaults(fn=cmd_ann_query)

    s = sub.add_parser("synth")
    s.add_argument("--rows", type=int, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--chunk-rows", type=int, default=1000)
    s.set_defaults(fn=cmd_synth)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
