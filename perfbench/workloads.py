"""The three workloads. Each is a closed loop with one client: the next call
is sent only when the previous one has returned.

A run does a fixed amount of work: a number of cycles set by `--seconds`
alone (`--seconds` over a fixed per-cycle figure, about the cycle's time on
a 1-CPU host, at least one cycle). Runs of two versions of the engine
therefore do the same calls, however fast each is. A workload returns its
end-to-end values under the names of BENCHMARK.json and keeps the
per-workload samples behind them.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

from . import inputs as I
from .gate import oracle_mismatches, same_answer
from .stats import Tally, summary, tail

SETUP_REPS = 3
ONESHOT_QUERIES = 300
BATCH_QUERIES = 2000
# untimed queries that fill the session's term-contribution cache before the
# timed batches; without them batch throughput doubles over the first
# 16,000 timed queries
WARM_QUERIES = 8000
SINGLES_PER_ROUND = 40
STACKED_QUERIES = 100
# every WAND_EVERY-th stacked query is also answered by wand, which must
# return the maxscore answer
WAND_EVERY = 4
# seconds of --seconds per group of three timed refresh cycles
REFRESH_GROUP_S = 12.0


def refresh_cycles(seconds: float) -> int:
    """Cycles of one refresh run: an untimed first one, then groups of three."""
    return 1 + 3 * max(1, round(seconds / REFRESH_GROUP_S))


class Run:
    """What one workload run shares: inputs, scratch space, the failure
    tally, the optional span recorder and the timed cycle windows."""

    def __init__(self, inputs: I.Inputs, work: str, seconds: float, nproc: int, rec=None,
                 rss=None):
        self.inputs = inputs
        self.rss = rss
        self.work = work
        self.seconds = seconds
        self.nproc = nproc
        self.rec = rec
        self.tally = Tally()
        self.cycles: list[tuple[float, float]] = []
        self.samples: dict[str, list[float]] = {}

    def call(self, op: str, fn, *args, **kwargs):
        """(result, seconds) of one operation; (None, seconds) and a failure
        in the tally when it raises."""
        t0 = time.perf_counter()
        try:
            if self.rec is None:
                out = fn(*args, **kwargs)
            else:
                with self.rec.span(f"op.{op}"):
                    out = fn(*args, **kwargs)
        except Exception as e:  # the run goes on; the failure is counted
            self.tally.record(False, f"{op}: {e!r}")
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def loop(self, cycle, nominal_s: float = 0.0, rounds: int = 0) -> None:
        """Run `cycle(i)` `rounds` times, or as many times as fit `seconds`
        at the nominal cycle time."""
        for i in range(rounds or max(1, round(self.seconds / nominal_s))):
            if self.rss is not None:
                self.rss.sample()
            c0 = time.perf_counter()
            cycle(i)
            self.cycles.append((c0, time.perf_counter()))
        if self.rss is not None:
            self.rss.sample()

    def check_sample(self, op: str, out, oracle, ids) -> None:
        if out is None:
            return
        bad = oracle_mismatches(out, oracle, ids)
        self.tally.record(not bad, f"{op}: oracle mismatch on queries {bad}")


def _sample_ids(inputs: I.Inputs) -> list[int]:
    return inputs.sample().column("query_id").to_pylist()


def _query_cfg(method: str = "maxscore"):
    from flatnav_ray.config import QueryConfig

    return QueryConfig(k=I.K, method=method)


def batch_job(run: Run) -> dict:
    """build_index over the corpus, then one search_to_table over a few
    hundred queries on the new index: the Ray Data path of the driver
    entries."""
    import ray.data

    from flatnav_ray.config import IndexConfig
    from flatnav_ray.pipelines.build import build_index
    from flatnav_ray.pipelines.query import search_to_table

    inp = run.inputs
    pages = inp.pages()
    oracle, ids = inp.oracle(), _sample_ids(inp)
    cfg = IndexConfig(num_partitions=I.NUM_PARTITIONS)

    # set-up: a build over the first 256 pages (task workers, imports)
    warm = os.path.join(run.work, "warm")
    for i in range(SETUP_REPS):
        shutil.rmtree(warm, ignore_errors=True)
        t0 = time.perf_counter()
        build_index(ray.data.read_parquet(pages).limit(256), warm, cfg, resume=False)
        run.sample("setup_s", time.perf_counter() - t0)
    # the first search_to_table of a process after a build waits 10-20 s
    # longer than every later one (Ray starting the actor pool's worker
    # beside the build's idle task workers); keep it out of the cycles
    search_to_table(warm, inp.queries(20, 0, 9999), _query_cfg())

    sizes = []

    def cycle(i):
        ix = os.path.join(run.work, f"ix-{i}")
        res, dt = run.call("build", build_index, ray.data.read_parquet(pages), ix, cfg, resume=False)
        if res is not None and run.tally.record(res.n_docs > 0, "build: empty index"):
            run.sample("build_docs_per_s", res.n_docs / dt)
            sizes.append(res.bytes / res.n_docs)
        queries = inp.with_sample(inp.queries(ONESHOT_QUERIES, 0, i))
        out, dt = run.call("oneshot", search_to_table, ix, queries, _query_cfg())
        run.check_sample("oneshot", out, oracle, ids)
        run.sample("oneshot_ms", dt * 1e3)
        shutil.rmtree(ix, ignore_errors=True)

    run.loop(cycle, nominal_s=12.0)
    return {
        "throughput_per_s": _median(run, "build_docs_per_s"),
        "call_p50_ms": _median(run, "oneshot_ms"),
        "index_bytes_per_doc": sizes[-1] if sizes else None,
    }


def serve(run: Run) -> dict:
    """One warm SearchSession over the prebuilt index: 2000-query maxscore
    batches and single queries, each answered by maxscore and by wand."""
    from flatnav_ray.stages.search import SearchSession

    inp = run.inputs
    base, meta = inp.base_index()
    sample, oracle, ids = inp.sample(), inp.oracle(), _sample_ids(inp)

    # set-up: open the session to its first answer
    sess = None
    for i in range(SETUP_REPS):
        if sess is not None:
            sess.shutdown()
        t0 = time.perf_counter()
        sess = SearchSession(base, num_actors=run.nproc)
        sess.search(sample.slice(0, 1), _query_cfg())
        run.sample("setup_s", time.perf_counter() - t0)

    # untimed gate on the single-query paths
    for j in range(len(sample)):
        q = sample.slice(j, 1)
        for method in ("maxscore", "wand"):
            out, _ = run.call("gate", sess.search, q, _query_cfg(method))
            run.check_sample(f"single {method}", out, oracle, q.column("query_id").to_pylist())
    run.call("warm", sess.search, inp.queries(WARM_QUERIES, 4), _query_cfg())

    def cycle(i):
        batch = inp.with_sample(inp.queries(BATCH_QUERIES - I.SAMPLE_QUERIES, 1, i))
        out, dt = run.call("batch", sess.search, batch, _query_cfg())
        run.check_sample("batch", out, oracle, ids)
        run.sample("batch_qps", len(batch) / dt)
        singles = inp.queries(SINGLES_PER_ROUND, 2, i)
        for j in range(len(singles)):
            q = singles.slice(j, 1)
            a, dt = run.call("point", sess.search, q, _query_cfg("maxscore"))
            run.sample("point_ms", dt * 1e3)
            b, dt = run.call("wand", sess.search, q, _query_cfg("wand"))
            run.sample("wand_ms", dt * 1e3)
            if a is not None and b is not None:
                run.tally.record(same_answer(a, b), f"wand != maxscore for {q.column('text')[0]}")

    run.loop(cycle, nominal_s=4.0)
    sess.shutdown()
    return {
        "throughput_per_s": _median(run, "batch_qps"),
        "call_p50_ms": _median(run, "point_ms"),
        "index_bytes_per_doc": meta["bytes"] / meta["n_docs"],
    }


def restore(base: str, ix: str) -> None:
    """A pristine copy of the base index at `ix`, with the crash leftovers
    of any earlier run (`_delta-*`, `.old-*`, `.gen-*`) swept away."""
    parent = os.path.dirname(ix)
    name = os.path.basename(ix)
    for n in os.listdir(parent):
        if n == name or n.startswith(f"{name}."):
            shutil.rmtree(os.path.join(parent, n), ignore_errors=True)
    shutil.copytree(base, ix)


def refresh(run: Run) -> dict:
    """Writes beside reads on a copy of the base index: add 500 pages
    (stack mode), delete 100 urls, reopen the session, 100 single queries
    by maxscore, every fourth of them by wand as well."""
    import ray.data

    from flatnav_ray.pipelines import ingest

    inp = run.inputs
    base, _ = inp.base_index()
    sample = inp.sample()
    ix = os.path.join(run.work, "index")

    # set-up: restore the pristine base and open it to its first answer
    for i in range(SETUP_REPS):
        t0 = time.perf_counter()
        restore(base, ix)
        sess = ingest.open_session(ix, num_actors=run.nproc)
        sess.search(sample.slice(0, 1), _query_cfg())
        run.sample("setup_s", time.perf_counter() - t0)
        sess.shutdown()

    n = refresh_cycles(run.seconds)
    adds = [inp.add_pages(c) for c in range(n)]
    deletes = [inp.delete_urls(c) for c in range(n)]
    queries = [inp.queries(STACKED_QUERIES, 3, c) for c in range(n)]
    state = {"sess": None}

    def one(c: int, timed: bool) -> None:
        t0 = time.perf_counter()
        res, _ = run.call("add", ingest.add_documents, ix, ray.data.read_parquet(adds[c]),
                          mode="stack")
        if res is not None:
            run.tally.record(True)
        deleted, _ = run.call("delete", ingest.delete_documents, ix, urls=deletes[c])
        if deleted is not None:
            run.tally.record(deleted == I.DELETE_URLS,
                             f"delete: {deleted} of {I.DELETE_URLS} urls matched")
        if state["sess"] is not None:
            state["sess"].shutdown()
        sess, _ = run.call("open", ingest.open_session, ix, num_actors=run.nproc)
        state["sess"] = sess
        if sess is None:
            return
        q = queries[c]
        first, _ = run.call("stacked", sess.search, q.slice(0, 1), _query_cfg())
        if first is not None:
            run.tally.record(True)
        if timed:
            run.sample("refresh_s", time.perf_counter() - t0)
        for j in range(1, len(q)):
            qj = q.slice(j, 1)
            a, dt = run.call("stacked", sess.search, qj, _query_cfg())
            if timed:
                run.sample("stacked_ms", dt * 1e3)
            if j % WAND_EVERY:
                if a is not None:
                    run.tally.record(True)
                continue
            b, dt = run.call("stacked_wand", sess.search, qj, _query_cfg("wand"))
            if timed:
                run.sample("stacked_wand_ms", dt * 1e3)
            if a is not None and b is not None:
                run.tally.record(same_answer(a, b),
                                 f"stacked wand != maxscore for {qj.column('text')[0]}")

    # untimed first cycle: the stack then holds two generations, so each
    # group of three timed cycles holds exactly one compaction (the default
    # compact_threshold=4 compacts on every third add from there)
    one(0, timed=False)
    run.loop(lambda i: one(1 + i, timed=True), rounds=n - 1)

    sess = state["sess"]
    oracle = inp.refresh_oracle(n)
    ids = sample.column("query_id").to_pylist()
    a, _ = run.call("gate", sess.search, sample, _query_cfg("maxscore"))
    run.check_sample("final stacked state", a, oracle, ids)
    b, _ = run.call("gate", sess.search, sample, _query_cfg("wand"))
    if a is not None and b is not None:
        run.tally.record(same_answer(a, b), "final stacked state: wand != maxscore")
    n_live = int(sess.stats["n_docs"])
    sess.shutdown()
    base_b, delta_b = ingest.stack_size_bytes(ix)
    refresh_mean = statistics.fmean(run.samples["refresh_s"]) if run.samples.get("refresh_s") else None
    return {
        "throughput_per_s": I.ADD_PAGES / refresh_mean if refresh_mean else None,
        "call_p50_ms": _median(run, "stacked_ms"),
        "index_bytes_per_doc": (base_b + delta_b) / n_live if n_live else None,
    }


def _median(run: Run, name: str):
    v = run.samples.get(name)
    return statistics.median(v) if v else None


WORKLOADS = {"batch-job": batch_job, "serve": serve, "refresh": refresh}

# per-workload figures printed beside the end-to-end metrics:
# (sample name, label, unit)
FIGURES = {
    "batch-job": [("build_docs_per_s", "build_docs_per_s", "1/s"),
                  ("oneshot_ms", "oneshot_ms", "ms")],
    "serve": [("batch_qps", "batch_qps", "1/s"), ("point_ms", "point", "ms"),
              ("wand_ms", "wand", "ms")],
    "refresh": [("refresh_s", "refresh_s", "s"), ("stacked_ms", "stacked", "ms"),
                ("stacked_wand_ms", "stacked_wand", "ms")],
}


def figure_lines(workload: str, run: Run) -> list[str]:
    """One line per figure: median, quartiles, sample count, and for
    latencies the tail the sample supports."""
    lines = []
    for key, label, unit in FIGURES[workload] + [("setup_s", "setup_s", "s")]:
        v = run.samples.get(key)
        if not v:
            continue
        s = summary(v)
        line = (f"{workload:9s} {label:18s} median {s['median']:.4g} "
                f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} n={s['n']} {unit}")
        if unit == "ms":
            name, val = tail(v)
            line += f"  {name} {val:.4g} ms"
        lines.append(line)
    return lines
