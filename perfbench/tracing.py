"""Spans around the calls into each engine layer, recorded from outside the
engine.

A wrapper replaces a public function at the name its caller looks it up
(a module attribute or a class attribute). The driver installs the wrappers
with `install`; Ray workers install the same set through the job's
`runtime_env={"worker_process_setup_hook": "perfbench.tracing.install_worker"}`.

A span is a dict: name, id, parent (0 for a root), root (the id of the root
span of its call), pid, start, end (`time.perf_counter()`, which is the
system-wide monotonic clock on Linux, so spans of different processes share
one time axis) and optional counts. Spans stay in memory; a worker appends
its buffer to `<trace dir>/w-<pid>.jsonl` each time one of its root spans
ends, and the driver writes its own buffer once at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import threading
import time

import numpy as np

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """In-memory span buffer of one process."""

    def __init__(self, sink: str | None = None, flush_on_root: bool = False):
        self.sink = sink
        self.flush_on_root = flush_on_root
        self.spans: list[dict] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> dict:
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "name": name,
            "id": sid,
            "parent": parent["id"] if parent else 0,
            "root": parent["root"] if parent else sid,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def close(self, span: dict, counts: dict | None = None, end: float | None = None) -> None:
        span["end"] = time.perf_counter() if end is None else end
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if counts:
            span["counts"] = counts
        with self._lock:
            self.spans.append(span)
        if self.flush_on_root and span["parent"] == 0:
            self.flush()

    def span(self, name: str):
        """Context manager for a span the benchmark opens around its own calls."""
        rec = self

        class _Ctx:
            def __enter__(self):
                self.s = rec.open(name)
                return self.s

            def __exit__(self, *exc):
                rec.close(self.s)
                return False

        return _Ctx()

    def flush(self) -> None:
        if self.sink is None:
            return
        with self._lock:
            out, self.spans = self.spans, []
        if out:
            with open(self.sink, "a") as f:
                for s in out:
                    f.write(json.dumps(s) + "\n")


def traced(rec: Recorder, name: str, fn, count=None):
    """`fn` wrapped in a span. `count(result, args, kwargs)` returns the
    span's counts; it runs after the span's end time is taken, so its cost
    is not part of the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(span, {"raised": 1})
            raise
        end = time.perf_counter()
        rec.close(span, count(out, args, kwargs) if count else None, end)
        return out

    wrapper.__perfbench_original__ = fn
    return wrapper


# ---- counters -------------------------------------------------------------


def _tokens_py(out, args, kwargs):
    return {"tokens": len(out)}


def _tokens_encoded(out, args, kwargs):
    return {"tokens": int(out[2].sum())}


def _encoded_bytes(out, args, kwargs):
    cols = out[0]
    return {"bytes": int(cols["doc_blob"].buffers()[2].size + cols["tf_blob"].buffers()[2].size)}


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _decoded_blocks(out, args, kwargs):
    mask = _arg(args, kwargs, 5, "block_mask")
    if mask is not None and not mask.all():
        return {"blocks": int(mask.sum())}
    return {"blocks": len(_arg(args, kwargs, 2, "block_last_doc"))}


def _postings_scored(out, args, kwargs):
    # bound method: args[0] is the scorer, args[1] the tf array
    return {"postings": len(args[1])}


def _plan_bytes(out, args, kwargs):
    return {"bytes": len(pickle.dumps(out, protocol=5))}


def _merge_rows(out, args, kwargs):
    return {"rows": len(args[0])}


def _missing_terms(out, args, kwargs):
    # bound method (self, missing) or the free function (index_dir, terms)
    return {"terms": len(args[1])}


def _delta_bytes(out, args, kwargs):
    return {"bytes": int(out.bytes)}


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


def _rewritten_bytes(out, args, kwargs):
    return {"bytes": _dir_bytes(_arg(args, kwargs, 1, "out_dir"))}


def _shard_batch(out, args, kwargs):
    """Per-call work counters of `_ShardState.search_batch`: results, docs
    scored, blocks decoded, and the blocks of the posting lists the queries
    touch (the denominator of the block-skipping ratio)."""
    st, plan = args[0], args[1]
    method = _arg(args, kwargs, 3, "method", "maxscore")
    qid = out.column("query_id").to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.concatenate(([True], qid[1:] != qid[:-1]))) if qid.size else []
    ds = out.column("docs_scored").to_numpy(zero_copy_only=False)
    bd = out.column("blocks_decoded").to_numpy(zero_copy_only=False)
    touched = 0
    for terms in plan.query_terms:
        for term, _ in terms:
            i = st.term_row.get(term)
            if i is not None and plan.term_idf.get(term, 0.0) > 0.0:
                touched += int(st._bl_off[i + 1] - st._bl_off[i])
    return {
        "wand": int(method == "wand"),
        "results": int(qid.size),
        "docs_scored": int(ds[starts].sum()) if len(starts) else 0,
        "blocks_decoded": int(bd[starts].sum()) if len(starts) else 0,
        "blocks_touched": touched,
    }


# (module, attribute path, span name, counter). Each entry names the place
# the engine's caller looks the function up, so the wrapper is what runs.
TARGETS = [
    # pipelines.build / stages.twophase (build side; map and merge run in workers)
    ("flatnav_ray.pipelines.build", "_build_term_stats", "build.term_stats", None),
    ("flatnav_ray.stages.twophase", "map_partial_spill", "twophase.map", None),
    ("flatnav_ray.stages.twophase", "merge_spilled_partition", "twophase.merge", "spill"),
    ("flatnav_ray.stages.twophase", "term_frequencies_encoded", "tokenize.build", _tokens_encoded),
    ("flatnav_ray.stages.twophase", "encode_segment_table", "codec.encode", _encoded_bytes),
    # stages.search (serving; shard work runs in actors)
    ("flatnav_ray.stages.search", "tokenize_py", "tokenize.query", _tokens_py),
    ("flatnav_ray.stages.search", "make_query_plan", "search.plan", _plan_bytes),
    ("flatnav_ray.stages.search", "merge_topk_table", "search.merge", _merge_rows),
    ("flatnav_ray.stages.search", "SearchSession._attach_urls", "search.urls", None),
    ("flatnav_ray.stages.search", "SearchSession._lookup_missing_df", "stats.lookup_df", _missing_terms),
    ("flatnav_ray.stages.search", "StackedSearchSession._lookup_missing_df", "stats.lookup_df",
     _missing_terms),
    ("flatnav_ray.stages.search", "_ShardState.search_batch", "search.shard_batch", _shard_batch),
    ("flatnav_ray.stages.search", "_ShardState.term_contrib", "search.term_contrib", "contrib"),
    ("flatnav_ray.stages.search", "decode_postings", "codec.decode", _decoded_blocks),
    ("flatnav_ray.stages.search", "topk_select", "bm25.topk_select", None),
    ("flatnav_ray.stages.search", "ShardSearcher.__init__", "query.searcher_init", None),
    ("flatnav_ray.stages.search", "ShardSearcher.__call__", "query.searcher_call", None),
    ("flatnav_ray.functions.bm25", "Bm25Scorer.term_scores", "bm25.term_scores", _postings_scored),
    # pipelines.query (the Ray Data one-shot path)
    ("flatnav_ray.pipelines.query", "tokenize_py", "tokenize.query", _tokens_py),
    ("flatnav_ray.pipelines.query", "make_query_plan", "search.plan", _plan_bytes),
    ("flatnav_ray.pipelines.query", "lookup_term_df", "stats.lookup_df", _missing_terms),
    ("flatnav_ray.pipelines.query", "search_partials", "query.partials_plan", None),
    ("flatnav_ray.pipelines.query", "merge_topk_table", "query.merge", _merge_rows),
    # pipelines.ingest / stages.compact (refresh)
    ("flatnav_ray.pipelines.ingest", "build_index", "ingest.delta_build", _delta_bytes),
    ("flatnav_ray.pipelines.ingest", "delete_documents", "ingest.delete", None),
    ("flatnav_ray.pipelines.ingest", "open_session", "ingest.open_session", None),
    ("flatnav_ray.pipelines.ingest", "_compact_stack", "ingest.compact_stack", None),
    ("flatnav_ray.stages.compact", "merge_indexes", "compact.merge", _rewritten_bytes),
]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for p in outer:
        owner = getattr(owner, p)
    return owner, attr


def _contrib_wrapper(rec: Recorder, name: str, fn):
    """term_contrib with a cache-hit flag taken before the call (the cache
    is keyed by term and emptied when the plan's corpus stats change)."""

    @functools.wraps(fn)
    def wrapper(self, term, plan, scorer):
        key = (plan.n_docs, plan.avgdl, scorer.name)
        hit = int(self._stats_key == key and self._contrib.get(term) is not None)
        span = rec.open(name)
        try:
            return fn(self, term, plan, scorer)
        finally:
            rec.close(span, {"hit": hit})

    wrapper.__perfbench_original__ = fn
    return wrapper


def _spill_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(partition, spill_dir, *args, **kwargs):
        nbytes = _dir_bytes(os.path.join(spill_dir, f"part={partition:05d}"))
        span = rec.open(name)
        try:
            return fn(partition, spill_dir, *args, **kwargs)
        finally:
            rec.close(span, {"spill_bytes": nbytes})

    wrapper.__perfbench_original__ = fn
    return wrapper


def install(rec: Recorder, targets=TARGETS) -> list:
    """Wrap every target; returns what `uninstall` needs to undo it.

    Every module is imported before any is patched: a module that imports a
    name from an already patched one would otherwise bind the wrapper and
    wrap it a second time."""
    for module, _, _, _ in targets:
        importlib.import_module(module)
    undo = []
    for module, path, name, count in targets:
        owner, attr = _resolve(module, path)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if count == "contrib":
            w = _contrib_wrapper(rec, name, fn)
        elif count == "spill":
            w = _spill_wrapper(rec, name, fn)
        else:
            w = traced(rec, name, fn, count)
        setattr(owner, attr, w)
        undo.append((owner, attr, fn))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def install_worker() -> None:
    """Ray `worker_process_setup_hook`: trace this worker into the run's
    trace directory."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    rec = Recorder(os.path.join(trace_dir, f"w-{os.getpid()}.jsonl"), flush_on_root=True)
    install(rec)


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by (pid, id): its duration minus the
    part of its interval that its child spans cover (children clipped to
    the parent, overlapping children counted once)."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"]:
            children.setdefault((s["pid"], s["parent"]), []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get((s["pid"], s["id"]), ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[(s["pid"], s["id"])] = (hi - lo) - covered
    return out
