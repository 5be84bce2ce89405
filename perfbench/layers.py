"""Per-layer metrics from the spans of a traced run.

Only spans that start inside the timed cycles count. Unless said
otherwise, a `_s` metric is the layer's self time and a count is summed,
both per cycle of the workload; a ratio is a ratio of sums. Metrics of a
layer the workload never calls are 0.
"""

from __future__ import annotations

import statistics

from .tracing import self_times

PER_LAYER = [
    "twophase.map_s", "twophase.spill_bytes", "twophase.merge_s_max", "twophase.merge_s_median",
    "build.term_stats_s",
    "tokenize.s", "tokenize.tokens",
    "codec.encode_s", "codec.bytes_encoded", "codec.decode_s", "codec.blocks_decoded",
    "bm25.term_scores_s", "bm25.postings_scored", "bm25.topk_select_s",
    "stats.lookup_df_s", "stats.lookup_df_terms",
    "search.plan_s", "search.put_bytes", "search.actor_s_max", "search.actor_s_median",
    "search.partial_rows", "search.merge_s", "search.url_s", "search.contrib_hit_ratio",
    "search.docs_scored_per_result", "search.wand_blocks_decoded_ratio",
    "query.pool_start_s", "query.partials_s", "query.merge_s",
    "ingest.delta_build_s", "ingest.delete_s", "ingest.open_session_s", "ingest.compactions",
    "compact.merge_s", "compact.bytes_rewritten_per_byte_added",
    "trace.call_p50_overhead_ms", "trace.throughput_overhead_per_s",
]

UNITS = {
    name: (
        "ms" if name.endswith("_ms")
        else "1/s" if name.endswith("_per_s")
        else "s" if name.endswith(("_s", ".s")) or "_s_" in name
        else "bytes" if "bytes" in name and "per_byte" not in name
        else "ratio" if name.endswith(("_ratio", "_per_result", "_per_byte_added"))
        else "count"
    )
    for name in PER_LAYER
}

# serving calls whose shard work runs on SearchSession actors
SESSION_OPS = {"op.batch", "op.point", "op.wand", "op.stacked", "op.stacked_wand"}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _within(spans, lo, hi):
    return [s for s in spans if lo <= s["start"] <= hi]


def layer_metrics(spans: list[dict], cycles: list[tuple[float, float]], driver_pid: int) -> dict:
    lo, hi = cycles[0][0], cycles[-1][1]
    spans = _within(spans, lo, hi)
    n = len(cycles)
    self_t = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name, where=None):
        out = by_name.get(name, [])
        if where == "driver":
            return [s for s in out if s["pid"] == driver_pid]
        if where == "worker":
            return [s for s in out if s["pid"] != driver_pid]
        return out

    def self_s(*names, where=None):
        return sum(self_t[(s["pid"], s["id"])] for nm in names for s in named(nm, where)) / n

    def count(name, key, where=None):
        return sum(s.get("counts", {}).get(key, 0) for s in named(name, where))

    m = {}
    m["twophase.map_s"] = self_s("twophase.map")
    m["twophase.spill_bytes"] = count("twophase.merge", "spill_bytes") / n
    # straggler partition: per build, the slowest and the median partition merge
    maxes, medians = [], []
    for b in named("op.build") + named("ingest.delta_build"):
        durs = [s["end"] - s["start"] for s in _within(named("twophase.merge"), b["start"], b["end"])]
        if durs:
            maxes.append(max(durs))
            medians.append(statistics.median(durs))
    m["twophase.merge_s_max"] = statistics.fmean(maxes) if maxes else 0.0
    m["twophase.merge_s_median"] = statistics.fmean(medians) if medians else 0.0
    m["build.term_stats_s"] = self_s("build.term_stats")
    m["tokenize.s"] = self_s("tokenize.build", "tokenize.query")
    m["tokenize.tokens"] = (count("tokenize.build", "tokens") + count("tokenize.query", "tokens")) / n
    m["codec.encode_s"] = self_s("codec.encode")
    m["codec.bytes_encoded"] = count("codec.encode", "bytes") / n
    m["codec.decode_s"] = self_s("codec.decode")
    m["codec.blocks_decoded"] = count("codec.decode", "blocks") / n
    m["bm25.term_scores_s"] = self_s("bm25.term_scores")
    m["bm25.postings_scored"] = count("bm25.term_scores", "postings") / n
    m["bm25.topk_select_s"] = self_s("bm25.topk_select")
    m["stats.lookup_df_s"] = self_s("stats.lookup_df")
    m["stats.lookup_df_terms"] = count("stats.lookup_df", "terms") / n
    m["search.plan_s"] = self_s("search.plan")
    m["search.put_bytes"] = count("search.plan", "bytes") / n

    # busy time of each shard actor per session call: the root spans it runs
    # inside the call's window, summed per actor process
    roots = [s for s in spans if s["pid"] != driver_pid and s["parent"] == 0
             and s["name"] in ("search.shard_batch", "search.merge")]
    a_max, a_med = [], []
    for op in (s for s in spans if s["name"] in SESSION_OPS):
        per_actor: dict[int, float] = {}
        for r in _within(roots, op["start"], op["end"]):
            per_actor[r["pid"]] = per_actor.get(r["pid"], 0.0) + (r["end"] - r["start"])
        if per_actor:
            a_max.append(max(per_actor.values()))
            a_med.append(statistics.median(per_actor.values()))
    m["search.actor_s_max"] = statistics.fmean(a_max) if a_max else 0.0
    m["search.actor_s_median"] = statistics.fmean(a_med) if a_med else 0.0
    m["search.partial_rows"] = count("search.merge", "rows", "driver") / n
    m["search.merge_s"] = self_s("search.merge", where="driver")
    m["search.url_s"] = self_s("search.urls")
    contrib = named("search.term_contrib")
    m["search.contrib_hit_ratio"] = _ratio(sum(s["counts"]["hit"] for s in contrib), len(contrib))
    wand = [s for s in named("search.shard_batch") if s.get("counts", {}).get("wand")]
    m["search.docs_scored_per_result"] = _ratio(
        sum(s["counts"]["docs_scored"] for s in wand), sum(s["counts"]["results"] for s in wand))
    m["search.wand_blocks_decoded_ratio"] = _ratio(
        sum(s["counts"]["blocks_decoded"] for s in wand),
        sum(s["counts"]["blocks_touched"] for s in wand))

    # one-shot search_to_table: from the plan's return to the first shard
    # call (actor pool start), and from the first to the last shard call
    pool, partials = [], []
    for op in named("op.oneshot"):
        plan = _within(named("query.partials_plan"), op["start"], op["end"])
        calls = _within(named("query.searcher_call"), op["start"], op["end"])
        if plan and calls:
            pool.append(min(c["start"] for c in calls) - plan[0]["end"])
            partials.append(max(c["end"] for c in calls) - min(c["start"] for c in calls))
    m["query.pool_start_s"] = statistics.fmean(pool) if pool else 0.0
    m["query.partials_s"] = statistics.fmean(partials) if partials else 0.0
    m["query.merge_s"] = self_s("query.merge")

    m["ingest.delta_build_s"] = self_s("ingest.delta_build")
    m["ingest.delete_s"] = self_s("ingest.delete")
    m["ingest.open_session_s"] = self_s("ingest.open_session")
    m["ingest.compactions"] = len(named("ingest.compact_stack")) / n
    m["compact.merge_s"] = self_s("compact.merge")
    m["compact.bytes_rewritten_per_byte_added"] = _ratio(
        count("compact.merge", "bytes"), count("ingest.delta_build", "bytes"))
    return m
