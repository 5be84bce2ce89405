"""Tests of the benchmark's own pieces (no Ray needed):

    python3 -m pytest perfbench -q
"""

import json
import os
import types

import numpy as np
import pyarrow as pa
import pytest

from perfbench import tracing
from perfbench.gate import oracle_mismatches, same_answer
from perfbench.layers import PER_LAYER, UNITS
from perfbench.run import END_TO_END
from perfbench.stats import Tally, percentile, summary, tail, tail_percentile
from perfbench.tracing import Recorder, self_times
from perfbench.workloads import WORKLOADS, Run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---- percentile choice -----------------------------------------------------


@pytest.mark.parametrize(
    "n, q",
    [(10, None), (11, 9), (20, 50), (100, 90), (250, 96), (999, 98), (1000, 99), (50_000, 99)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q
    if q is not None:
        values = list(range(n))
        v = percentile(values, q)
        assert sum(1 for x in values if x > v) >= 10


def test_tail_names_the_percentile_or_max():
    assert tail([5.0, 1.0, 3.0]) == ("max", 5.0)
    name, v = tail([float(i) for i in range(1, 201)])
    assert name == "p95" and v == 190.0


def test_summary_reports_quartiles_and_count():
    s = summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0 and s["n"] == 5
    assert s["q1"] < s["median"] < s["q3"]
    assert summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


# ---- failure counting -------------------------------------------------------


def test_tally_counts_failures_against_attempts():
    t = Tally()
    assert t.record(True)
    assert not t.record(False, "wrong answer")
    t.record(True)
    assert (t.attempted, t.failed, t.reasons) == (3, 1, ["wrong answer"])
    assert t.error_rate == pytest.approx(1 / 3)


def test_a_raising_operation_is_a_failure_and_the_run_goes_on():
    run = Run(inputs=None, work="", seconds=1, nproc=1)

    def boom():
        raise RuntimeError("actor died")

    out, dt = run.call("point", boom)
    assert out is None and dt >= 0
    assert (run.tally.attempted, run.tally.failed) == (1, 1)
    out, _ = run.call("point", lambda: 42)
    assert out == 42 and run.tally.attempted == 1  # success is recorded by its gate


@pytest.mark.parametrize("seconds, cycles", [(1, 1), (20, 2), (24, 2), (26, 3)])
def test_loop_does_a_fixed_number_of_cycles(seconds, cycles):
    run = Run(inputs=None, work="", seconds=seconds, nproc=1)
    seen = []
    run.loop(seen.append, nominal_s=10.0)
    assert seen == list(range(cycles)) and len(run.cycles) == cycles


# ---- output gate ------------------------------------------------------------


def _answers(rows):
    q, r, d, s = zip(*rows)
    return pa.table({
        "query_id": pa.array(q, pa.int64()), "rank": pa.array(r, pa.int32()),
        "doc_id": pa.array(d, pa.int64()), "score": pa.array(s, pa.float64()),
    })


ORACLE = _answers([(7, 0, 11, 3.5), (7, 1, 12, 2.25), (8, 0, 13, 1.0)])


def test_gate_accepts_the_oracle_answer_in_any_row_order():
    res = ORACLE.take(pa.array([2, 1, 0]))
    assert oracle_mismatches(res, ORACLE, [7, 8]) == []


def test_gate_rejects_one_perturbed_score():
    bad = _answers([(7, 0, 11, 3.5), (7, 1, 12, 2.25 + 1e-6), (8, 0, 13, 1.0)])
    assert oracle_mismatches(bad, ORACLE, [7, 8]) == [7]


def test_gate_rejects_swapped_ranks_and_missing_rows():
    swapped = _answers([(7, 0, 12, 3.5), (7, 1, 11, 2.25), (8, 0, 13, 1.0)])
    assert oracle_mismatches(swapped, ORACLE, [7, 8]) == [7]
    assert oracle_mismatches(ORACLE.slice(0, 2), ORACLE, [7, 8]) == [8]


def test_same_answer_is_bit_exact():
    a = _answers([(1, 0, 5, 0.1)])
    b = _answers([(1, 0, 5, float(np.nextafter(0.1, 1.0)))])
    assert same_answer(a, a) and not same_answer(a, b)


# ---- trace self time ---------------------------------------------------------


def _span(sid, parent, start, end, pid=1, name="x"):
    return {"name": name, "id": sid, "parent": parent, "root": 1, "pid": pid,
            "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 3.0), _span(3, 1, 5.0, 6.0),
             _span(4, 2, 1.5, 2.0)]
    st = self_times(spans)
    assert st[(1, 1)] == pytest.approx(7.0)
    assert st[(1, 2)] == pytest.approx(1.5)
    assert st[(1, 4)] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 2.0, 6.0), _span(3, 1, 4.0, 8.0),
             _span(4, 1, 9.0, 12.0)]
    assert self_times(spans)[(1, 1)] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_keeps_processes_apart():
    spans = [_span(1, 0, 0.0, 4.0, pid=1), _span(2, 1, 1.0, 2.0, pid=2)]
    st = self_times(spans)
    assert st[(1, 1)] == pytest.approx(4.0)


def test_wrappers_record_nested_spans_and_uninstall():
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return [x] * 3

    def outer(x):
        return mod.inner(x)

    mod.inner, mod.outer = inner, outer
    import sys

    sys.modules["fake_layer"] = mod
    try:
        rec = Recorder()
        undo = tracing.install(rec, [
            ("fake_layer", "outer", "layer.outer", None),
            ("fake_layer", "inner", "layer.inner", lambda out, a, k: {"n": len(out)}),
        ])
        assert mod.outer(1) == [1, 1, 1]
        tracing.uninstall(undo)
        assert mod.inner is inner and mod.outer is outer
    finally:
        del sys.modules["fake_layer"]
    by = {s["name"]: s for s in rec.spans}
    assert by["layer.inner"]["parent"] == by["layer.outer"]["id"]
    assert by["layer.inner"]["root"] == by["layer.outer"]["id"]
    assert by["layer.inner"]["counts"] == {"n": 3}
    assert by["layer.outer"]["start"] <= by["layer.inner"]["start"]
    assert by["layer.inner"]["end"] <= by["layer.outer"]["end"]


def test_every_trace_target_exists():
    pytest.importorskip("ray")
    for module, path, _, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(module, path)
        assert callable(getattr(owner, attr)), (module, path)


# ---- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
