"""Checked, layer-traced benchmark of flatnav_ray.

    python3 perfbench/run.py --workload {batch-job,serve,refresh} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The run generates its inputs from the seed
(cached under `.perfbench/`), sets up, measures for about S seconds with one
client in a closed loop, checks every answer it can against the brute-force
oracle, and prints per-workload figures, the host, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 the
per-layer metrics, from spans recorded around the calls into each layer.
The exit code is 0 only when every operation succeeded and every checked
answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import host  # noqa: E402

# name -> unit of the end-to-end metrics (BENCHMARK.json "end_to_end")
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "call_p50_ms": "ms",
    "index_bytes_per_doc": "bytes",
    "peak_rss_mb": "MB",
}
# Ray's socket paths must stay under the 107-byte unix socket limit
MAX_RAY_TEMP_DIR = 36


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["batch-job", "serve", "refresh"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # internal: generate the run's inputs in a process and Ray cluster of
    # their own, so that the measured processes never held them
    p.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _env(work: str, trace_dir: str | None) -> None:
    # one thread per task, as bench.py runs it
    os.environ.setdefault("ARROW_CPU_COUNT", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    # Ray workers import the engine (and the trace hook) from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # the build's shuffle spill stays inside the checkout
    os.environ["FLATNAV_SPILL_ROOT"] = os.path.join(work, "spill")
    if trace_dir:
        os.environ["PERFBENCH_TRACE_DIR"] = trace_dir


def _ray_init(cache: str, nproc: int, trace: bool) -> None:
    import ray

    kw = {}
    temp = os.path.join(cache, "ray")
    if len(temp) <= MAX_RAY_TEMP_DIR:
        kw["_temp_dir"] = temp
    if trace:
        kw["runtime_env"] = {"worker_process_setup_hook": "perfbench.tracing.install_worker"}
    ray.init(
        address="local", num_cpus=nproc, include_dashboard=False, logging_level="ERROR",
        object_store_memory=256 * 1024 * 1024, log_to_driver=False, **kw,
    )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.max_hash_shuffle_aggregators = nproc


def prepare(args, cache: str) -> int:
    """Generate and cache every input of the run (`--prepare`)."""
    import ray

    from perfbench.inputs import Inputs
    from perfbench.workloads import refresh_cycles

    work = _work_dir(cache)
    _env(work, None)
    _ray_init(cache, host.nproc(), False)
    try:
        inputs = Inputs(ROOT, args.seed)
        inputs.prune()
        inputs.prepare(args.workload, refresh_cycles(args.seconds))
    finally:
        ray.shutdown()
        host.reap_children()
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _work_dir(cache: str) -> str:
    """A scratch directory of this process under `cache/work/`, after
    removing those of processes that are gone (runs that were killed)."""
    root = os.path.join(cache, "work")
    os.makedirs(root, exist_ok=True)
    for name in os.listdir(root):
        if not (name.isdigit() and os.path.exists(f"/proc/{name}")):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    work = os.path.join(root, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    return work


def _ensure_inputs(args) -> bool:
    from perfbench.inputs import Inputs
    from perfbench.workloads import refresh_cycles

    if Inputs(ROOT, args.seed).ready(args.workload, refresh_cycles(args.seconds)):
        return True
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--prepare"]
    return subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=600).returncode == 0


def _results_path(cache: str) -> str:
    return os.path.join(cache, "results.jsonl")


def _untraced_medians(cache: str, workload: str) -> dict | None:
    path = _results_path(cache)
    if not os.path.exists(path):
        return None
    rows = []
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["workload"] == workload and r["trace"] == 0 and r["correct"]:
                rows.append(r["metrics"])
    if not rows:
        return None
    return {k: statistics.median(r[k]["value"] for r in rows) for k in ("call_p50_ms", "throughput_per_s")}


def measure(args, cache: str) -> tuple[dict, object, dict, str | None]:
    """One workload run in its own Ray cluster: (end-to-end values, the
    Run, host info, trace directory). The cluster and every process it started are gone when
    this returns."""
    import ray

    from perfbench import tracing
    from perfbench.inputs import Inputs
    from perfbench.workloads import WORKLOADS, Run

    nproc = host.nproc()
    work = _work_dir(cache)
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(cache, "trace", str(os.getpid()))
        shutil.rmtree(os.path.join(cache, "trace"), ignore_errors=True)
        os.makedirs(trace_dir)
    _env(work, trace_dir)
    t0 = time.perf_counter()
    _ray_init(cache, nproc, bool(args.trace))
    phases = {"ray_init": time.perf_counter() - t0}
    try:
        inputs = Inputs(ROOT, args.seed)
        info = host.host_info(ROOT)
        rec = undo = None
        if args.trace:
            rec = tracing.Recorder(os.path.join(trace_dir, "driver.jsonl"))
            undo = tracing.install(rec)
        rss = host.PeakRss()
        run = Run(inputs, work, args.seconds, nproc, rec, rss)
        t0, cpu0 = time.perf_counter(), host.cpu_times()
        try:
            values = WORKLOADS[args.workload](run)
        finally:
            if undo:
                tracing.uninstall(undo)
                rec.flush()
        phases["workload"] = time.perf_counter() - t0
        info["steal_share"] = round(host.steal_share(cpu0, host.cpu_times()), 4)
        phases["measured"] = sum(b - a for a, b in run.cycles)
        values["setup_s"] = statistics.median(run.samples["setup_s"])
        values["peak_rss_mb"] = rss.peak_mb
        info["loadavg_end"] = list(os.getloadavg())
    finally:
        t0 = time.perf_counter()
        ray.shutdown()
        host.reap_children()
        shutil.rmtree(work, ignore_errors=True)
        phases["shutdown"] = time.perf_counter() - t0
    info["phase_s"] = {k: round(v, 2) for k, v in phases.items()}
    return values, run, info, trace_dir


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "flatnav_ray")):
        print(f"flatnav_ray not found under {ROOT}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    cache = os.path.join(ROOT, ".perfbench")
    os.makedirs(cache, exist_ok=True)
    if args.prepare:
        return prepare(args, cache)
    if not _ensure_inputs(args):
        print("generating the inputs failed", file=sys.stderr)
        return 1

    from perfbench.workloads import figure_lines

    values, run, info, trace_dir = measure(args, cache)
    tally = run.tally
    for line in figure_lines(args.workload, run):
        print(line)
    print("host " + json.dumps(info))
    for r in tally.reasons:
        print(f"FAILED {r}")

    if args.trace:
        from perfbench.layers import PER_LAYER, UNITS, layer_metrics
        from perfbench.tracing import load_spans

        metrics = layer_metrics(load_spans(trace_dir), run.cycles, os.getpid())
        untraced = _untraced_medians(cache, args.workload)
        if untraced is None:  # the trace.* overheads then read 0
            print(f"no untraced {args.workload} run recorded in {_results_path(cache)}; "
                  "run with --trace 0 first for the tracing overhead")
        else:
            metrics["trace.call_p50_overhead_ms"] = values["call_p50_ms"] - untraced["call_p50_ms"]
            metrics["trace.throughput_overhead_per_s"] = untraced["throughput_per_s"] - values["throughput_per_s"]
            print(f"trace overhead vs untraced medians: call_p50 {values['call_p50_ms']:.4g} vs "
                  f"{untraced['call_p50_ms']:.4g} ms, throughput {values['throughput_per_s']:.4g} "
                  f"vs {untraced['throughput_per_s']:.4g} /s")
        out = {k: {"value": metrics.get(k, 0.0), "unit": UNITS[k]} for k in PER_LAYER}
    else:
        out = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    complete = all(isinstance(v["value"], (int, float)) for v in out.values())
    correct = tally.failed == 0 and complete
    if not args.trace:
        with open(_results_path(cache), "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": 0,
                                "correct": correct, "metrics": out, "samples": run.samples, "host": info,
                                "time": time.time()}) + "\n")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
