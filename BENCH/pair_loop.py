"""Interleaved 8/32 BUILD-leg pair loop — the best-of-many estimator for the
8->4N build scaling criterion under this host's minute-scale throughput
swings (BASELINE.md host-noise + aggregate-bandwidth notes).

Each pair = one 8-cpu leg then one 32-cpu leg (fresh processes, taskset
pinned, same 1M-doc corpus). Prints every pair; at the end prints the
best-matched-pair efficiency (max over pairs of (b32/b8)/4) and the
best-of-all-legs efficiency (the BASELINE.md estimator).

Usage: python BENCH/pair_loop.py [n_pairs]
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

# the checkout this script belongs to (it lives in BENCH/)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def leg(cpus: int) -> dict:
    env = dict(os.environ)
    env.update(
        RAY_GRAFT_CPUS=str(cpus),
        GRAFT_BENCH_PAGES="1000000",
        GRAFT_BUILD_REPS="1",
        GRAFT_PHASE="build",
    )
    cmd = [sys.executable, "bench.py", "--json-only"]
    if shutil.which("taskset"):
        cmd = ["taskset", "-c", f"0-{cpus - 1}"] + cmd
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         timeout=3600, cwd=REPO)
    lines = [ln for ln in out.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        raise RuntimeError(out.stderr[-1500:])
    d = json.loads(lines[-1])
    return {"docs_s": d["build_docs_per_sec"], "bw": d.get("bandwidth_probe_gbs")}


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    pairs = []
    for i in range(n):
        lo = leg(8)
        hi = leg(32)
        eff = (hi["docs_s"] / lo["docs_s"]) / 4.0
        pairs.append({"lo": lo, "hi": hi, "eff": round(eff, 3)})
        print(
            f"pair {i}: 8cpu {lo['docs_s']:.0f} (bw {lo['bw']}) -> "
            f"32cpu {hi['docs_s']:.0f} (bw {hi['bw']})  eff {eff:.3f}",
            flush=True,
        )
    best_pair = max(p["eff"] for p in pairs)
    best_lo = max(p["lo"]["docs_s"] for p in pairs)
    best_hi = max(p["hi"]["docs_s"] for p in pairs)
    print(json.dumps({
        "pairs": pairs,
        "best_matched_pair_eff": best_pair,
        "best_of_legs_eff": round((best_hi / best_lo) / 4.0, 3),
        "best_lo": best_lo, "best_hi": best_hi,
    }))


if __name__ == "__main__":
    main()
