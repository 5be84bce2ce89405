"""Interleaved A/B: streaming merge (HEAD) vs a baseline checkout — 1M-doc build.

Same methodology as BENCH/AB_r1_vs_r3.md: arms strictly
interleaved, fresh process + fresh Ray session per leg, same synthetic corpus
parameters, taskset-pinned, bandwidth probe recorded per leg so host-noise
windows are visible. The baseline arm runs bench.py from a separate checkout
(e.g. a git worktree of the pre-streaming commit under /tmp).

Usage:
    git worktree add /tmp/ab_base <baseline-commit>
    python BENCH/ab_streammerge.py /tmp/ab_base [cpus] [pairs]
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

# the checkout this script belongs to (it lives in BENCH/)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PAGES_N = 1_000_000


def leg(repo: str, cpus: int) -> dict:
    env = dict(os.environ)
    env.update(
        RAY_GRAFT_CPUS=str(cpus),
        GRAFT_BENCH_PAGES=str(PAGES_N),
        GRAFT_BUILD_REPS="1",
        GRAFT_PHASE="build",
    )
    cmd = [sys.executable, "bench.py", "--json-only"]
    if shutil.which("taskset"):
        cmd = ["taskset", "-c", f"0-{cpus - 1}"] + cmd
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         timeout=3600, cwd=repo)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError(out.stderr[-2000:])
    d = json.loads(lines[-1])
    # map/merge split of the timed build (`BuildResult.laps`)
    laps = d.get("build_laps", {})
    d["map_s"] = laps.get("map_s")
    d["merge_s"] = laps.get("merge_s")
    return d


def main() -> None:
    base = sys.argv[1]
    cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 32
    pairs = int(sys.argv[3]) if len(sys.argv) > 3 else 3
    rows = []
    for i in range(pairs):
        r = {}
        for name, repo in (("base", base), ("head", REPO)):
            d = leg(repo, cpus)
            r[name] = d["build_docs_per_sec"]
            r[f"bw_{name}"] = d.get("bandwidth_probe_gbs")
            r[f"map_{name}"] = d.get("map_s")
            r[f"merge_{name}"] = d.get("merge_s")
            print(
                f"pair {i} {name}: {r[name]:.0f} docs/s "
                f"(map {d.get('map_s')}s merge {d.get('merge_s')}s, "
                f"bw probe {d.get('bandwidth_probe_gbs')} GB/s)",
                flush=True,
            )
        rows.append(r)
    print(json.dumps({"cpus": cpus, "pairs": rows}))


if __name__ == "__main__":
    main()
