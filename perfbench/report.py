"""Median, quartiles and sample count of every end-to-end metric over the
untraced runs recorded in `.perfbench/results.jsonl`, per workload.

    python3 perfbench/report.py [--workload NAME] [--last N]

The spread column is (q3 - q1) / median, the figure the benchmark's bounds
are compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import summary  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--last", type=int, default=0, help="only the last N runs of each workload")
    args = p.parse_args(argv)
    path = os.path.join(ROOT, ".perfbench", "results.jsonl")
    if not os.path.exists(path):
        print(f"no recorded runs in {path}", file=sys.stderr)
        return 1
    runs: dict[str, list[dict]] = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if args.workload in (None, r["workload"]):
                runs.setdefault(r["workload"], []).append(r)
    for workload, rows in sorted(runs.items()):
        rows = rows[-args.last:] if args.last else rows
        failed = sum(1 for r in rows if not r["correct"])
        print(f"{workload}: {len(rows)} runs, {failed} not correct, "
              f"seeds {sorted({r['seed'] for r in rows})}")
        for name in rows[-1]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rows if r["correct"]]
            if not vals:
                continue
            s = summary(vals)
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else float("nan")
            print(f"  {name:22s} median {s['median']:<12.5g} q1 {s['q1']:<12.5g} "
                  f"q3 {s['q3']:<12.5g} n={s['n']:<3d} spread {spread:.3f} "
                  f"{rows[-1]['metrics'][name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
