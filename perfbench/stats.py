"""Summaries of timing samples and the failure tally."""

from __future__ import annotations

import math
import statistics


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond it,
    capped at 99 (a p99 needs 1,000 samples). None below 11 samples."""
    if n < 11:
        return None
    return min(99, math.floor(100 * (1 - 10 / n)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def tail(values: list[float]) -> tuple[str, float]:
    """(label, value) of the tail the sample supports: `p<q>` from
    `tail_percentile`, or `max` when there are too few samples for one."""
    q = tail_percentile(len(values))
    if q is None:
        return "max", max(values)
    return f"p{q}", percentile(values, q)


def summary(values: list[float]) -> dict:
    """Median, quartiles (as `statistics.quantiles(n=4)` gives them) and the
    sample count."""
    v = list(values)
    if len(v) == 1:
        return {"median": v[0], "q1": v[0], "q3": v[0], "n": 1}
    q1, med, q3 = statistics.quantiles(v, n=4)
    return {"median": statistics.median(v), "q1": q1, "q3": q3, "n": len(v)}


class Tally:
    """Operations attempted and failed. An operation fails when it raises or
    when its answer does not pass the output gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
