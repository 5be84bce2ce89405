"""What the host looked like when a result was taken: cpu count, load,
source version, library versions and a memory-bandwidth probe. The host is
shared, so each result carries these beside it."""

from __future__ import annotations

import hashlib
import os
import subprocess
import time

import numpy as np

# the probe of bench.py (best-of-3 memcpy), with a 128 MiB buffer so that it
# stays small beside other tenants' work
PROBE_BYTES = 128 * 1024 * 1024


def bandwidth_probe_gbs() -> float:
    """Single-stream DRAM bandwidth: best-of-3 copy of a PROBE_BYTES buffer,
    counting the bytes read and written."""
    src = np.ones(PROBE_BYTES // 8, dtype=np.int64)
    dst = np.empty_like(src)
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return (src.nbytes * 2 / best) / 1e9


def source_digest(root: str) -> str:
    """sha256 over the engine's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "flatnav_ray")
    for dirpath, dirnames, files in sorted(os.walk(pkg)):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def nproc() -> int:
    """What GNU `nproc` prints: the CPUs this process may run on, capped by
    OMP_NUM_THREADS / OMP_THREAD_LIMIT when they are set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def cpu_times() -> list[int]:
    """The host-wide cpu line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal (clock ticks)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the host's cpu time between two `cpu_times()` readings that
    the hypervisor gave to other tenants."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else 0.0


def host_info(root: str) -> dict:
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "loadavg": list(os.getloadavg()),
        "commit": commit(root),
        "source_digest": source_digest(root),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "bandwidth_gbs": round(bandwidth_probe_gbs(), 3),
    }


def _proc_tree() -> dict[int, int]:
    """pid -> parent pid of every process visible in /proc."""
    parents = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    stat = f.read()
            except OSError:
                continue
            parents[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return parents


def _hwm_kib(pid: int) -> int:
    """Peak resident set size (VmHWM) of a process, 0 when it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


class PeakRss:
    """Peak summed RSS of this process and the Ray worker processes below
    it: at each `sample()`, the sum of every live one's own peak (VmHWM).

    Samples are taken between cycles by the client thread itself. A
    background sampling thread would compete with the driver's Ray threads
    for the one CPU and the interpreter lock, and slowed the one-shot query
    path by up to 2x; a worker that lives and dies within one cycle is
    missed."""

    def __init__(self):
        self.peak_kib = 0

    def sample(self) -> None:
        me = os.getpid()
        total = _hwm_kib(me) + sum(
            _hwm_kib(p) for p in descendants() if _is_ray_worker(p)
        )
        self.peak_kib = max(self.peak_kib, total)

    @property
    def peak_mb(self) -> float:
        return self.peak_kib / 1024


def descendants() -> list[int]:
    parents = _proc_tree()
    me = os.getpid()
    out, frontier = [], {me}
    while frontier:
        frontier = {p for p, pp in parents.items() if pp in frontier}
        out.extend(frontier)
    return out


def reap_children(timeout: float = 20.0) -> list[int]:
    """Wait until every process this one started has ended, killing what is
    still alive after `timeout` seconds. Returns the pids that outlived the
    kill as well (none, normally)."""
    import signal

    start = time.monotonic()
    killed = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = [p for p in descendants() if _alive(p)]
        if not left:
            return []
        waited = time.monotonic() - start
        if waited > timeout + 10:
            return left
        if waited > timeout and not killed:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            killed = True
        time.sleep(0.1)


def _alive(pid: int) -> bool:
    """Running and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
