"""Host facts recorded with every result, and the process and file sizes
the benchmark measures, read from /proc and the file system."""

from __future__ import annotations

import functools
import os
import threading
import time
from pathlib import Path


def cpu_times() -> tuple[int, int]:
    """(total jiffies, steal jiffies) of the aggregate ``cpu`` line."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    vals = [int(x) for x in fields]
    return sum(vals[:8]), vals[7]


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


@functools.cache
def _probe_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    table = np.sort(rng.integers(0, 2**63, size=2**21, dtype=np.uint64))
    keys = rng.integers(0, 2**63, size=2**17, dtype=np.uint64)
    words = rng.integers(0, 26, size=(20_000, 8)) + ord("a")
    text = " ".join("".join(map(chr, w)) for w in words)
    return table, keys, text + " user123@example.com" * 200


def speed_probe() -> float:
    """Seconds this host takes for a fixed mix of interpreter, NumPy and
    regex work that does not depend on the program: random probes into a
    16 MB sorted table, a dict-and-string loop and a regex scan."""
    import re

    import numpy as np

    table, keys, text = _probe_inputs()
    t0 = time.perf_counter()
    for _ in range(4):
        np.searchsorted(table, keys)
    d: dict = {}
    for i in range(150_000):
        d[i % 4096] = str(i)
    re.findall(r"\b\w+@\w+\.com\b|\b[aeiou]\w{3}\b", text)
    return time.perf_counter() - t0


def dir_bytes(path) -> int:
    """Bytes of every file under ``path``."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def describe(num_cpus: int) -> dict:
    import numpy
    import pyarrow
    import ray

    mem_kb = next(int(line.split()[1])
                  for line in Path("/proc/meminfo").read_text().splitlines()
                  if line.startswith("MemTotal:"))
    return {"nproc": len(os.sched_getaffinity(0)), "ram_gib": round(mem_kb / 2**20, 2),
            "ray_logical_cpus": num_cpus, "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "numpy": numpy.__version__}


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            stat = Path(f"/proc/{d}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def _start_time(pid: int) -> str | None:
    """Start time of a live (not zombie) process, None once it has ended."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] == "Z" else fields[19]


def descendants(root: int) -> dict[int, str]:
    """{pid: start time} of every live process below ``root``."""
    kids, out, stack = _children(), {}, [root]
    while stack:
        for pid in kids.get(stack.pop(), []):
            start = _start_time(pid)
            if start is not None:
                out[pid] = start
            stack.append(pid)
    return out


def alive(procs: dict[int, str]) -> list[int]:
    """The processes of ``procs`` that have not ended (pid reuse aside)."""
    return [pid for pid, start in procs.items() if _start_time(pid) == start]


def _is_ray_worker(pid: int) -> bool:
    try:
        cmd = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb(root: int) -> float:
    """Summed VmRSS of ``root`` and the Ray workers below it."""
    kids = _children()
    total, stack = _rss_kb(root), list(kids.get(root, []))
    while stack:
        pid = stack.pop()
        if _is_ray_worker(pid):
            total += _rss_kb(pid)
        stack.extend(kids.get(pid, []))
    return total / 1024


class PeakRss:
    """Samples the driver's and Ray workers' summed VmRSS in a thread."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self.seen: set[int] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while True:
            self.peak_mb = max(self.peak_mb, tree_rss_mb(pid))
            self.seen |= set(descendants(pid))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
