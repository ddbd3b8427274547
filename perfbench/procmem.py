"""Peak memory of the benchmark's process tree, read from /proc.

The whole-tree PSS sum does not repeat from run to run (the JVM heap
grows differently each time), so the gated memory metrics are the two
that do: the largest ``VmHWM`` of the pyspark Python workers and the
driver's own ``ru_maxrss``.  The JVM's ``VmHWM`` is kept as a diagnostic.
"""
from __future__ import annotations

import os
import resource
import signal
import time
from dataclasses import dataclass


def _status(pid: int) -> dict[str, str]:
    out = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, val = line.partition(":")
            out[key] = val.strip()
    return out


def _cmdline(pid: int) -> str:
    with open(f"/proc/{pid}/cmdline", "rb") as f:
        return f.read().replace(b"\0", b" ").decode(errors="replace")


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            ppid = int(_status(int(name))["PPid"])
        except (OSError, KeyError, ValueError):
            continue  # the process exited while we looked
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        for c in children.get(pid, ()):
            out.append(c)
            todo.append(c)
    return out


def _hwm_mb(status: dict[str, str]) -> float:
    return int(status.get("VmHWM", "0 kB").split()[0]) / 1024.0


@dataclass
class MemorySampler:
    """Running maxima over repeated samples of the process tree."""

    py_worker_peak_mb: float = 0.0
    jvm_hwm_mb: float = 0.0
    py_workers: int = 0  # most pyspark Python processes alive at one sample

    def sample(self) -> None:
        alive = 0
        for pid in descendants():
            try:
                cmd = _cmdline(pid)
                st = _status(pid)
            except OSError:
                continue
            if "pyspark.daemon" in cmd or "pyspark.worker" in cmd:
                alive += 1
                self.py_worker_peak_mb = max(self.py_worker_peak_mb, _hwm_mb(st))
            elif cmd.split(" ", 1)[0].endswith("java"):
                self.jvm_hwm_mb = max(self.jvm_hwm_mb, _hwm_mb(st))
        self.py_workers = max(self.py_workers, alive)


def driver_peak_mb() -> float:
    """Peak resident memory of this (driver) process: ``ru_maxrss`` in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def descendants() -> list[int]:
    """Pids of every process this one started, directly or not."""
    return _descendants(os.getpid())


def _running(pid: int) -> bool:
    try:
        return _status(pid).get("State", "Z").split()[0] not in ("Z", "X")
    except OSError:
        return False


def wait_gone(pids: list[int], timeout: float) -> None:
    """Wait until every pid has exited; kill any still running after timeout."""
    deadline = time.monotonic() + timeout
    while any(_running(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in pids:
        if _running(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
