"""Where a result came from: the machine, and per-process CPU and memory."""

from __future__ import annotations

import os
import platform
import sys

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process *pid* (from ``/proc``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15
    return (int(fields[11]) + int(fields[12])) / _TICK


def cpu_ticks() -> tuple:
    """(all, steal) clock ticks of every CPU since boot (``/proc/stat``).

    Steal is time the hypervisor ran something else while this machine's
    virtual CPU wanted to run.
    """
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return sum(fields), fields[7]


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident set size (``VmHWM``) of *pid* (0: this process), MiB."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def fingerprint() -> dict:
    """CPU count, the CPUs this process may use, Python and platform."""
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }
