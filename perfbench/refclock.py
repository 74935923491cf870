"""Speed normalization: a fixed reference kernel timed next to every operation.

Shared hosts drift: on a 2-vCPU x86-64 VM the same ``seq_sat`` call took
0.33 s or 0.70 s within a minute, and a pure-Python loop drifted in step
with it. So every timed operation is bracketed by runs of a fixed, benchmark-owned
stdlib kernel, and reported in *reference seconds*::

    normalized = raw * REF_SECONDS / R

where ``R`` is the median kernel time measured just before and just after the
operation and :data:`REF_SECONDS` is the kernel time recorded once on the
machine the benchmark was defined on.

The kernel is only a yardstick if nothing else runs while it is timed. On the
batch workloads :meth:`Window.check_quiet` therefore asserts a *quiet window*:
the CPU that other threads of this process (``process_time`` minus the
calibrating thread's ``thread_time``) and any live child processes
(``/proc/<pid>/stat``) used during the kernel runs must stay a small share of
the window. A program change that leaves work running in the background would
slow the kernel and fake a gain; the guard turns it into a failed operation.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence

#: Median kernel time, in seconds, on the machine the benchmark was defined
#: on (2-core x86-64 VM, CPython 3.11). Normalized values are "seconds on
#: that machine"; changing this constant rescales every normalized metric.
REF_SECONDS = 0.0030

#: Kernel runs on each side of an operation.
RUNS_PER_SIDE = 4

#: A window is quiet when other threads used at most this share of it, and
#: live children at most this share plus one clock tick each.
QUIET_SHARE = 0.10

_CLOCK_TICK = 1.0 / os.sysconf("SC_CLK_TCK")


def reference_kernel() -> int:
    """The fixed dict/int loop timings are normalized by. Never change it:
    doing so silently rescales every normalized number."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(12000):
        key = (i * 7919) & 2047
        value = table.get(key, 0) + i
        table[key] = value
        acc ^= value
    return acc


def child_pids(pid: int) -> List[int]:
    """Live direct children of *pid* (all threads), from ``/proc``."""
    children: List[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return children
    for tid in tasks:
        try:
            with open(f"{task_dir}/{tid}/children") as handle:
                children.extend(int(part) for part in handle.read().split())
        except OSError:
            continue
    return children


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process *pid* (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields after the command name start at index 3 (state); utime is 14.
    return (int(fields[11]) + int(fields[12])) * _CLOCK_TICK


class QuietWindowError(RuntimeError):
    """Other work ran while the reference kernel was being timed."""


class Window:
    """Kernel timings around one operation plus the CPU used by others."""

    def __init__(self) -> None:
        self.kernel_seconds: List[float] = []
        self.wall = 0.0
        self.other_thread_cpu = 0.0
        self.children_cpu = 0.0
        self.children_seen = 0

    @property
    def ref_seconds(self) -> float:
        return statistics.median(self.kernel_seconds)

    def check_quiet(self) -> None:
        limit = QUIET_SHARE * self.wall
        if self.other_thread_cpu > limit:
            raise QuietWindowError(
                f"other threads used {self.other_thread_cpu * 1e3:.1f} ms of a "
                f"{self.wall * 1e3:.1f} ms reference window"
            )
        if self.children_cpu > limit + _CLOCK_TICK * self.children_seen:
            raise QuietWindowError(
                f"{self.children_seen} live child process(es) used "
                f"{self.children_cpu * 1e3:.1f} ms of a {self.wall * 1e3:.1f} ms "
                "reference window"
            )


class RefClock:
    """Runs the reference kernel around operations and normalizes timings.

    One lock serializes kernel runs of all threads in this process, so two
    threads never time the kernel against each other. When *watch_pid* names
    an outside process (the server), its CPU during the windows is recorded,
    not asserted.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self.watch_pid: Optional[int] = None
        self.kernel_log: List[float] = []
        self.watched_cpu = 0.0
        self.window_wall = 0.0

    def _run_side(self, window: Window) -> None:
        with self._lock:
            kids = child_pids(self._pid)
            kids_before = sum(cpu_seconds(pid) for pid in kids)
            watched_before = cpu_seconds(self.watch_pid) if self.watch_pid else 0.0
            proc_before = time.process_time()
            thread_before = time.thread_time()
            wall_before = time.perf_counter()
            for _ in range(RUNS_PER_SIDE):
                started = time.perf_counter()
                reference_kernel()
                window.kernel_seconds.append(time.perf_counter() - started)
            wall = time.perf_counter() - wall_before
            thread_used = time.thread_time() - thread_before
            proc_used = time.process_time() - proc_before
            kids_after = sum(cpu_seconds(pid) for pid in kids)
            watched_after = cpu_seconds(self.watch_pid) if self.watch_pid else 0.0
            window.wall += wall
            window.other_thread_cpu += max(0.0, proc_used - thread_used)
            window.children_cpu += max(0.0, kids_after - kids_before)
            window.children_seen += len(kids)
            self.watched_cpu += max(0.0, watched_after - watched_before)
            self.window_wall += wall

    def before(self) -> Window:
        """Open a window: time the kernel before the operation."""
        window = Window()
        self._run_side(window)
        return window

    def after(self, window: Window) -> float:
        """Close *window*: time the kernel after the operation and return
        the scale factor ``REF_SECONDS / R`` for the operation's timing."""
        self._run_side(window)
        self.kernel_log.append(window.ref_seconds)
        return REF_SECONDS / window.ref_seconds

    def ref_ms(self) -> float:
        """Median kernel time seen so far, in milliseconds."""
        return statistics.median(self.kernel_log) * 1e3 if self.kernel_log else 0.0

    def run_factor(self) -> float:
        """``REF_SECONDS / R`` with R the median over every window so far:
        the scale for timings too short for their own windows to track
        (a process start of ~0.1 s)."""
        return REF_SECONDS * 1e3 / self.ref_ms()


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(fraction * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]
