"""Host-speed calibration: a fixed kernel sampled while the work runs.

The machines this benchmark runs on are shared, and the speed at which
they execute Python drifts by 30% and more between (and within) runs,
for every process alike: two runs of the same code a minute apart can
differ by that much, and so can two seconds of one run.  No amount of
repetition inside one run removes a drift that lasts longer than the
run.

So while a unit of work is timed, an interval timer interrupts it every
:data:`INTERVAL_S` and runs a tiny fixed kernel: a discrete-event cache
simulation written in the same style as the simulator (a heap of
events, slotted objects, dict lookups, method calls, a seeded RNG),
which a change to the program cannot touch.  Its mean run time over the
unit measures how fast the host executed that kind of code *during* the
unit; :class:`Sampler` removes the kernel's own time from the unit's
wall time, and :class:`harness.HostClock` scales the rest to what it
would take on a reference host where one kernel run takes
:data:`REFERENCE_S` seconds.  Sampling during the unit follows drift
that a kernel run before and after a unit of several seconds misses.
"""

from __future__ import annotations

import gc
import heapq
import multiprocessing
import random
import signal
import statistics
import time
from typing import Any, Callable, List, Tuple

#: Kernel run time (s) on the reference host the benchmark's times are
#: scaled to.
REFERENCE_S = 0.001

#: Seconds of wall time between two kernel runs inside a unit.
INTERVAL_S = 0.05

#: Kernel runs a unit is scaled by at least; a unit shorter than that
#: many intervals gets the missing runs right after it.
MIN_SAMPLES = 10

_EVENTS = 400
_NODES = 4
_SHARED_BLOCKS = 16
_PRIVATE_BLOCKS = 64
_CAPACITY = 32


class _Line:
    __slots__ = ("block", "dirty", "stamp")

    def __init__(self, block: int, dirty: bool, stamp: int) -> None:
        self.block = block
        self.dirty = dirty
        self.stamp = stamp


def _stamp(line: _Line) -> int:
    return line.stamp


class _Node:
    __slots__ = ("lines", "hits", "misses")

    def __init__(self) -> None:
        self.lines = {}
        self.hits = 0
        self.misses = 0

    def access(self, block: int, write: bool, now: int) -> int:
        line = self.lines.get(block)
        if line is not None:
            self.hits += 1
            line.stamp = now
            if write:
                line.dirty = True
            return 1
        self.misses += 1
        if len(self.lines) >= _CAPACITY:
            victim = min(self.lines.values(), key=_stamp)
            del self.lines[victim.block]
        self.lines[block] = _Line(block, write, now)
        return 8

    def invalidate(self, block: int) -> None:
        self.lines.pop(block, None)


def calibration_s() -> float:
    """Host seconds one run of the kernel takes now (garbage collection
    off, so that it does not pay for the heap of the work it samples)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(7)
        nodes = [_Node() for _ in range(_NODES)]
        heap = [(0, pid, pid) for pid in range(_NODES)]
        seq = _NODES
        push, pop = heapq.heappush, heapq.heappop
        start = time.perf_counter()
        for _ in range(_EVENTS):
            now, _, pid = pop(heap)
            node = nodes[pid]
            if rng.random() < 0.1:
                block = rng.randrange(_SHARED_BLOCKS)
                write = rng.random() < 0.2
                if write:
                    for other in nodes:
                        if other is not node:
                            other.invalidate(block)
            else:
                block = (_SHARED_BLOCKS + pid * _PRIVATE_BLOCKS
                         + rng.randrange(_PRIVATE_BLOCKS))
                write = rng.random() < 0.3
            push(heap, (now + node.access(block, write, now), seq, pid))
            seq += 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs the kernel every :data:`INTERVAL_S` while it is started.

    Only the main thread of a process may use it (it owns ``SIGALRM``).
    Worker processes forked meanwhile get no timer: interval timers are
    not inherited across ``fork``.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall time spent in the kernel runs, timer handling included.
        self.overhead = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        began = time.perf_counter()
        self.samples.append(calibration_s())
        self.overhead += time.perf_counter() - began

    def start(self) -> None:
        self.samples, self.overhead = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer; every kernel run so far is in ``overhead``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, unit: Callable[[], Any]) -> Tuple[float, float, Any]:
        """Run ``unit``; returns its wall time without the kernel's, the
        mean kernel time while it ran, and its result."""
        self.start()
        began = time.perf_counter()
        try:
            result = unit()
        finally:
            self.stop()
            wall = time.perf_counter() - began - self.overhead
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(calibration_s())
        return wall, statistics.fmean(self.samples), result


def _kernel_mean(runs: int, results) -> None:
    results.put(statistics.fmean(calibration_s() for _ in range(runs)))


#: Seconds a parallel calibration waits for its processes.
_PARALLEL_TIMEOUT_S = 60


def parallel_calibration_s(processes: int, runs: int = 30) -> float:
    """Mean kernel time of ``runs`` runs in each of ``processes`` forked
    processes at once: the host's speed as work spread over that many
    processes sees it.  Waits for every process to end.

    Forked like the sweep runner's own workers, and called between
    sweeps, when the calling process runs no other thread.
    """
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    workers = [context.Process(target=_kernel_mean, args=(runs, results))
               for _ in range(processes)]
    for worker in workers:
        worker.start()
    try:
        return statistics.fmean(results.get(timeout=_PARALLEL_TIMEOUT_S)
                                for _ in workers)
    finally:
        for worker in workers:
            worker.join(timeout=_PARALLEL_TIMEOUT_S)
            if worker.is_alive():
                worker.terminate()
                worker.join()
