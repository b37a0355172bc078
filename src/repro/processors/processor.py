"""In-order processor model, driven by the protocol's transition table.

A processor pulls references from its workload stream and blocks on each
one until the cache completes it (the paper's processors stall on misses;
hits complete in a cache cycle).  Reference budgets support warm-up /
measurement windows: the harness raises the budget and calls
:meth:`resume` to continue a drained processor.

Each reference costs two events: the issue, which reserves the cache
array exactly as ``cache.access`` would, and the classify step one cache
cycle later.  The step executes the protocol's compiled transition table
(:mod:`repro.protocols.compiled`): hits whose ``(state, command)`` row
has a fast action complete inline; every other row (misses, upgrades
needing the interconnect, write-through stores) escapes into the
protocol's own ``_classify`` inside the same event.  Invariants the step
keeps (all load-bearing for the determinism goldens):

* the fast-vs-escape decision is made **before** the line is touched —
  an escape re-runs ``_classify`` from scratch, and a premature touch
  would double-tick the replacement clock;
* cache/processor counters accumulate in plain dicts and flush through
  the same CounterSet totals when the processor drains;
* oracle calls (``new_version``/``commit_write``/``check_read``) are
  made directly, never batched — the oracle is the correctness referee;
* telemetry spans and tie-break draws happen at the same points, and in
  the same order, as the ``access``/``_classify`` path makes them.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional

from repro.cache.line import LocalState
from repro.cache.replacement import LRUPolicy
from repro.protocols.base import AbstractCacheController, AccessResult
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.stats.histogram import Histogram
from repro.workloads.reference import MemRef
from repro.workloads.synthetic import ReplayableStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.compiled import CompiledKernel

_NONE = LocalState.NONE


class Processor(Component):
    """Drives one cache with one reference stream."""

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        cache: AbstractCacheController,
        stream: Iterator[MemRef],
        kernel: "CompiledKernel",
        budget: int = 0,
        on_drained: Optional[Callable[["Processor"], None]] = None,
        think_time: int = 0,
    ) -> None:
        super().__init__(sim, name=f"P{pid}")
        self.pid = pid
        self.cache = cache
        self.stream = stream
        self.budget = budget
        self.on_drained = on_drained
        self.think_time = think_time
        self.issued = 0
        self.completed = 0
        self.latency_histogram = Histogram(name=f"P{pid} latency")
        self.exhausted = False  # stream ran out
        self._waiting = False  # an access is outstanding
        self._running = False
        # Per-reference stats accumulate in plain ints (a dict-counter
        # update per stat per reference is measurable at this call rate)
        # and flush to the CounterSet when the processor drains.
        self._acc = [0, 0, 0, 0, 0, 0, 0]
        self._kernel = kernel
        self._oracle = cache.oracle
        self._array = cache.array
        self._has_op_flag = kernel.op_flag
        self._pre_shared_escape = kernel.pre_shared_escape
        self._lookup_phase = kernel.lookup_phase
        self._r_clean = kernel.r_clean
        self._r_dirty = kernel.r_dirty
        self._w_clean = kernel.w_clean
        self._w_dirty = kernel.w_dirty
        # Exact-touch fast path is valid only for plain LRU; other
        # policies go through the array's touch.
        self._lru_touch = type(cache.array.policy) is LRUPolicy
        self._replayable = isinstance(stream, ReplayableStream)
        #: Batched cache-counter increments, flushed on drain.
        self._cpend: Dict[str, int] = {n: 0 for n in kernel.counter_names}
        #: Batched latency histogram increments: latency -> count.
        self._hpend: Dict[int, int] = {}
        #: Diagnostic: references completed on the table fast path.
        self.fused_fast = 0

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin issuing references (idempotent)."""
        if self._running or self._waiting:
            return
        self._running = True
        self.sim.post(0, self._issue_next)

    def resume(self) -> None:
        """Continue after the budget was raised."""
        self.start()

    @property
    def drained(self) -> bool:
        """True when the processor has stopped issuing."""
        return not self._running and not self._waiting

    # ------------------------------------------------------------------
    # Issue loop
    # ------------------------------------------------------------------
    def _issue_next(self) -> None:
        if self.completed >= self.budget:
            self._stop()
            return
        stream = self.stream
        if self._replayable:
            it = stream._it
            if it is None:
                it = stream._restore()
            try:
                ref = next(it)
            except StopIteration:
                self.exhausted = True
                self._stop()
                return
            stream.position += 1
        else:
            try:
                ref = next(stream)
            except StopIteration:
                self.exhausted = True
                self._stop()
                return
        self.issued += 1
        sim = self.sim
        now = sim.now
        obs = sim.obs
        if obs is not None:
            obs.span_begin(self.pid, now, ref)
        self._waiting = True
        cache = self.cache
        pend = self._cpend
        pend["refs"] += 1
        if ref.is_write:
            pend["writes"] += 1
        else:
            pend["reads"] += 1
        if self._has_op_flag:
            cache._op_in_progress = True
        # Inline cache._use_array(stolen=False).
        start = cache._array_free_at
        if start < now:
            start = now
        else:
            wait = start - now
            if wait:
                pend["processor_wait_cycles"] += wait
        done = start + cache._cache_cycle
        cache._array_free_at = done
        # Inline sim.post_at(done, ...): the same tie draw and sequence
        # number cache.access() would take for its _classify event.
        tie_rng = sim._tie_rng
        tie = tie_rng.random() if tie_rng is not None else 0.0
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._queue, (done, tie, seq, None, self._step, (ref, now)))
        sim._live += 1

    def _step(self, ref: MemRef, issue_time: int) -> None:
        """The classify event: one transition-table step.

        Runs at exactly the time ``cache._classify`` would; an escape
        re-enters that handler synchronously inside this event, so the
        event schedule is the same either way.
        """
        cache = self.cache
        if self._pre_shared_escape and ref.shared:
            cache._classify(ref, self._completed, issue_time)
            return
        array = self._array
        block = ref.block
        line = array._index.get(block)
        if line is None or not line.valid or line.block != block:
            line = array.lookup(block)
        if line is None:
            # Miss: replacement + interconnect machinery.
            cache._classify(ref, self._completed, issue_time)
            return
        if ref.is_write:
            micro = (self._w_dirty if line.modified else self._w_clean).get(
                line.local
            )
            if micro is None:
                # Upgrade / write-through / unreachable combo: escape
                # BEFORE touching (_classify touches — or deliberately
                # does not — on its own).
                cache._classify(ref, self._completed, issue_time)
                return
        elif (
            not self._r_dirty if line.modified
            else line.local not in self._r_clean
        ):
            cache._classify(ref, self._completed, issue_time)
            return
        else:
            micro = None  # a read hit
        sim = self.sim
        now = sim.now
        obs = sim.obs
        if obs is not None:
            if self._lookup_phase:
                obs.span_phase(self.pid, now, "lookup")
            if micro is not None and micro[3] is not None:
                obs.span_outcome(self.pid, micro[3])
        if self._lru_touch:
            clock = array._clock + 1
            array._clock = clock
            line.last_use = clock
        else:
            array.touch(line)
        pend = self._cpend
        if micro is not None:
            hit_counter, extras, clears_local, _ = micro
            pend[hit_counter] += 1
            for name in extras:
                pend[name] += 1
            if clears_local:
                line.local = _NONE
            oracle = self._oracle
            version = oracle.new_version()
            line.version = version
            line.modified = True
            oracle.commit_write(block, version, now, self.pid)
        else:
            pend["read_hits"] += 1
            self._oracle.check_read(block, line.version, issue_time, self.pid)
        # Fused completion (cache._complete + _completed, no AccessResult).
        if self._has_op_flag:
            cache._op_in_progress = False
        if obs is not None:
            obs.span_end(self.pid, now, True)
        latency = now - issue_time
        pend["latency_cycles"] += latency
        self._waiting = False
        self.completed += 1
        acc = self._acc
        acc[0] += 1
        acc[1] += latency
        acc[2] += 1  # always a hit on the fast path
        if ref.is_write:
            acc[3] += 1
        if ref.shared:
            acc[4] += 1
            if ref.is_write:
                acc[5] += 1
            acc[6] += 1
        hpend = self._hpend
        hpend[latency] = hpend.get(latency, 0) + 1
        self.fused_fast += 1
        if self._running:
            # Inline sim.post(think_time, self._issue_next).
            tie_rng = sim._tie_rng
            tie = tie_rng.random() if tie_rng is not None else 0.0
            seq = sim._seq
            sim._seq = seq + 1
            heappush(
                sim._queue,
                (now + self.think_time, tie, seq, None, self._issue_next, ()),
            )
            sim._live += 1

    def _completed(self, result: AccessResult) -> None:
        """Completion callback of an escaped reference."""
        obs = self.sim.obs
        if obs is not None:
            obs.span_end(self.pid, self.sim.now, result.hit)
        self._waiting = False
        self.completed += 1
        latency = result.complete_time - result.issue_time
        ref = result.ref
        hit = result.hit
        acc = self._acc
        acc[0] += 1
        acc[1] += latency
        self.latency_histogram.add(latency)
        if hit:
            acc[2] += 1
        if ref.is_write:
            acc[3] += 1
        if ref.shared:
            acc[4] += 1
            if ref.is_write:
                acc[5] += 1
            if hit:
                acc[6] += 1
        if self._running:
            self.sim.post(self.think_time, self._issue_next)

    # ------------------------------------------------------------------
    # Counter flush
    # ------------------------------------------------------------------
    def _flush_counters(self) -> None:
        """Move the batched per-reference stats into the CounterSets."""
        pend = self._cpend
        add = self.cache.counters.add
        for name, value in pend.items():
            if value:
                add(name, value)
                pend[name] = 0
        hpend = self._hpend
        if hpend:
            hadd = self.latency_histogram.add
            for value, count in hpend.items():
                hadd(value, count)
            hpend.clear()
        acc = self._acc
        add = self.counters.add
        for name, value in zip(
            (
                "refs",
                "latency_cycles",
                "hits",
                "writes",
                "shared_refs",
                "shared_writes",
                "shared_hits",
            ),
            acc,
        ):
            if value:
                add(name, value)
        self._acc = [0, 0, 0, 0, 0, 0, 0]

    def _stop(self) -> None:
        self._running = False
        self._flush_counters()
        if self.on_drained is not None:
            self.on_drained(self)
