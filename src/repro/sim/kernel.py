"""Discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event queue and a
:class:`Simulator` that drains it.  Determinism is guaranteed by breaking
time ties with a monotonically increasing sequence number, so two runs with
the same seed produce identical event orderings.

All times are integer cycles.  Components schedule work with
:meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.at`
(absolute time).  Hot paths that never cancel can use :meth:`Simulator.post`
/ :meth:`Simulator.post_at`, which skip the :class:`Event` handle
allocation entirely.

Hot-path layout
---------------
The heap holds plain ``(time, tie, seq, event_or_None, fn, args)`` tuples:
``seq`` is unique, so tuple comparison is resolved in C by the first three
fields and never touches the payload.  ``event_or_None`` is a slotted
:class:`Event` handle when the caller wants cancellation, or ``None`` for
the handle-free fast path.  Cancelled entries stay in the heap (removing
from a heap is O(n)) and are skipped on pop; the live-event count is
maintained incrementally, and when more than half the heap is dead weight
the kernel compacts it in one O(n) pass.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Optional, Tuple

#: Compact the heap only past this size; below it the dead weight is noise.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, runaway runs)."""


class SimClock:
    """Picklable ``() -> sim.now`` callable.

    Components that need a clock hook (e.g. the directory's
    time-in-state accounting) must not close over the simulator with a
    lambda — checkpointing pickles the whole machine graph, and lambdas
    don't pickle.  A ``SimClock`` carries the simulator reference as
    plain state instead.
    """

    __slots__ = ("sim",)

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim

    def __call__(self) -> int:
        return self.sim.now


class Event:
    """A cancellable scheduled callback.

    Events order by ``(time, tie, seq)``; the callback and its arguments
    do not participate in the ordering.  ``tie`` is 0 in deterministic
    mode; with a tie-breaking RNG it randomizes the order of same-cycle
    events (see :class:`Simulator`).
    """

    __slots__ = ("time", "tie", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        tie: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple = (),
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.tie = tie
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped.

        Cancelling an event that already ran is a no-op for the
        bookkeeping: the kernel detaches executed handles (``_sim`` is
        cleared), so the live count only reflects cancellations of
        events still in the queue.
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq}{state}>"


#: A heap entry: (time, tie, seq, event_or_None, fn, args).
_Entry = Tuple[int, float, int, Optional[Event], Callable[..., None], tuple]


class Simulator:
    """Event-driven simulator with integer-cycle time.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(5, order.append, "b")
    >>> _ = sim.schedule(1, order.append, "a")
    >>> sim.run()
    >>> order
    ['a', 'b']
    >>> sim.now
    5

    Args:
        tie_seed: None (default) keeps same-cycle events in submission
            order — fully deterministic.  An integer seed *randomizes*
            the order of events scheduled for the same cycle (still
            reproducibly per seed): a cheap model checker that explores
            orderings a fixed tie-break can never produce, used by the
            property tests to hunt protocol races.
    """

    def __init__(self, tie_seed: Optional[int] = None) -> None:
        #: Current simulation time in cycles (read-only for components).
        self.now: int = 0
        #: Observability hub (``repro.obs``), or None when telemetry is
        #: off.  The kernel itself never reads it — probe sites in the
        #: component layers guard on it — so the run loop stays on the
        #: fast path either way.
        self.obs = None
        self._seq: int = 0
        self._queue: List[_Entry] = []
        self._live: int = 0
        self._cancelled: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        self._tie_rng = random.Random(tie_seed) if tie_seed is not None else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live events still queued (cancelled ones excluded)."""
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.at(self.now + delay, fn, *args)

    def at(self, time: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``; returns a handle."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}; current time is {self.now}"
            )
        tie = self._tie_rng.random() if self._tie_rng is not None else 0.0
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, tie, seq, fn, args, self)
        heapq.heappush(self._queue, (time, tie, seq, event, fn, args))
        self._live += 1
        return event

    def post(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` without a cancellation handle (hot path)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.post_at(self.now + delay, fn, *args)

    def post_at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`at` without a cancellation handle (hot path).

        Skips the :class:`Event` allocation; the entry cannot be cancelled
        or introspected.  Ordering is identical to :meth:`at` — the same
        sequence number would have been assigned either way.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}; current time is {self.now}"
            )
        tie = self._tie_rng.random() if self._tie_rng is not None else 0.0
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, tie, seq, None, fn, args))
        self._live += 1

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; keeps the live count O(1)."""
        self._live -= 1
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN
            and self._cancelled > len(self._queue) // 2
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (amortized O(1) per event).

        Compaction can fire from inside an event callback (via
        ``Event.cancel``) while :meth:`run` / :meth:`step` hold a local
        alias to the queue, so it must mutate the list in place — slice
        assignment — rather than rebind ``self._queue``.
        """
        self._queue[:] = [
            entry
            for entry in self._queue
            if entry[3] is None or not entry[3].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            event = entry[3]
            if event is not None:
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event._sim = None  # detach: late cancel() is a no-op
            self._live -= 1
            self.now = entry[0]
            entry[4](*entry[5])
            self._events_processed += 1
            return True
        return False

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        advance_clock: bool = True,
    ) -> None:
        """Drain the event queue.

        Args:
            until: stop once simulation time would exceed this cycle; the
                clock is advanced to ``until`` on a timed stop.
            max_events: inclusive safety valve; raise
                :class:`SimulationError` as soon as an event beyond this
                count is about to run (catches protocol livelock).  At
                most ``max_events`` events execute.
            advance_clock: when False and the queue drains before
                ``until``, leave ``now`` at the last executed event
                instead of advancing it to ``until``.  Checkpoint-sliced
                runs use this so a run split into windows finishes with
                exactly the same clock as an uninterrupted one.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                head = queue[0]
                event = head[3]
                if event is not None and event.cancelled:
                    heappop(queue)
                    self._cancelled -= 1
                    continue
                time = head[0]
                if until is not None and time > until:
                    self.now = until
                    return
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely livelock"
                    )
                heappop(queue)
                self._live -= 1
                self.now = time
                if event is not None:
                    event._sim = None  # detach: late cancel() is a no-op
                head[4](*head[5])
                self._events_processed += 1
                executed += 1
                # Batch same-cycle pops: while the head is live and due at
                # the cycle we already advanced to, skip the until check.
                while queue:
                    head = queue[0]
                    if head[0] != time:
                        break
                    event = head[3]
                    if event is not None and event.cancelled:
                        heappop(queue)
                        self._cancelled -= 1
                        continue
                    if max_events is not None and executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely livelock"
                        )
                    heappop(queue)
                    self._live -= 1
                    if event is not None:
                        event._sim = None  # detach: late cancel() is a no-op
                    head[4](*head[5])
                    self._events_processed += 1
                    executed += 1
            if advance_clock and until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def drain_check(self) -> bool:
        """True when no live events remain (system quiescent)."""
        return self._live == 0

    # ------------------------------------------------------------------
    # Model-checking interface
    # ------------------------------------------------------------------
    def enabled(self) -> List[_Entry]:
        """Live entries due at the earliest queued cycle, in pop order.

        This is the set of schedulable choices a model checker may
        reorder: events at strictly later cycles can never legally run
        before these, so the only interleaving freedom the kernel offers
        is the order of same-cycle events.  The returned list is sorted
        by ``(tie, seq)`` — index 0 is what :meth:`step` would run.

        Purges cancelled entries from the head as a side effect; the
        heap itself is not otherwise modified.
        """
        queue = self._queue
        while queue:
            head_event = queue[0][3]
            if head_event is not None and head_event.cancelled:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            break
        if not queue:
            return []
        due = queue[0][0]
        entries = [
            entry
            for entry in queue
            if entry[0] == due and (entry[3] is None or not entry[3].cancelled)
        ]
        entries.sort(key=lambda entry: (entry[1], entry[2]))
        return entries

    def step_select(
        self, index: int, entries: Optional[List[_Entry]] = None
    ) -> None:
        """Execute the ``index``-th entry of :meth:`enabled`.

        The model checker's counterpart to :meth:`step`:
        ``step_select(0)`` is exactly ``step()``, any other index runs a
        same-cycle event out of its deterministic order.  A caller that
        has just called :meth:`enabled` (and not changed the queue since)
        passes its result as ``entries`` to skip computing it again.
        Removal is O(n) + heapify — acceptable because model-checked
        configurations keep the queue tiny; the production :meth:`run`
        path is untouched.
        """
        if entries is None:
            entries = self.enabled()
        if not 0 <= index < len(entries):
            raise SimulationError(
                f"step_select({index}): only {len(entries)} enabled events"
            )
        entry = entries[index]
        # seq (entry[2]) is unique, so tuple equality identifies exactly
        # this entry without comparing the payload fields.
        self._queue.remove(entry)
        heapq.heapify(self._queue)
        self._live -= 1
        event = entry[3]
        if event is not None:
            event._sim = None  # detach: late cancel() is a no-op
        self.now = entry[0]
        entry[4](*entry[5])
        self._events_processed += 1
