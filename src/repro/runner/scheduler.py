"""The sweep scheduler core: one state machine behind every transport.

Every sweep runs through one :class:`Scheduler`, whatever executes its
points: the caller's own process (:func:`~repro.runner.sweep.run_sweep`
with one worker), supervised worker processes on per-worker pipes
(:mod:`repro.runner.elastic`), or ``repro work`` agents behind the HTTP
coordinator (:mod:`repro.runner.service`).  The core is pure and
synchronous.  A transport feeds it events: a worker joined, asked for work
(:meth:`~Scheduler.assign`), delivered a result or a point error, was
lost, or the clock ticked.  The core answers with the next shard to
dispatch, or with the workers that stalled.  It owns everything a
sweep decides:

* the result cache, keyed on each point's *original* kwargs;
* checkpoint-kwarg injection (execution detail, never identity);
* the progress manifest and every ``point-*`` and ``sweep-end`` event;
* the backlog, where a requeued shard goes to the front: a half-done
  shard, with a checkpoint to resume, beats starting fresh work;
* per-shard retry budgets, stall detection and heartbeat rows;
* first-result-wins de-duplication of late or repeated results;
* abort, which closes every open point trail before ``sweep-end``;
* the final :class:`~repro.runner.sweep.SweepReport`.

A worker may hold up to :attr:`Scheduler.depth` shards.  The shard at
the head of its queue is the one running: ``point-running`` is emitted,
and the stall timer starts, when a shard reaches the head.  The others
wait behind it.  A lost or stalled worker charges one retry to its head
shard only; shards queued behind the head return to the front of the
backlog uncharged.

A point that *raises*, or whose result cannot cross the transport or
into the cache, is a bug in the point: it fails the point and aborts the
sweep, with no retries.  Retries are for lost workers and stalls.
"""

from __future__ import annotations

import inspect
import os
import tempfile
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.progress import as_progress_stream
from repro.runner.cache import ResultCache
from repro.runner.sweep import (
    PointOutcome,
    SweepPoint,
    SweepReport,
    _label_str,
    _unwrap,
)


def _accepts_checkpoint(fn) -> bool:
    """Whether ``fn`` can take the injected checkpoint kwargs."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return False
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ):
        return True
    return "checkpoint_every" in params and "checkpoint_path" in params


class Scheduler:
    """Scheduling state of one sweep; see the module docstring.

    Construction emits the manifest, serves cache hits and, when nothing
    is left to run, finishes the sweep at once.  Afterwards
    :attr:`status` is ``"running"``, ``"ok"`` (:attr:`report` is set)
    or ``"failed"`` (:attr:`error` says why).

    Workers are identified by any hashable ``key`` the transport chooses;
    ``pid`` is what progress events name them by (``None`` for the
    inline transport, whose events carry no ``worker`` field).

    Args:
        points: the sweep cells; order is preserved in the report.
        label: sweep name for events, cache metadata and errors.
        cache: result cache, or ``None`` to neither read nor write one.
        progress_out: path, file-like or ProgressStream (None = off);
            a stream the core opened itself is closed at ``sweep-end``.
        workers: worker count recorded in the manifest and report.
        pooled: whether a worker pool runs the points (the manifest's
            ``elastic`` field).
        max_retries: retries per shard after a lost or stalled worker.
        stall_timeout: seconds a shard may run at the head of a
            worker's queue before the worker is presumed hung.
        checkpoint_every / checkpoint_dir: shard checkpoint cadence and
            directory (a temporary one when omitted); applied to point
            functions that accept ``checkpoint_every``/``checkpoint_path``.
        verbose: print a line per point and per retry.
        clock: monotonic time source for stalls and heartbeats.
        manifest: extra ``sweep-begin`` fields (the service's sweep id).
    """

    #: Shards one worker may hold: the running head plus queued ones.
    depth = 1
    #: Seconds between ``worker-heartbeat`` rows.
    heartbeat_every = 1.0

    def __init__(
        self,
        points: Sequence[SweepPoint],
        label: str = "sweep",
        cache: Optional[ResultCache] = None,
        progress_out: Optional[Any] = None,
        workers: int = 1,
        pooled: bool = False,
        max_retries: int = 2,
        stall_timeout: Optional[float] = None,
        checkpoint_every: int = 0,
        checkpoint_dir: Optional[str] = None,
        verbose: bool = False,
        clock: Callable[[], float] = time.monotonic,
        **manifest: Any,
    ) -> None:
        self.points = list(points)
        self.label = label
        self.cache = cache
        self.workers = workers
        self.max_retries = max_retries
        self.stall_timeout = stall_timeout
        self.verbose = verbose
        self.clock = clock
        self.started = time.perf_counter()
        self.status = "running"
        self.error: Optional[str] = None
        self.report: Optional[SweepReport] = None
        n = len(self.points)
        self.outcomes: List[Optional[PointOutcome]] = [None] * n
        #: Retries charged to each shard.
        self.retries = [0] * n
        self.total_retries = 0
        #: index -> (fn, kwargs) to execute, for every shard not cached.
        self.tasks: Dict[int, Tuple[Callable[..., Any], Dict[str, Any]]] = {}
        self.checkpoints: Dict[int, str] = {}
        self.keys: Dict[int, str] = {}
        self.backlog: Deque[int] = deque()
        self.remaining = 0
        #: Live worker key -> the shards it holds, head first.
        self.queues: Dict[Hashable, List[int]] = {}
        #: When each busy worker's head shard started.
        self.head_since: Dict[Hashable, float] = {}
        #: Every worker key ever joined -> its event name.
        self.pids: Dict[Hashable, Optional[int]] = {}
        #: Workers that were handed at least one shard.
        self.seen: set = set()
        #: Shards with a ``point-running`` and no terminal event yet.
        self.open: set = set()
        self.last_beat = clock()
        self.progress = as_progress_stream(progress_out, label)
        self._owns_progress = self.progress is not progress_out
        try:
            self._begin(pooled, checkpoint_every, checkpoint_dir, manifest)
        except BaseException as exc:
            self.abort(str(exc))
            raise

    def _begin(self, pooled, checkpoint_every, checkpoint_dir, manifest):
        cache = self.cache
        if self.progress is not None:
            self.progress.emit(
                "sweep-begin",
                n_points=len(self.points),
                workers=self.workers,
                elastic=pooled,
                **manifest,
                cache_dir=str(cache.directory) if cache is not None else None,
                code_version=cache.version if cache is not None else None,
                points=[_label_str(p) for p in self.points],
            )
            for i, point in enumerate(self.points):
                self.progress.emit(
                    "point-queued", index=i, point=_label_str(point)
                )
        for i, point in enumerate(self.points):
            if cache is not None:
                key = self.keys[i] = cache.key_for(point.fn, point.kwargs)
                hit, value = cache.get(key)
                if hit:
                    self._land(i, value, 0.0, None, cached=True)
                    continue
            self.backlog.append(i)
            self.tasks[i] = (point.fn, point.kwargs)
        if checkpoint_every and self.backlog:
            if checkpoint_dir is None:
                checkpoint_dir = tempfile.mkdtemp(prefix="repro-sweep-")
            for i in self.backlog:
                fn, kwargs = self.tasks[i]
                if _accepts_checkpoint(fn):
                    path = os.path.join(checkpoint_dir, f"shard-{i}.ckpt")
                    self.checkpoints[i] = path
                    self.tasks[i] = (
                        fn,
                        dict(
                            kwargs,
                            checkpoint_every=checkpoint_every,
                            checkpoint_path=path,
                        ),
                    )
        self.remaining = len(self.backlog)
        if not self.remaining:
            self._finish()

    # ------------------------------------------------------------------
    # events from the transport

    def join(self, key: Hashable, pid: Optional[int] = None) -> None:
        """A worker is ready for shards."""
        self.queues[key] = []
        self.pids[key] = pid
        if (
            pid is not None
            and self.progress is not None
            and self.status == "running"
        ):
            self.progress.emit("worker-spawned", worker=pid)

    def assign(self, key: Hashable) -> Optional[int]:
        """The next shard index for worker ``key``, or None.

        None when the backlog is empty, the worker already holds
        :attr:`depth` shards, or the worker is not (or no longer) live.
        The shard to execute is ``tasks[index]``.
        """
        queue = self.queues.get(key)
        if queue is None or not self.backlog or len(queue) >= self.depth:
            return None
        index = self.backlog.popleft()
        queue.append(index)
        self.seen.add(key)
        if len(queue) == 1:
            self._start_head(key, queue)
        return index

    def dispatch(self) -> List[Tuple[Hashable, int]]:
        """Fill every live worker's free slots, breadth first.

        Each idle worker gets a shard to run before any worker gets one
        queued behind its running head, so a requeued shard goes to an
        idle worker rather than waiting behind a long (or hung) one.
        Shards are queued behind a running one only while the backlog
        outnumbers the live workers: near a sweep's end a shard waits
        for a free worker instead.  Returns ``(worker key, index)``
        pairs in dispatch order.
        """
        out = []
        for held in range(self.depth):
            floor = len(self.queues) if held else 0
            for key, queue in self.queues.items():
                if len(self.backlog) <= floor:
                    return out
                if len(queue) == held:
                    out.append((key, self.assign(key)))
        return out

    def result(
        self, key: Hashable, index: int, value: Any, elapsed: float
    ) -> None:
        """Worker ``key`` finished shard ``index``; the first result wins."""
        queue = self.queues.get(key)
        if not queue or index not in queue:
            # A late result: its shard may have been requeued meanwhile.
            queue = None
            if index in self.backlog:
                self.backlog.remove(index)
        if self.status == "running" and self.outcomes[index] is None:
            if self.cache is not None:
                try:
                    self.cache.put(
                        self.keys[index],
                        value,
                        meta={
                            "label": self.label,
                            "point": repr(self.points[index].label),
                        },
                    )
                except Exception as exc:
                    self.point_error(
                        key, index, f"result could not be cached: {exc!r}"
                    )
                    return
            self._land(index, value, elapsed, key, cached=False)
            path = self.checkpoints.get(index)
            if path is not None and os.path.exists(path):
                os.remove(path)
            self.remaining -= 1
        if queue is not None:
            self._drop_from(key, queue, index)
        if self.status == "running" and not self.remaining:
            self._finish()

    def point_error(self, key: Hashable, index: int, error: str) -> None:
        """Shard ``index`` raised (or its result could not cross the
        transport): fail the point and abort the sweep, no retries."""
        if self.status == "running" and self.outcomes[index] is None:
            self.open.discard(index)
            self._emit_point("point-failed", index, key, error=error)
            self.abort(
                f"sweep {self.label!r} point {self.points[index].label!r} "
                f"failed: {error}"
            )
        queue = self.queues.get(key)
        if queue and index in queue:
            self._drop_from(key, queue, index)

    def lost(self, key: Hashable) -> None:
        """Worker ``key`` died (or was deregistered)."""
        if self.status != "running":
            return
        queue = self.queues.get(key)
        if self.progress is not None:
            self.progress.emit(
                "worker-died",
                worker=self.pids.get(key),
                index=queue[0] if queue else None,
            )
        self._retire(key, "died")

    def release(self, key: Hashable) -> None:
        """Worker ``key`` lives on but gave up the shards it held (a
        service worker asking for a lease while still holding one)."""
        if self.status == "running" and self.queues.get(key):
            self._retire(key, "abandoned its lease")
            self.queues[key] = []

    def tick(self) -> List[Hashable]:
        """Check stalls and emit a heartbeat row when one is due.

        Returns the workers found stalled.  They are already retired
        here, with their shards requeued; the transport only has to stop
        them (kill the process, deregister the agent).
        """
        if self.status != "running":
            return []
        now = self.clock()
        stalled = []
        if self.stall_timeout is not None:
            for key, since in list(self.head_since.items()):
                held = now - since
                if held <= self.stall_timeout:
                    continue
                stalled.append(key)
                if self.progress is not None:
                    index = self.queues[key][0]
                    self.progress.emit(
                        "worker-stalled",
                        worker=self.pids.get(key),
                        index=index,
                        point=_label_str(self.points[index]),
                        held_s=held,
                        stall_timeout=self.stall_timeout,
                    )
                self._retire(key, "stalled")
                if self.status != "running":
                    return stalled
        if (
            self.progress is not None
            and now - self.last_beat >= self.heartbeat_every
        ):
            self.last_beat = now
            busy = len(self.head_since)
            self.progress.emit(
                "worker-heartbeat",
                workers=len(self.queues),
                busy=busy,
                idle=len(self.queues) - busy,
                backlog=len(self.backlog),
                remaining=self.remaining,
            )
        return stalled

    def abort(self, error: str) -> None:
        """Fail the sweep, closing every open point trail first."""
        if self.status != "running":
            return
        self.status = "failed"
        self.error = error
        self.backlog.clear()
        reason = f"aborted: sweep {self.label!r} failed"
        for index in sorted(self.open):
            self._emit_point("point-failed", index, None, error=reason)
        self.open.clear()
        self._end(status="failed", error=error)

    # ------------------------------------------------------------------
    # internals

    def _start_head(self, key: Hashable, queue: List[int]) -> None:
        index = queue[0]
        self.head_since[key] = self.clock()
        if self.outcomes[index] is None:  # a late duplicate needs no trail
            self.open.add(index)
            self._emit_point(
                "point-running", index, key, retry=self.retries[index]
            )

    def _drop_from(self, key: Hashable, queue: List[int], index: int) -> None:
        head = queue[0] == index
        queue.remove(index)
        if not head:
            return
        if queue and self.status == "running":
            self._start_head(key, queue)
        else:
            self.head_since.pop(key, None)

    def _retire(self, key: Hashable, cause: str) -> None:
        """Take worker ``key`` out; charge its head shard one retry and
        put every shard it held back at the front of the backlog."""
        queue = self.queues.pop(key, None)
        self.head_since.pop(key, None)
        if not queue:
            return
        head = queue[0]
        self.backlog.extendleft(
            i for i in reversed(queue[1:]) if self.outcomes[i] is None
        )
        if self.outcomes[head] is not None:
            return
        retry = self.retries[head] = self.retries[head] + 1
        self.total_retries += 1
        if retry > self.max_retries:
            self.open.discard(head)
            self._emit_point(
                "point-failed",
                head,
                key,
                error=f"retries exhausted (max_retries={self.max_retries}): "
                f"worker {cause}",
            )
            self.abort(
                f"sweep {self.label!r} point {self.points[head].label!r}: "
                f"worker {cause}, retries exhausted "
                f"(max_retries={self.max_retries})"
            )
            return
        path = self.checkpoints.get(head)
        resume = path is not None and os.path.exists(path)
        if resume:
            self._emit_point("point-checkpointed", head, None, path=path)
        self._emit_point(
            "point-retried",
            head,
            key,
            retry=retry,
            max_retries=self.max_retries,
            resume=resume,
        )
        if self.verbose:
            how = "resuming from checkpoint" if resume else "restarting"
            print(
                f"[sweep {self.label}] {self.points[head].label}: worker "
                f"{self.pids.get(key)} {cause}, {how} "
                f"(retry {retry}/{self.max_retries})"
            )
        self.backlog.appendleft(head)

    def _land(self, index, value, elapsed, key, cached) -> None:
        result, metrics = _unwrap(value)
        point = self.points[index]
        self.outcomes[index] = PointOutcome(
            point, result, cached=cached, elapsed=elapsed, metrics=metrics
        )
        self.open.discard(index)
        if self.progress is not None:
            # Cache hits replay their stored telemetry too: that is what
            # keeps a warm-cache stream as rollup-ready as a cold one.
            self._emit_point(
                "point-done", index, key, cached=cached, elapsed=elapsed
            )
            if metrics is not None:
                self._emit_point(
                    "point-metrics",
                    index,
                    None,
                    cached=cached,
                    metrics=metrics,
                )
        if self.verbose:
            how = "cached" if cached else f"executed in {elapsed:.2f}s"
            print(f"[sweep {self.label}] {point.label}: {how}")

    def _emit_point(
        self, event: str, index: int, key: Hashable, **fields: Any
    ) -> None:
        if self.progress is None:
            return
        pid = self.pids.get(key)
        if pid is not None:
            fields["worker"] = pid
        self.progress.emit(
            event, index=index, point=_label_str(self.points[index]), **fields
        )

    def _finish(self) -> None:
        self.status = "ok"
        cache = self.cache
        self.report = SweepReport(
            label=self.label,
            outcomes=list(self.outcomes),
            workers=self.workers,
            elapsed=time.perf_counter() - self.started,
            cache_dir=str(cache.directory) if cache is not None else None,
            retries=self.total_retries,
        )
        self._end(
            status="ok",
            n_points=len(self.points),
            cache_hits=self.report.cache_hits,
            executed=self.report.executed,
        )

    def _end(self, **fields: Any) -> None:
        if self.progress is None:
            return
        self.progress.emit(
            "sweep-end",
            **fields,
            retries=self.total_retries,
            elapsed=time.perf_counter() - self.started,
        )
        if self._owns_progress:
            self.progress.close()
