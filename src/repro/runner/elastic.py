"""The per-worker-pipe transport: supervised worker processes.

:func:`run_pool` drives a sweep's :class:`~repro.runner.scheduler
.Scheduler` with a pool of worker processes built directly on
:mod:`multiprocessing`; :func:`~repro.runner.sweep.run_sweep` uses it
whenever ``workers`` is above one.  The core decides everything —
dispatch order, retries, stalls, events, the cache; this module only
moves shards and results between processes and reports what happens to
them:

* **work stealing** — the supervisor hands the next backlog shard to
  whichever worker has a free slot, so a fast worker drains the tail
  instead of idling behind a static partition;
* **two shards in flight** — each worker holds the shard it runs plus
  one queued behind it (while the backlog outnumbers the workers), so
  it never idles while the supervisor writes a cache entry and sends
  the next shard;
* **crash recovery** — a worker that dies (OOM kill, segfault, operator
  ``kill -9``) is reported lost once the replies it sent before dying
  are read, its shards are requeued by the core, and a replacement
  worker keeps the pool at strength;
* **stall recovery** — a worker the core finds stalled is killed and
  replaced the same way.

Transport notes (why pipes, not queues): this pool must survive
``SIGKILL`` at *any* instant, and ``multiprocessing.Queue`` cannot — its
write lock is a cross-process semaphore taken by a background feeder
thread, so a worker killed mid-flush orphans the lock and every other
worker's ``put`` blocks forever.  Each worker therefore gets its own
duplex :func:`multiprocessing.Pipe` (single writer per direction, no
shared locks, no feeder thread); the supervisor multiplexes them with
:func:`multiprocessing.connection.wait`, and a worker killed mid-send
surfaces as ``EOFError`` on the parent end rather than a deadlock.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
from typing import Any, Dict, List, Sequence, Tuple

from repro.runner.sweep import SweepPoint, SweepReport, _execute, _run

#: Supervisor wake-up interval (seconds): bounds how quickly worker
#: death / stalls are noticed without spinning.
_HEARTBEAT = 0.05

#: Seconds between ``worker-heartbeat`` progress events (when a
#: progress stream is attached).  Module-level so tests can shrink it.
_PROGRESS_HEARTBEAT_EVERY = 1.0

#: Shards each worker holds: the one it runs plus one queued behind it.
_IN_FLIGHT = 2

#: A queued shard larger than this (pickled bytes) waits in the
#: supervisor until its worker is free: were it to fill the pipe while
#: the worker writes an equally large result, both sides would block.
_PIPE_SLACK = 64 * 1024


def _mp_context():
    # fork keeps already-imported bench modules importable in workers
    # (their functions pickle by reference); fall back where unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def _elastic_worker(conn) -> None:
    """Worker loop: receive a shard on ``conn``, run it, report, repeat.

    Shards are *dispatched* by the supervisor over the per-worker pipe
    rather than stolen from a shared queue: a SIGKILLed process can lose
    any message still buffered on its side, so worker self-reports ("I
    took shard i") are unreliable exactly when they matter.  With
    supervisor-side dispatch the parent always knows which shards a
    dead worker held, from its own records.  A lost "done" (the worker
    was killed after finishing, before the bytes hit the pipe) only
    costs a redundant re-execution — results are deterministic, so the
    retry reproduces the same value.

    The result travels pickled inside the reply, so a result that does
    not pickle here, or does not unpickle in the supervisor, fails its
    own point instead of looking like a dead worker.
    """
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent gone
            return
        if item is None:
            conn.close()
            return
        idx, fn, kwargs = item
        try:
            reply = ("done", idx, pickle.dumps(_execute(fn, kwargs), -1))
        except BaseException:
            reply = ("error", idx, traceback.format_exc())
        conn.send(reply)


class _Pool:
    """The supervised worker processes (internal to :func:`run_pool`)."""

    def __init__(self) -> None:
        self.ctx = _mp_context()
        self.procs: Dict[int, Any] = {}
        self.conns: Dict[int, Any] = {}  # pid -> parent pipe end
        self.pid_by_conn: Dict[Any, int] = {}
        #: pid -> a large queued shard not yet written to its pipe.
        self.held: Dict[int, bytes] = {}

    def spawn(self) -> int:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=_elastic_worker, args=(child_conn,), daemon=True
        )
        proc.start()
        # Drop the parent's copy of the child end immediately, so the
        # worker's death closes the last handle and the parent sees EOF.
        child_conn.close()
        self.procs[proc.pid] = proc
        self.conns[proc.pid] = parent_conn
        self.pid_by_conn[parent_conn] = proc.pid
        return proc.pid

    def send(self, pid: int, item: tuple, queued: bool) -> None:
        blob = ForkingPickler.dumps(item)
        if queued and len(blob) > _PIPE_SLACK:
            self.held[pid] = bytes(blob)
        else:
            self._write(pid, blob)

    def flush(self, pid: int) -> None:
        """``pid`` reported back, so it is about to read: send what waits."""
        blob = self.held.pop(pid, None)
        if blob is not None:
            self._write(pid, blob)

    def _write(self, pid: int, blob: bytes) -> None:
        try:
            self.conns[pid].send_bytes(blob)
        except OSError:
            pass  # the worker died; reap_dead reports it

    def wait(self, timeout: float) -> List[Any]:
        """Pipe ends with data (or EOF) ready, after at most ``timeout``."""
        if not self.conns:  # pragma: no cover - transient only
            time.sleep(timeout)
            return []
        return list(
            mp_connection.wait(list(self.conns.values()), timeout=timeout)
        )

    def reap_dead(self) -> List[Tuple[int, Any]]:
        """Join and drop exited workers; returns ``(pid, pipe end)``
        pairs, the pipe ends still open for the caller to drain."""
        dead = [pid for pid, p in self.procs.items() if not p.is_alive()]
        reaped = []
        for pid in dead:
            self.procs.pop(pid).join()
            conn = self.conns.pop(pid)
            self.pid_by_conn.pop(conn, None)
            self.held.pop(pid, None)
            reaped.append((pid, conn))
        return reaped

    def kill(self, pid: int) -> None:
        """SIGKILL ``pid`` and wait for it, so the next reap finds it."""
        proc = self.procs.get(pid)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join()

    def shutdown(self) -> None:
        for conn in self.conns.values():
            try:
                conn.send(None)
            except (OSError, ValueError):  # pragma: no cover - worker gone
                pass
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs.values():
            proc.join()
        for conn in self.conns.values():
            conn.close()
        self.procs.clear()
        self.conns.clear()
        self.pid_by_conn.clear()
        self.held.clear()


def run_pool(core, workers: int) -> None:
    """Drive ``core`` to its end on a pool of ``workers`` processes."""
    core.depth = _IN_FLIGHT
    core.heartbeat_every = _PROGRESS_HEARTBEAT_EVERY
    pool = _Pool()

    def receive(pid: int, conn) -> None:
        """Hand one reply from ``pid`` to the core (EOFError or OSError
        once the worker is gone and its pipe is drained)."""
        kind, index, payload = conn.recv()
        pool.flush(pid)
        if kind == "error":
            core.point_error(pid, index, payload)
            return
        try:
            value, elapsed = pickle.loads(payload)
        except Exception:
            core.point_error(pid, index, traceback.format_exc())
        else:
            core.result(pid, index, value, elapsed)

    try:
        for _ in range(min(workers, core.remaining)):
            pid = pool.spawn()
            core.join(pid, pid)
        while core.status == "running":
            for pid, index in core.dispatch():
                fn, kwargs = core.tasks[index]
                queued = core.queues[pid][0] != index
                pool.send(pid, (index, fn, kwargs), queued)
            for conn in pool.wait(_HEARTBEAT):
                pid = pool.pid_by_conn.get(conn)
                if pid is None:  # pragma: no cover - already reaped
                    continue
                try:
                    receive(pid, conn)
                except (EOFError, OSError):
                    continue  # dead worker; reaped below
                if core.status != "running":
                    return
            for pid in core.tick():
                pool.kill(pid)
            for pid, conn in pool.reap_dead():
                # Replies a worker sent before it died still count: the
                # core must see them before it charges the worker's
                # running shard, or it would blame the wrong one.
                try:
                    while core.status == "running" and conn.poll():
                        receive(pid, conn)
                except (EOFError, OSError):
                    pass
                conn.close()
                core.lost(pid)
                if core.status == "running":
                    new = pool.spawn()
                    core.join(new, new)
    finally:
        pool.shutdown()


def run_sweep_elastic(
    points: Sequence[SweepPoint], workers: int = 2, **kwargs: Any
) -> SweepReport:
    """:func:`~repro.runner.sweep.run_sweep` on a worker pool, even with
    ``workers=1``; every other argument is ``run_sweep``'s."""
    return _run(points, max(1, int(workers)), True, **kwargs)
