"""The sweep-service coordinator: shard queueing, leases, reaping.

One coordinator process owns the authoritative state of every
submitted sweep: the shard backlog, which worker holds which lease,
per-shard retry counts, the shared :class:`~repro.runner.cache
.ResultCache`, and one merged :class:`~repro.obs.progress
.ProgressStream` per sweep.  Workers never talk to each other and
never write shared state — they lease a shard, execute it, and post
the result (or die trying), exactly like the local pool's workers but
across a socket instead of a pipe.

Each submitted sweep is one :class:`~repro.runner.scheduler.Scheduler`,
the core every local sweep runs through too, so budgets, requeue order,
events and the cache behave exactly as they do locally.  The
coordinator is the core's HTTP transport:

* a lease is :meth:`~repro.runner.scheduler.Scheduler.assign`, a posted
  result or point error goes to the core as is, and a result that does
  not unpickle here fails its point instead of being lost;
* a worker whose heartbeat goes quiet for ``heartbeat_timeout`` seconds
  is presumed dead and reported lost to every running sweep — the
  socket-world analogue of a SIGKILLed pool worker;
* a worker the core finds stalled (its lease held longer than the
  sweep's ``stall_timeout``) is deregistered the same way.  A late
  result from it is refused (410) and the agent re-registers;
* shards whose point functions accept checkpoint kwargs resume from
  their last :mod:`repro.checkpoint` snapshot on retry, provided
  coordinator and workers share the checkpoint directory (loopback or
  a shared filesystem — see ``docs/service.md``).

Every progress event is written by the coordinator's own stream, so
``seq`` and ``t`` are coordinator-stamped and the file is totally ordered:
:func:`repro.obs.read_progress`, :func:`repro.obs.rollup_results`,
and ``repro report`` consume it with no changes.  The coordinator
upholds the one-terminal-event-per-point invariant
(:func:`repro.obs.verify_point_trails`) on abort paths too.

All handler code runs on the event loop thread; nothing here locks.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.scheduler import Scheduler
from repro.runner.service.wire import (
    decode_payload,
    encode_payload,
    start_http_server,
)
from repro.runner.sweep import WithMetrics, _label_str
from repro.schema import SCHEMA_VERSION

__all__ = ["Coordinator", "ServiceConfig", "serve"]

#: Supervisor wake-up cadence (mirrors the pipe pool's ``_HEARTBEAT``).
_REAP_INTERVAL = 0.05


@dataclass
class ServiceConfig:
    """Knobs for one coordinator process.

    The per-*sweep* budgets (``max_retries``, ``stall_timeout``,
    ``checkpoint_every``) arrive with each submission and mean what
    they mean to :func:`~repro.runner.sweep.run_sweep`; this config
    holds only fleet-level policy.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; see Coordinator.url
    cache_dir: Optional[str] = None  # None = repro's default cache dir
    checkpoint_dir: Optional[str] = None  # None = fresh temp dir
    progress_dir: Optional[str] = None  # None = fresh temp dir
    #: Seconds without a heartbeat before a worker is presumed dead.
    heartbeat_timeout: float = 5.0
    #: Heartbeat cadence advertised to registering workers.
    heartbeat_every: float = 0.5


class _Worker:
    """Coordinator-side record of one registered worker agent."""

    def __init__(self, worker_id: str, pid: int, host: str) -> None:
        self.id = worker_id
        self.pid = pid
        self.host = host
        self.last_seen = time.monotonic()


class Coordinator:
    """The sweep-service coordinator; see the module docstring.

    Two ways to run one:

    * :func:`serve` (the ``repro serve`` CLI) — blocks the process on
      the event loop until interrupted;
    * :meth:`start` / :meth:`stop` — runs the loop on a background
      thread and exposes :attr:`url`, for tests and embedding.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        cache_dir = (
            self.config.cache_dir
            if self.config.cache_dir is not None
            else default_cache_dir()
        )
        self.cache = ResultCache(cache_dir)
        self.checkpoint_dir = (
            self.config.checkpoint_dir
            if self.config.checkpoint_dir is not None
            else tempfile.mkdtemp(prefix="repro-service-ckpt-")
        )
        self.progress_dir = (
            self.config.progress_dir
            if self.config.progress_dir is not None
            else tempfile.mkdtemp(prefix="repro-service-progress-")
        )
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        os.makedirs(self.progress_dir, exist_ok=True)
        self.url: Optional[str] = None
        #: Sweep id -> its scheduler core.
        self.sweeps: Dict[str, Scheduler] = {}
        self.workers: Dict[str, _Worker] = {}
        self._next_sweep = 0
        self._next_worker = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._supervisor: Optional["asyncio.Task[None]"] = None

    # ------------------------------------------------------------------
    # lifecycle

    async def start_async(self) -> str:
        """Bind the server and start the reaper on the running loop."""
        self._server = await start_http_server(
            self.config.host, self.config.port, self.handle
        )
        port = self._server.sockets[0].getsockname()[1]
        self.url = f"http://{self.config.host}:{port}"
        self._supervisor = asyncio.get_running_loop().create_task(
            self._supervise()
        )
        return self.url

    async def stop_async(self) -> None:
        if self._supervisor is not None:
            self._supervisor.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for core in self.sweeps.values():
            if core.status == "running":
                core.progress.close()

    def start(self) -> str:
        """Serve from a daemon thread; returns the bound URL."""
        ready = threading.Event()
        failure: List[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start_async())
            except BaseException as exc:  # bind failure etc.
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop_async())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-coordinator", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise RuntimeError("coordinator did not start within 10s")
        if failure:
            raise failure[0]
        assert self.url is not None
        return self.url

    def stop(self) -> None:
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    # ------------------------------------------------------------------
    # routing

    def handle(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Any]:
        """Route one request.  Runs on the event loop thread."""
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if parts and parts[0] == "sweeps":
            if len(parts) == 1 and method == "POST":
                return self._submit(body or {})
            if len(parts) >= 2:
                core = self.sweeps.get(parts[1])
                if core is None:
                    return 404, {"error": f"unknown sweep {parts[1]!r}"}
                if len(parts) == 2 and method == "GET":
                    return self._status(parts[1], core)
                if len(parts) == 3 and method == "GET":
                    if parts[2] == "report":
                        return self._report(parts[1], core)
                    if parts[2] == "progress":
                        return self._progress_text(parts[1])
        if parts and parts[0] == "workers":
            if len(parts) == 1 and method == "POST":
                return self._register(body or {})
            if len(parts) == 3 and method == "POST":
                worker = self.workers.get(parts[1])
                if worker is None:
                    # 410: the worker was reaped (dead/stalled); it must
                    # re-register before doing anything else.
                    return 410, {"error": f"unknown worker {parts[1]!r}"}
                worker.last_seen = time.monotonic()
                if parts[2] == "heartbeat":
                    return 200, {"ok": True}
                if parts[2] == "lease":
                    return self._lease(worker)
                if parts[2] == "result":
                    return self._result(worker, body or {})
        return 404, {"error": f"no route for {method} {path}"}

    # ------------------------------------------------------------------
    # handlers

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "ok": True,
            "code_version": self.cache.version,
            "schema_version": SCHEMA_VERSION,
            "workers": len(self.workers),
            "sweeps": len(self.sweeps),
        }

    def _version_conflict(
        self, who: str, version: Any
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """409 unless ``version`` is this tree's: a mismatched client's
        pickled points would not match the code the fleet runs, and a
        mismatched worker's results would land in the shared cache under
        this coordinator's fingerprint."""
        if version == self.cache.version:
            return None
        return 409, {
            "error": (
                f"code_version mismatch: {who} {version!r} vs coordinator "
                f"{self.cache.version!r}; deploy the same tree on both sides"
            )
        }

    def _progress_path(self, sweep_id: str) -> str:
        return os.path.join(self.progress_dir, f"{sweep_id}.jsonl")

    def _submit(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        conflict = self._version_conflict("client", body.get("code_version"))
        if conflict is not None:
            return conflict
        try:
            points = decode_payload(body["points"])
        except Exception as exc:
            return 400, {"error": f"bad points payload: {exc}"}
        stall_timeout = body.get("stall_timeout")
        self._next_sweep += 1
        sweep_id = f"s{self._next_sweep}"
        core = Scheduler(
            points,
            label=str(body.get("label", "sweep")),
            cache=self.cache if body.get("use_cache", True) else None,
            progress_out=self._progress_path(sweep_id),
            workers=len(self.workers),
            pooled=True,
            max_retries=int(body.get("max_retries", 2)),
            stall_timeout=None if stall_timeout is None else float(stall_timeout),
            checkpoint_every=int(body.get("checkpoint_every", 0)),
            checkpoint_dir=os.path.join(self.checkpoint_dir, sweep_id),
            service=sweep_id,
        )
        self.sweeps[sweep_id] = core
        for worker in self.workers.values():
            core.join(worker.id, worker.pid)
        return 200, {"sweep": sweep_id, "queued": core.remaining}

    def _status(
        self, sweep_id: str, core: Scheduler
    ) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "sweep": sweep_id,
            "label": core.label,
            "status": core.status,
            "error": core.error,
            "total": len(core.points),
            "remaining": core.remaining,
            "retries": core.total_retries,
            "backlog": len(core.backlog),
        }

    def _report(
        self, sweep_id: str, core: Scheduler
    ) -> Tuple[int, Dict[str, Any]]:
        report = core.report
        if report is None:
            return 409, {
                "error": (
                    f"sweep {sweep_id} is {core.status}; a report exists "
                    f"only once the sweep completed ok"
                )
            }
        outcomes = []
        for outcome, retries in zip(report.outcomes, core.retries):
            # Re-wrapped exactly as the point returned it, so the client
            # unwraps what a local run would see.
            value = (
                outcome.result
                if outcome.metrics is None
                else WithMetrics(outcome.result, outcome.metrics)
            )
            outcomes.append(
                {
                    "value": encode_payload(value),
                    "cached": outcome.cached,
                    "elapsed": outcome.elapsed,
                    "retries": retries,
                }
            )
        return 200, {
            "sweep": sweep_id,
            "label": report.label,
            "outcomes": outcomes,
            "workers": max(1, len(core.seen)),
            "elapsed": report.elapsed,
            "cache_dir": report.cache_dir,
            "retries": report.retries,
        }

    def _progress_text(self, sweep_id: str) -> Tuple[int, Tuple[str, str]]:
        with open(self._progress_path(sweep_id), "r", encoding="utf-8") as handle:
            return 200, ("text/plain", handle.read())

    def _register(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        conflict = self._version_conflict("worker", body.get("code_version"))
        if conflict is not None:
            return conflict
        self._next_worker += 1
        worker = _Worker(
            worker_id=f"w{self._next_worker}",
            pid=int(body.get("pid", 0)),
            host=str(body.get("host", "?")),
        )
        self.workers[worker.id] = worker
        for core in self.sweeps.values():
            if core.status == "running":
                core.join(worker.id, worker.pid)
        return 200, {
            "worker": worker.id,
            "heartbeat_every": self.config.heartbeat_every,
        }

    def _lease(self, worker: _Worker) -> Tuple[int, Dict[str, Any]]:
        for core in self.sweeps.values():
            # A worker polling while it still holds a lease lost track
            # of it (e.g. its result post failed): the core requeues it.
            core.release(worker.id)
        for sweep_id, core in self.sweeps.items():
            index = core.assign(worker.id)
            if index is None:
                continue
            return 200, {
                "task": {
                    "sweep": sweep_id,
                    "index": index,
                    "point": _label_str(core.points[index]),
                    "payload": encode_payload(core.tasks[index]),
                }
            }
        return 200, {"task": None}

    def _result(
        self, worker: _Worker, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        core = self.sweeps.get(str(body.get("sweep")))
        if core is None:
            return 404, {"error": f"unknown sweep {body.get('sweep')!r}"}
        index = int(body["index"])
        if not body.get("ok"):
            error = str(body.get("error", "unknown worker error"))
            core.point_error(worker.id, index, error)
            return 200, {"ok": True}
        try:
            value = decode_payload(body["value"])
        except Exception:
            core.point_error(
                worker.id,
                index,
                "result could not be unpickled by the coordinator:\n"
                + traceback.format_exc(limit=5),
            )
        else:
            core.result(
                worker.id, index, value, float(body.get("elapsed", 0.0))
            )
        return 200, {"ok": True}

    # ------------------------------------------------------------------
    # supervision (reaper / heartbeats), on the event loop

    async def _supervise(self) -> None:
        while True:
            await asyncio.sleep(_REAP_INTERVAL)
            now = time.monotonic()
            for worker in list(self.workers.values()):
                if now - worker.last_seen > self.config.heartbeat_timeout:
                    self._reap(worker.id)
            for core in list(self.sweeps.values()):
                for worker_id in core.tick():
                    self._reap(worker_id)

    def _reap(self, worker_id: str) -> None:
        """Deregister a dead or stalled worker; every running sweep
        requeues (or fails) what it held.  A reaped agent that is still
        alive gets 410 on its next request and re-registers."""
        self.workers.pop(worker_id, None)
        for core in self.sweeps.values():
            core.lost(worker_id)


def serve(config: Optional[ServiceConfig] = None) -> None:
    """Run a coordinator in the foreground (the ``repro serve`` verb).

    Prints ``repro-service listening on <url>`` once bound — with
    ``port=0`` this line is how spawners learn the chosen port — then
    blocks until interrupted.
    """
    coordinator = Coordinator(config)

    async def _main() -> None:
        url = await coordinator.start_async()
        print(f"repro-service listening on {url}", flush=True)
        print(
            f"repro-service cache={coordinator.cache.directory} "
            f"progress={coordinator.progress_dir}",
            flush=True,
        )
        assert coordinator._server is not None
        try:
            await coordinator._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await coordinator.stop_async()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
