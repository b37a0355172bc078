"""One scheduler core, three transports: the behaviour they must share.

Inline runs, the per-worker pipe pool and the HTTP service all drive
:class:`repro.runner.scheduler.Scheduler`, so a result that cannot cross
a transport fails its point the same way everywhere (no retries, no
worker blamed, no shard stranded), requeued shards go to the front of
the backlog, and one grid gives identical results and rollups on every
transport.  Service cases run a coordinator and a worker agent on
threads of this process, over loopback HTTP.
"""

import os
import signal
import threading
import time

import pytest

from repro.api import Experiment
from repro.obs import read_progress, rollup_outcomes, verify_point_trails
from repro.runner import SweepError, SweepPoint, run_sweep, run_sweep_elastic
from repro.runner.scheduler import Scheduler
from repro.runner.service import (
    Coordinator,
    ServiceConfig,
    run_sweep_service,
    run_worker,
)
from repro.runner.service import coordinator as coordinator_mod
from repro.runner.service.wire import encode_payload


def _square(x):
    return x * x


def _returns_lock(x):
    return threading.Lock()


def _refuse_to_unpickle():
    raise RuntimeError("refuses to unpickle")


class _Unloadable:
    """Pickles fine; raises when unpickled."""

    def __reduce__(self):
        return (_refuse_to_unpickle, ())


def _returns_unloadable(x):
    return _Unloadable()


def _echo_twice(blob, x):
    return blob * 2


def _dies_once(x, marker_dir):
    """SIGKILLs its worker on the first attempt at every third point."""
    marker = os.path.join(marker_dir, f"{x}.died")
    if x % 3 == 0 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _no_worker_blamed(records):
    events = [r["event"] for r in records]
    assert "worker-died" not in events
    assert "point-retried" not in events
    verify_point_trails(records)
    assert records[-1]["status"] == "failed"


def _coordinator(tmp_path):
    return Coordinator(
        ServiceConfig(
            cache_dir=str(tmp_path / "svc-cache"),
            checkpoint_dir=str(tmp_path / "svc-ckpt"),
            progress_dir=str(tmp_path / "svc-progress"),
        )
    )


@pytest.fixture
def loopback(tmp_path):
    """A coordinator plus one worker agent, each on a thread."""
    coordinator = _coordinator(tmp_path)
    url = coordinator.start()
    worker = threading.Thread(
        target=run_worker,
        args=(url,),
        kwargs={"poll_interval": 0.02, "max_idle": 1.0},
        daemon=True,
    )
    worker.start()
    try:
        yield url
    finally:
        worker.join(timeout=30)
        coordinator.stop()
        assert not worker.is_alive()


# ----------------------------------------------------------------------
# results that cannot cross a transport


def test_pipes_unpicklable_result_fails_its_point(tmp_path):
    path = tmp_path / "progress.jsonl"
    points = [SweepPoint(_returns_lock, {"x": 0}), SweepPoint(_square, {"x": 1})]
    with pytest.raises(SweepError, match="pickle"):
        run_sweep(points, workers=2, use_cache=False, progress_out=str(path))
    _no_worker_blamed(read_progress(path))


def test_pipes_result_that_does_not_unpickle_fails_its_point(tmp_path):
    path = tmp_path / "progress.jsonl"
    points = [SweepPoint(_returns_unloadable, {"x": 0})]
    with pytest.raises(SweepError, match="refuses to unpickle"):
        run_sweep_elastic(
            points, workers=1, use_cache=False, progress_out=str(path)
        )
    _no_worker_blamed(read_progress(path))


def test_inline_uncacheable_result_fails_its_point(tmp_path):
    path = tmp_path / "progress.jsonl"
    with pytest.raises(SweepError, match="could not be cached"):
        run_sweep(
            [SweepPoint(_returns_lock, {"x": 0})],
            cache_dir=str(tmp_path / "cache"),
            progress_out=str(path),
        )
    _no_worker_blamed(read_progress(path))


def test_service_worker_unpicklable_result_fails_its_point(tmp_path, loopback):
    path = tmp_path / "progress.jsonl"
    with pytest.raises(SweepError, match="pickle"):
        run_sweep_service(
            [SweepPoint(_returns_lock, {"x": 0})],
            loopback,
            use_cache=False,
            progress_out=str(path),
            poll_interval=0.02,
            timeout=60,
        )
    _no_worker_blamed(read_progress(path))


def test_coordinator_unpickling_failure_fails_the_shard(tmp_path):
    # The coordinator used to clear the worker's lease before decoding
    # the result, so a decode error stranded the shard: in no backlog,
    # in no lease, and the sweep `running` forever.
    coordinator = _coordinator(tmp_path)
    version = coordinator.cache.version
    status, registered = coordinator.handle(
        "POST", "/workers", {"code_version": version, "pid": 7}
    )
    assert status == 200
    worker = registered["worker"]
    status, submitted = coordinator.handle(
        "POST",
        "/sweeps",
        {
            "code_version": version,
            "points": encode_payload([SweepPoint(_square, {"x": 3})]),
            "use_cache": False,
        },
    )
    assert status == 200
    sweep = submitted["sweep"]
    _, lease = coordinator.handle("POST", f"/workers/{worker}/lease", {})
    task = lease["task"]
    status, _ = coordinator.handle(
        "POST",
        f"/workers/{worker}/result",
        {
            "sweep": task["sweep"],
            "index": task["index"],
            "ok": True,
            "value": encode_payload(_Unloadable()),
            "elapsed": 0.1,
        },
    )
    assert status == 200
    _, state = coordinator.handle("GET", f"/sweeps/{sweep}", None)
    assert state["status"] == "failed"
    assert "refuses to unpickle" in state["error"]
    _, (_, text) = coordinator.handle("GET", f"/sweeps/{sweep}/progress", None)
    path = tmp_path / "svc.jsonl"
    path.write_text(text)
    _no_worker_blamed(read_progress(path))


def test_mismatched_submit_is_refused_before_decoding(tmp_path, monkeypatch):
    coordinator = _coordinator(tmp_path)
    decoded = []
    monkeypatch.setattr(coordinator_mod, "decode_payload", decoded.append)
    status, body = coordinator.handle(
        "POST",
        "/sweeps",
        {
            "code_version": "some-other-tree",
            "points": encode_payload([SweepPoint(_square, {"x": 1})]),
        },
    )
    assert status == 409
    assert "code_version mismatch" in body["error"]
    assert decoded == []
    assert coordinator.sweeps == {}


# ----------------------------------------------------------------------
# shared scheduling policy


def test_lost_worker_charges_its_head_and_requeues_at_the_front():
    core = Scheduler(
        [SweepPoint(_square, {"x": i}) for i in range(5)],
        pooled=True,
        max_retries=1,
    )
    core.depth = 2
    core.join("a", 1)
    core.join("b", 2)
    # Breadth first: each worker gets a shard to run, then one queued
    # while the backlog still outnumbers the workers.
    assert core.dispatch() == [("a", 0), ("b", 1), ("a", 2)]
    assert list(core.backlog) == [3, 4]
    core.lost("a")
    assert list(core.backlog) == [0, 2, 3, 4]
    assert core.retries == [1, 0, 0, 0, 0]
    core.join("c", 3)
    assert core.dispatch() == [("c", 0), ("b", 2)]


def test_pool_wider_than_the_host_survives_repeated_worker_deaths(tmp_path):
    # More workers than cores, two shards in flight each, and a third of
    # the shards killing their worker once: every death charges its
    # running shard one retry, shards queued behind it go back
    # uncharged, and every trail still closes exactly once.
    path = tmp_path / "progress.jsonl"
    points = [
        SweepPoint(_dies_once, {"x": x, "marker_dir": str(tmp_path)})
        for x in range(30)
    ]
    started = time.monotonic()
    report = run_sweep(
        points, workers=4, use_cache=False, progress_out=str(path)
    )
    assert time.monotonic() - started < 60
    assert report.results == [x * x for x in range(30)]
    assert report.retries == 10
    records = read_progress(path)
    assert verify_point_trails(records) == {x: "done" for x in range(30)}
    retried = [r["index"] for r in records if r["event"] == "point-retried"]
    assert sorted(retried) == list(range(0, 30, 3))


def test_large_queued_shards_wait_in_the_supervisor():
    # Shards and results far larger than a pipe's buffer, two in flight
    # per worker: a queued shard must not fill the pipe while the
    # worker writes its result.
    blob = "x" * 300_000
    points = [SweepPoint(_echo_twice, {"blob": blob, "x": i}) for i in range(5)]
    report = run_sweep(points, workers=2, use_cache=False)
    assert report.results == [blob * 2] * 5


def test_transports_agree_on_results_and_rollups(tmp_path, loopback):
    experiment = Experiment(
        protocol="twobit", n_processors=2, refs_per_proc=60, warmup_refs=20
    )
    points = experiment.sweep_points(
        {"protocol": ["twobit", "fullmap"], "q": [0.02, 0.1]}, instrument=True
    )
    reports = {
        "inline": run_sweep(points, cache_dir=str(tmp_path / "inline")),
        "pipes": run_sweep(points, workers=2, cache_dir=str(tmp_path / "pipes")),
        "service": run_sweep_service(
            points, loopback, poll_interval=0.02, timeout=120
        ),
    }
    baseline = reports["inline"]
    rollup = {
        name: {
            group: r.to_dict()
            for group, r in rollup_outcomes(
                report.outcomes, group_by="protocol"
            ).items()
        }
        for name, report in reports.items()
    }
    for name, report in reports.items():
        assert report.cache_hits == 0, name
        assert report.results == baseline.results, name
        assert report.metrics_by_key == baseline.metrics_by_key, name
        assert rollup[name] == rollup["inline"], name
