"""Abort-path progress trails: one terminal event per dispatched point.

The invariant (docs/observability.md): every point that ever emitted
``point-running`` is closed by exactly one terminal event —
``point-done`` or ``point-failed`` — before ``sweep-end``, *even when
the sweep fails*.  A distributed supervisor consuming the stream must
never be left holding an open trail.  These tests drive both local
schedulers through their failure paths and assert the invariant with
:func:`repro.obs.verify_point_trails`; the coordinator path is covered
by ``tests/integration/test_service.py``.
"""

import os
import signal
import time

import pytest

from repro.obs import read_progress, verify_point_trails
from repro.runner import SweepError, SweepPoint, run_sweep, run_sweep_elastic


def _boom(x):
    raise ValueError(f"bad point {x!r}")


def _slow_ok(x):
    time.sleep(0.3)
    return x


def _always_dies(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleeps(x):
    time.sleep(600)


def _failed_records(path):
    records = read_progress(path)
    assert records[-1]["event"] == "sweep-end"
    assert records[-1]["status"] == "failed"
    return records


def test_parallel_abort_closes_every_trail(tmp_path):
    # One fast failure plus slow points on a 2-wide pool: when the
    # failure lands, some points are mid-flight and some still queued.
    # Every point that was announced point-running must be closed
    # before the failed sweep-end; points the pool never started carry
    # no point-running at all.
    path = tmp_path / "progress.jsonl"
    points = [SweepPoint(_boom, {"x": 0})] + [
        SweepPoint(_slow_ok, {"x": i}) for i in range(1, 5)
    ]
    with pytest.raises(SweepError, match="bad point"):
        run_sweep(
            points,
            workers=2,
            use_cache=False,
            progress_out=str(path),
        )
    records = _failed_records(path)
    trails = verify_point_trails(records)
    assert trails[0] == "failed"
    running = {r["index"] for r in records if r["event"] == "point-running"}
    assert 0 in running
    assert set(trails) == running
    for index in set(range(5)) - running:
        assert not any(
            r.get("index") == index
            for r in records
            if r["event"] in ("point-running", "point-done", "point-failed")
        )


def test_parallel_every_failure_reported_not_just_first(tmp_path):
    # Two failing points: the sweep aborts on the first, but both get
    # their own point-failed (completion-order collection), and the
    # raised error names the first *failure*, whichever point that was.
    path = tmp_path / "progress.jsonl"
    points = [SweepPoint(_boom, {"x": i}) for i in range(2)]
    with pytest.raises(SweepError, match="bad point"):
        run_sweep(points, workers=2, use_cache=False, progress_out=str(path))
    records = _failed_records(path)
    trails = verify_point_trails(records)
    assert trails == {0: "failed", 1: "failed"}


def test_elastic_error_abort_closes_inflight_trails(tmp_path):
    # Point 0 raises while point 1 sleeps on the other worker: the
    # sleeper's trail must be closed (as failed/aborted) before the
    # failed sweep-end, not abandoned open.
    path = tmp_path / "progress.jsonl"
    points = [SweepPoint(_boom, {"x": 0}), SweepPoint(_sleeps, {"x": 1})]
    with pytest.raises(SweepError, match="bad point"):
        run_sweep_elastic(
            points,
            workers=2,
            use_cache=False,
            max_retries=0,
            progress_out=str(path),
        )
    records = _failed_records(path)
    trails = verify_point_trails(records)
    assert trails.get(0) == "failed"
    # The sleeper only appears if its worker had started it; when it
    # did, its trail is closed with the abort reason.
    for record in records:
        if record["event"] == "point-failed" and record["index"] == 1:
            assert "aborted" in record["error"]


def test_elastic_retry_exhaustion_closes_inflight_trails(tmp_path):
    # Point 0 burns its retry budget (SIGKILL every attempt) while
    # point 1 sleeps: exhaustion aborts the sweep and the sleeper's
    # open trail must be closed before sweep-end.
    path = tmp_path / "progress.jsonl"
    points = [
        SweepPoint(_always_dies, {"x": 0}),
        SweepPoint(_sleeps, {"x": 1}),
    ]
    with pytest.raises(SweepError, match="retr"):
        run_sweep_elastic(
            points,
            workers=2,
            use_cache=False,
            max_retries=1,
            progress_out=str(path),
        )
    records = _failed_records(path)
    trails = verify_point_trails(records)
    assert trails.get(0) == "failed"
    failed = [r for r in records if r["event"] == "point-failed"]
    assert all(r["index"] in (0, 1) for r in failed)


def test_verify_point_trails_rejects_open_trail():
    base = {"record": "progress", "sweep": "s"}
    records = [
        dict(base, event="point-running", index=0),
        dict(base, event="sweep-end", status="failed"),
    ]
    with pytest.raises(ValueError, match="no terminal event"):
        verify_point_trails(records)


def test_verify_point_trails_rejects_double_terminal():
    base = {"record": "progress", "sweep": "s"}
    records = [
        dict(base, event="point-running", index=0),
        dict(base, event="point-done", index=0),
        dict(base, event="point-failed", index=0),
        dict(base, event="sweep-end", status="ok"),
    ]
    with pytest.raises(ValueError, match="2 terminal"):
        verify_point_trails(records)


def test_verify_point_trails_requires_sweep_end():
    with pytest.raises(ValueError, match="sweep-end"):
        verify_point_trails(
            [{"record": "progress", "event": "point-running", "index": 0}]
        )
