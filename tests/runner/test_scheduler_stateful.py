"""Stateful property test of the sweep scheduler core.

Hypothesis drives one :class:`~repro.runner.scheduler.Scheduler` through
random interleavings of worker joins, dispatch, results, point errors,
worker loss, stalls, late duplicate results and clock ticks — the same
events the inline, pipe and HTTP transports feed it — with
``max_retries`` in {0, 1, 2} and one or two shards in flight per worker.
After every step it checks the invariants every transport relies on:

* the progress stream closes every trail once (``verify_point_trails``)
  and carries exactly one ``sweep-end`` once the sweep is over;
* no shard runs more than ``max_retries + 1`` times;
* the first result delivered for a shard is the one reported;
* cache keys are computed from the original kwargs only, never from
  the injected checkpoint kwargs.
"""

import io
import json
import shutil
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.obs.progress import ProgressStream, verify_point_trails
from repro.runner import SweepPoint
from repro.runner.scheduler import Scheduler

N_POINTS = 5


def _point(x, checkpoint_every=0, checkpoint_path=None):
    return x  # never called: the machine plays the workers


class _Cache:
    """A ResultCache stand-in that records every key it computes."""

    directory = "fake-cache"
    version = "v-test"

    def __init__(self, hits):
        self.hits = hits
        self.key_kwargs = []
        self.puts = {}

    def key_for(self, fn, kwargs):
        self.key_kwargs.append(dict(kwargs))
        return f"key-{kwargs['x']}"

    def get(self, key):
        x = int(key.split("-")[1])
        return (x in self.hits), ("cached", x)

    def put(self, key, value, meta=None):
        self.puts[key] = value


class SchedulerMachine(RuleBasedStateMachine):
    @initialize(
        max_retries=st.sampled_from([0, 1, 2]),
        depth=st.sampled_from([1, 2]),
        hits=st.sets(st.integers(0, N_POINTS - 1), max_size=2),
    )
    def start(self, max_retries, depth, hits):
        self.now = 0.0
        self.buffer = io.StringIO()
        self.cache = _Cache(hits)
        self.ckpt_dir = tempfile.mkdtemp(prefix="sched-prop-")
        self.max_retries = max_retries
        self.core = Scheduler(
            [SweepPoint(_point, {"x": i}) for i in range(N_POINTS)],
            label="prop",
            cache=self.cache,
            progress_out=ProgressStream(self.buffer, label="prop"),
            workers=2,
            pooled=True,
            max_retries=max_retries,
            stall_timeout=1.0,
            checkpoint_every=10,
            checkpoint_dir=self.ckpt_dir,
            clock=lambda: self.now,
        )
        self.core.depth = depth
        self.next_worker = 0
        self.next_value = 0
        #: index -> the first result delivered while it could still win.
        self.first = {}
        #: (worker, index) pairs a lost or stalled worker still owed.
        self.owed = []

    def teardown(self):
        if hasattr(self, "core"):
            self.core.abort("teardown")
            self.check_stream()
            shutil.rmtree(self.ckpt_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # helpers

    def records(self):
        return [json.loads(line) for line in self.buffer.getvalue().splitlines()]

    def busy_workers(self):
        return sorted(k for k, q in self.core.queues.items() if q)

    def deliver(self, worker, index):
        self.next_value += 1
        value = ("result", index, self.next_value)
        if self.core.status == "running" and self.core.outcomes[index] is None:
            self.first[index] = value
        self.core.result(worker, index, value, 0.01)

    def retire(self, worker):
        self.owed += [(worker, i) for i in self.core.queues.get(worker, [])]

    # ------------------------------------------------------------------
    # events

    @precondition(lambda self: len(self.core.queues) < 3)
    @rule()
    def join(self):
        self.next_worker += 1
        self.core.join(self.next_worker, 1000 + self.next_worker)

    @rule()
    def dispatch(self):
        for worker, index in self.core.dispatch():
            assert index in self.core.queues[worker]

    @precondition(lambda self: self.busy_workers())
    @rule(data=st.data())
    def result(self, data):
        worker = data.draw(st.sampled_from(self.busy_workers()))
        self.deliver(worker, self.core.queues[worker][0])

    @precondition(lambda self: self.busy_workers())
    @rule(data=st.data())
    def point_error(self, data):
        worker = data.draw(st.sampled_from(self.busy_workers()))
        index = self.core.queues[worker][0]
        self.core.point_error(worker, index, "boom")

    @precondition(lambda self: self.core.queues)
    @rule(data=st.data())
    def lose_worker(self, data):
        worker = data.draw(st.sampled_from(sorted(self.core.queues)))
        self.retire(worker)
        self.core.lost(worker)

    @rule(seconds=st.sampled_from([0.1, 0.6, 1.5]))
    def tick(self, seconds):
        # Long enough steps make every busy worker's head shard stall.
        self.now += seconds
        held = {k: list(q) for k, q in self.core.queues.items()}
        for worker in self.core.tick():
            self.owed += [(worker, i) for i in held[worker]]

    @precondition(lambda self: self.owed)
    @rule(data=st.data())
    def late_duplicate(self, data):
        worker, index = data.draw(st.sampled_from(self.owed))
        self.owed.remove((worker, index))
        self.deliver(worker, index)

    # ------------------------------------------------------------------
    # invariants

    def check_stream(self):
        records = self.records()
        events = [r["event"] for r in records]
        if self.core.status == "running":
            assert "sweep-end" not in events
            terminals = {}
            for r in records:
                if r["event"] in ("point-done", "point-failed"):
                    terminals[r["index"]] = terminals.get(r["index"], 0) + 1
            assert all(n == 1 for n in terminals.values()), terminals
        else:
            assert events.count("sweep-end") == 1
            verify_point_trails(records)
            assert records[-1]["status"] == self.core.status
        return records

    @invariant()
    def trails_close_once(self):
        self.check_stream()

    @invariant()
    def runs_within_budget(self):
        runs = {}
        for r in self.records():
            if r["event"] == "point-running":
                runs[r["index"]] = runs.get(r["index"], 0) + 1
        assert all(n <= self.max_retries + 1 for n in runs.values()), runs

    @invariant()
    def first_result_wins(self):
        for index, outcome in enumerate(self.core.outcomes):
            if outcome is not None and not outcome.cached:
                assert outcome.result == self.first[index]
                assert self.cache.puts[f"key-{index}"] == self.first[index]
        if self.core.report is not None:
            for index, outcome in enumerate(self.core.report.outcomes):
                assert outcome.cached or outcome.result == self.first[index]

    @invariant()
    def cache_keys_ignore_checkpoint_kwargs(self):
        assert all(
            set(kwargs) == {"x"} for kwargs in self.cache.key_kwargs
        )
        for index, (fn, kwargs) in self.core.tasks.items():
            assert kwargs["checkpoint_every"] == 10
            assert kwargs["checkpoint_path"] == self.core.checkpoints[index]


SchedulerMachine.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_scheduler_core = SchedulerMachine.TestCase
