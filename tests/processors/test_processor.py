"""Processor model: budgets, blocking, counters.

Each case drives a real one-processor two-bit machine, so the
processor's transition-table step and its escapes into the cache are on
the path.
"""

from repro.config import MachineConfig
from repro.obs import instrument_machine
from repro.system.builder import build_machine
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import ScriptedWorkload


def stream_of(n, pid=0):
    return [
        MemRef(pid=pid, op=Op.WRITE if i % 2 else Op.READ, block=i % 4, shared=True)
        for i in range(n)
    ]


def machine_of(refs, budget, instrument=False):
    config = MachineConfig(
        n_processors=1, n_modules=1, n_blocks=4, cache_sets=2,
        cache_assoc=2, protocol="twobit",
    )
    machine = build_machine(config, ScriptedWorkload([refs]))
    obs = instrument_machine(machine, sample_interval=0) if instrument else None
    machine.processors[0].budget = budget
    return machine, machine.processors[0], obs


def test_budget_limits_references():
    machine, proc, _ = machine_of(stream_of(100), budget=5)
    proc.start()
    machine.sim.run()
    assert proc.completed == 5
    assert proc.drained
    assert machine.caches[0].counters["refs"] == 5


def test_stream_exhaustion_stops():
    machine, proc, _ = machine_of(stream_of(3), budget=100)
    proc.start()
    machine.sim.run()
    assert proc.completed == 3
    assert proc.exhausted and proc.drained


def test_blocking_one_reference_at_a_time():
    machine, proc, obs = machine_of(stream_of(4), budget=4, instrument=True)
    proc.start()
    machine.sim.run()
    spans = obs.spans
    assert len(spans) == 4
    # Strictly sequential: each reference issues when the previous one
    # retires.
    for before, after in zip(spans, spans[1:]):
        assert after.start == before.end
    assert machine.sim.now == spans[-1].end


def test_resume_after_budget_raise():
    machine, proc, _ = machine_of(stream_of(50), budget=2)
    proc.start()
    machine.sim.run()
    assert proc.completed == 2
    proc.budget += 3
    proc.resume()
    machine.sim.run()
    assert proc.completed == 5


def test_counters():
    # R0 W0 R0 W0: a read miss, an MREQUEST upgrade, then two hits on
    # the dirty line (table fast path).
    refs = [
        MemRef(pid=0, op=Op.WRITE if i % 2 else Op.READ, block=0, shared=True)
        for i in range(4)
    ]
    machine, proc, _ = machine_of(refs, budget=4)
    proc.start()
    machine.sim.run()
    cache = machine.caches[0].counters
    assert proc.counters["refs"] == 4
    assert proc.counters["writes"] == 2
    assert proc.counters["shared_refs"] == 4
    assert proc.counters["shared_writes"] == 2
    assert proc.counters["hits"] == 3
    assert proc.counters["shared_hits"] == 3
    assert cache["read_misses"] == 1
    assert cache["write_hits_unmodified"] == 1
    assert cache["read_hits"] == 1 and cache["write_hits"] == 1
    assert proc.fused_fast == 2
    hist = proc.latency_histogram
    assert len(hist) == 4
    assert proc.counters["latency_cycles"] == hist.mean * 4
    assert cache["latency_cycles"] == proc.counters["latency_cycles"]


def test_on_drained_callback():
    machine, proc, _ = machine_of(stream_of(1), budget=1)
    drained = []
    proc.on_drained = drained.append
    proc.start()
    machine.sim.run()
    assert drained == [proc]


def test_think_time_spaces_issues():
    machine, proc, obs = machine_of(stream_of(3), budget=3, instrument=True)
    proc.think_time = 4
    proc.start()
    machine.sim.run()
    spans = obs.spans
    assert len(spans) == 3
    for before, after in zip(spans, spans[1:]):
        assert after.start == before.end + 4
    # Each completion schedules the next issue attempt think_time later,
    # including the final one that discovers the exhausted budget.
    assert machine.sim.now == spans[-1].end + 4
