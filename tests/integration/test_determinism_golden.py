"""Golden-value determinism regression for full machine runs.

The kernel fast path (tuple heap entries, handle-free posts, batched
same-cycle pops, lazy compaction) must not perturb event orderings: for
a fixed seed the machine must execute the exact same schedule.  These
goldens were captured from the pre-optimization kernel; any drift in
event count, final cycle, or the measured overheads means the ordering
contract broke.

If an *intentional* semantic change shifts these values, recapture them
with the snippet in the module docstring of ``repro.sim.kernel`` in
mind: event count and final cycle must move together and the change must
be explained in the commit.
"""

import pytest

from repro.config import MachineConfig
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.synthetic import DuboisBriggsWorkload

#: seed -> (events_processed, final_cycle, extra_commands_per_ref,
#:          commands_per_ref, traffic_per_ref)
GOLDEN = {
    1: (5294, 2937, 0.19416666666666665, 0.34500000000000003,
        1.6766666666666667),
    7: (5273, 2918, 0.22333333333333336, 0.38, 1.7808333333333333),
    1984: (5032, 2728, 0.1575, 0.28500000000000003, 1.45),
}

#: seed -> events_processed of the same runs with every broadcast copy
#: (and the INV_ACK it draws) delivered as its own event
#: (``Machine.use_per_copy_fanout``).  Every other GOLDEN field is the
#: same on both paths; only the kernel's event count differs.
PER_COPY_EVENTS = {1: 5430, 7: 5427, 1984: 5138}


def _machine(seed, instrument=False, per_copy=False):
    workload = DuboisBriggsWorkload(
        n_processors=4, q=0.20, w=0.4, private_blocks_per_proc=32, seed=seed
    )
    config = MachineConfig(n_processors=4, n_modules=2, protocol="twobit")
    machine = build_machine(config, workload)
    if per_copy:
        machine.use_per_copy_fanout()
    if instrument:
        from repro.obs import instrument_machine

        instrument_machine(machine)
    machine.run(refs_per_proc=300, warmup_refs=50)
    return machine


def _summary(machine):
    # The golden runs double as coherence regressions: a drift that keeps
    # the event count but corrupts protocol state must still fail here.
    audit_machine(machine).raise_if_failed()
    results = machine.results()
    return (
        machine.sim.events_processed,
        machine.sim.now,
        results.extra_commands_per_ref,
        results.commands_per_ref,
        results.traffic_per_ref,
    )


def _run(seed, instrument=False):
    return _summary(_machine(seed, instrument))


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_machine_run_matches_golden(seed):
    assert _run(seed) == GOLDEN[seed]


@pytest.mark.parametrize("instrument", [False, True])
@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_per_copy_twin_matches_golden_but_event_count(seed, instrument):
    # The holder-index fan-out only removes events: the per-copy twin
    # reproduces every golden field, with its own event count.
    summary = _summary(_machine(seed, instrument, per_copy=True))
    assert summary == (PER_COPY_EVENTS[seed], *GOLDEN[seed][1:])


def test_repeated_runs_are_bit_identical():
    # Same process, fresh machines: no hidden global state leaks between
    # runs (the workload stream memo must replay, not re-draw).
    assert _run(1984) == _run(1984)


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_instrumented_run_is_bit_identical_to_bare(seed):
    # Full telemetry (spans, samplers, event retention) is observation
    # only: the instrumented machine must execute the exact same event
    # schedule and produce the exact same measurements.
    assert _run(seed, instrument=True) == GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_compiled_engine_matches_golden(seed):
    # The transition-table step keeps the interpreter's event schedule
    # exactly (one table step per hit replaces one _classify; escapes
    # run _classify inside the same event), so the goldens, captured
    # from the interpreter, bind it bit-for-bit — with hits actually
    # completing on the table fast path.
    machine = _machine(seed)
    assert _summary(machine) == GOLDEN[seed]
    assert sum(p.fused_fast for p in machine.processors) > 0


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_compiled_instrumented_matches_golden(seed):
    # Telemetry spans are emitted from the table step itself: an
    # instrumented machine stays on the fast path and on the goldens.
    machine = _machine(seed, instrument=True)
    assert _summary(machine) == GOLDEN[seed]
    assert sum(p.fused_fast for p in machine.processors) > 0
