"""Per-protocol golden runs of the table-driven processor.

Each golden pins one machine run exactly: event count, final cycle, the
merged counter snapshot and the per-reference latency histogram.  The
values in ``golden/protocol_runs.json`` were captured from the
reference interpreter (one ``Cache._classify`` event per reference),
so they bind the table engine to the semantics it replaced: a fast
path that skipped an event, drew a tie-break in a different order or
miscounted a hit would move them.

Legs:

* ``bare`` — every registry protocol, fault-free;
* ``instrumented`` — the same runs with telemetry and a trace recorder
  attached; the span latency and phase histograms are pinned too;
* ``check`` — every fault-capable protocol under the ``check`` plan;
* ``tie_seed`` — a randomized same-cycle tie-break.

Every leg must also complete references on the table fast path.  A
deliberate semantic change that moves these values is re-recorded from
``run_leg`` in its own commit, with the reason in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import MachineConfig
from repro.faults import FAULT_PROTOCOLS, attach_faults, parse_faults
from repro.protocols import registry
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.synthetic import DuboisBriggsWorkload

GOLDEN_PATH = Path(__file__).parent / "golden" / "protocol_runs.json"

ALL_PROTOCOLS = sorted(registry.protocol_names())


def _hist(histogram):
    return [list(item) for item in histogram.items()]


def run_leg(leg, protocol, per_copy=False):
    """Build, run and summarize one golden machine run (``per_copy``
    delivers every broadcast copy as its own event)."""
    workload = DuboisBriggsWorkload(
        n_processors=3, q=0.2, w=0.4, private_blocks_per_proc=16, seed=11
    )
    config = MachineConfig(
        n_processors=3,
        n_modules=2,
        n_blocks=workload.n_blocks,
        cache_sets=4,
        cache_assoc=2,
        protocol=protocol,
        network=registry.resolve(protocol).default_network(),
        tie_seed=5 if leg == "tie_seed" else None,
    )
    machine = build_machine(config, workload)
    if per_copy:
        machine.use_per_copy_fanout()
    obs = recorder = None
    if leg == "instrumented":
        from repro.obs import instrument_machine
        from repro.workloads.recorder import attach_recorder

        obs = instrument_machine(machine, sample_interval=50)
        recorder = attach_recorder(machine)
    if leg == "check":
        attach_faults(machine, parse_faults("check"))
        # The check plan gives up after two NAKed retries, a bound sized
        # for short runs: over thousands of admissions three back-to-back
        # stalls on one command become a legitimate structured give-up.
        machine.run(refs_per_proc=60, warmup_refs=20)
    else:
        machine.run(refs_per_proc=200, warmup_refs=40)
    audit_machine(machine).raise_if_failed()
    summary = {
        "events": machine.sim.events_processed,
        "cycles": machine.sim.now,
        "counters": machine.registry.merged().snapshot(),
        "latency": _hist(machine.latency_histogram()),
    }
    if obs is not None:
        summary["spans"] = {
            "latency": {k: _hist(h) for k, h in sorted(obs.latency.items())},
            "phases": {k: _hist(h) for k, h in sorted(obs.phases.items())},
        }
        trace = "".join(f"{r.pid}{r.op.name[0]}{r.block};" for r in recorder.refs)
        summary["recorded"] = hashlib.sha256(trace.encode()).hexdigest()
    return machine, json.loads(json.dumps(summary, sort_keys=True))


LEGS = (
    [("bare", p) for p in ALL_PROTOCOLS]
    + [("instrumented", p) for p in ALL_PROTOCOLS]
    + [("check", p) for p in FAULT_PROTOCOLS]
    + [("tie_seed", "twobit")]
)


#: Event counts of the fault-free legs on the per-copy path, where they
#: differ from the golden (holder-index) count; every other field is
#: the same on both paths.
PER_COPY_EVENTS = {"bare/twobit": 6276, "instrumented/twobit": 6276}

TWIN_LEGS = [(leg, p) for leg, p in LEGS if leg in ("bare", "instrumented")]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_leg(golden):
    assert sorted(golden) == sorted(f"{leg}/{p}" for leg, p in LEGS)


@pytest.mark.parametrize(
    "leg,protocol", LEGS, ids=[f"{leg}-{p}" for leg, p in LEGS]
)
def test_protocol_run_matches_golden(leg, protocol, golden):
    machine, summary = run_leg(leg, protocol)
    expected = golden[f"{leg}/{protocol}"]
    for key in sorted(expected):
        assert summary[key] == expected[key], f"{leg}/{protocol}: {key} drifted"
    assert sum(p.fused_fast for p in machine.processors) > 0



@pytest.mark.parametrize(
    "leg,protocol", TWIN_LEGS, ids=[f"{leg}-{p}" for leg, p in TWIN_LEGS]
)
def test_per_copy_twin_matches_golden_but_event_count(leg, protocol, golden):
    _, summary = run_leg(leg, protocol, per_copy=True)
    expected = dict(golden[f"{leg}/{protocol}"])
    key = f"{leg}/{protocol}"
    expected["events"] = PER_COPY_EVENTS.get(key, expected["events"])
    for name in sorted(expected):
        assert summary[name] == expected[name], f"per-copy {key}: {name}"
