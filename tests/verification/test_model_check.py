"""The bounded model checker: exhaustion, bug detection, replay."""

from __future__ import annotations

import pytest

from repro.faults.plan import parse_faults
from repro.protocols import registry
from repro.verification.model_check import (
    DEEP_SCENARIOS,
    SMOKE_SCENARIO,
    _next_prefix,
    build_scenario_machine,
    check_protocol,
    explore,
    make_scenario,
    random_scenario,
    replay_schedule,
    scenarios_for,
)
from repro.verification.schedules import (
    StateFingerprinter,
    format_schedule,
    parse_schedule,
)


# ----------------------------------------------------------------------
# Tier 1: the acceptance configuration, every registered protocol.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", registry.protocol_names())
def test_smoke_scenario_exhausts_clean(protocol):
    """Every interleaving of the 2-proc/1-block/3-op config is coherent."""
    (result,) = check_protocol(protocol, depth="smoke")
    assert result.exhausted, f"{protocol}: exploration hit the schedule cap"
    assert result.ok, (
        f"{protocol}: {result.counterexample.render()}"
    )
    # The scenario genuinely has concurrency to explore: a single
    # schedule would mean the choice enumeration is broken.
    assert result.schedules_run > 1


def test_smoke_scenario_has_races():
    """The acceptance scenario reaches >1 decision point depth."""
    (result,) = check_protocol("twobit", depth="smoke")
    assert result.max_decisions >= 5


def test_pruning_is_sound():
    """Pruned and unpruned explorations agree on the verdict."""
    pruned = explore("twobit", SMOKE_SCENARIO, prune=True)
    full = explore("twobit", SMOKE_SCENARIO, prune=False, max_schedules=10_000)
    assert pruned.ok and full.ok
    assert pruned.exhausted and full.exhausted
    # Pruning must only ever skip work, never add it.
    assert pruned.schedules_run <= full.schedules_run


class _EveryState(set):
    """A visited set that records every fingerprint but prunes nothing."""

    def __contains__(self, fingerprint) -> bool:
        return False


def _unpruned_search(scenario, faults):
    """Run every schedule of the unpruned search, each must pass; returns
    the schedule count and the distinct fingerprints at decision points.

    Each replay fingerprints the decision points past its prefix, so
    together the replays cover the whole tree."""
    states = _EveryState()
    prefix = []
    schedules = 0
    while True:
        outcome = replay_schedule(
            build_scenario_machine("twobit", scenario, faults=faults),
            scenario,
            prefix,
            visited=states,
        )
        schedules += 1
        assert not outcome.failed, outcome.detail
        prefix = _next_prefix(outcome.decisions)
        if prefix is None:
            return schedules, states


@pytest.mark.parametrize(
    "scenario, fault_plan, unpruned_schedules",
    [
        (SMOKE_SCENARIO, None, 360),
        (DEEP_SCENARIOS[1], None, 1152),  # 2p2b
        (SMOKE_SCENARIO, "check", 108),
        (DEEP_SCENARIOS[1], "check", 192),
    ],
    ids=["smoke", "2p2b", "smoke-check", "2p2b-check"],
)
def test_pruned_search_visits_every_reachable_state(
    scenario, fault_plan, unpruned_schedules
):
    """Pruning is sound: every schedule of the unpruned search passes,
    as the pruned search does, and the pruned search still visits every
    state the unpruned search reaches at a decision point — merging two
    states never hid a third."""
    faults = parse_faults(fault_plan) if fault_plan else None
    pruned = explore("twobit", scenario, faults=faults)
    assert pruned.ok and pruned.exhausted
    schedules, states = _unpruned_search(scenario, faults)
    assert schedules == unpruned_schedules
    assert pruned.states_seen == len(states)


# ----------------------------------------------------------------------
# Fault injection: the checker must catch deliberately broken protocols.
# ----------------------------------------------------------------------
def _stale_read_bug(machine):
    """BROADINV handled (acks sent, races converted) but the line itself
    is never reset — the classic "forgot to actually invalidate" bug."""
    for cache in machine.caches:
        orig = cache._on_invalidate

        def buggy(message, cache=cache, orig=orig):
            line = cache.array.lookup(message.block)
            if line is not None and message.requester != cache.pid:
                line.reset = lambda: None
                try:
                    orig(message)
                finally:
                    del line.reset
            else:
                orig(message)

        cache._on_invalidate = buggy


def _dropped_invalidation_bug(machine):
    """Victim caches silently drop BROADINV (no INV_ACK): the
    controller's invalidation round can never complete."""
    for cache in machine.caches:
        cache._on_invalidate = lambda message: None


def test_injected_stale_read_is_caught():
    scenario = DEEP_SCENARIOS[1]  # 2p2b: reads follow the invalidation
    result = explore("twobit", scenario, mutate=_stale_read_bug)
    counter = result.counterexample
    assert counter is not None, "stale-read bug was not caught"
    assert counter.status == "violation"
    assert "requires" in counter.detail
    rendered = counter.render()
    assert "schedule:" in rendered and "reproduce:" in rendered
    assert counter.trace, "counterexample must carry a trace"
    # The minimized schedule must still reproduce the failure.
    machine = build_scenario_machine("twobit", scenario)
    _stale_read_bug(machine)
    outcome = replay_schedule(machine, scenario, counter.schedule)
    assert outcome.status == "violation"


def test_counterexample_exports_replay_trace(tmp_path):
    """The minimized schedule replays under instrumentation, so every
    counterexample carries a Perfetto-loadable trace of the failure."""
    import json

    result = explore("twobit", DEEP_SCENARIOS[1], mutate=_stale_read_bug)
    counter = result.counterexample
    assert counter.trace_events, "minimized replay produced no trace"
    names = {e["name"] for e in counter.trace_events if e.get("ph") == "M"}
    assert "thread_name" in names
    path = tmp_path / "counterexample.json"
    counter.write_chrome_trace(path)
    loaded = json.loads(path.read_text())
    assert loaded["traceEvents"] == counter.trace_events
    other = loaded["otherData"]
    assert other["status"] == "violation"
    assert other["schedule"] == format_schedule(counter.schedule)


def test_injected_dropped_invalidation_deadlocks():
    result = explore("twobit", SMOKE_SCENARIO, mutate=_dropped_invalidation_bug)
    counter = result.counterexample
    assert counter is not None, "dropped-invalidation bug was not caught"
    assert counter.status == "deadlock"
    assert "still have work" in counter.detail


@pytest.mark.parametrize(
    "bug, scenario, status, schedule, detail, explored",
    [
        (
            _stale_read_bug,
            DEEP_SCENARIOS[1],
            "violation",
            [0] * 10,
            "P1 read block 1 -> v2 (issued t=80, requires >= v3)",
            (1, 10),
        ),
        (
            _dropped_invalidation_bug,
            SMOKE_SCENARIO,
            "deadlock",
            [0] * 4,
            "no enabled events but ['P0', 'P1'] still have work",
            (1, 4),
        ),
    ],
    ids=["stale-read", "dropped-invalidation"],
)
def test_injected_bug_counterexamples_are_pinned(
    bug, scenario, status, schedule, detail, explored
):
    """What the checker reports for each bug injector: the minimized
    schedule, the failure, and the search it took to find it."""
    result = explore("twobit", scenario, mutate=bug)
    counter = result.counterexample
    assert (counter.status, counter.schedule, counter.detail) == (
        status,
        schedule,
        detail,
    )
    assert (result.schedules_run, result.states_seen) == explored


def test_counterexample_is_printed(capsys):
    """The regression contract: a failing check prints the schedule."""
    result = explore(
        "twobit", DEEP_SCENARIOS[1], mutate=_stale_read_bug
    )
    print(result.counterexample.render())
    out = capsys.readouterr().out
    assert "counterexample: violation" in out
    assert "schedule:" in out
    assert "repro check" in out


# ----------------------------------------------------------------------
# Replay and schedule round-tripping.
# ----------------------------------------------------------------------
def test_replay_is_deterministic():
    scenario = SMOKE_SCENARIO
    first = replay_schedule(
        build_scenario_machine("twobit", scenario), scenario, [0, 1]
    )
    second = replay_schedule(
        build_scenario_machine("twobit", scenario), scenario, [0, 1]
    )
    assert first.status == second.status == "ok"
    assert first.decisions == second.decisions
    assert first.steps == second.steps


def test_replay_rejects_out_of_range_choice():
    scenario = SMOKE_SCENARIO
    with pytest.raises(ValueError, match="schedule mismatch"):
        replay_schedule(
            build_scenario_machine("twobit", scenario), scenario, [99]
        )


def test_schedule_format_round_trip():
    assert parse_schedule(format_schedule([0, 2, 1])) == [0, 2, 1]
    assert parse_schedule(format_schedule([])) == []
    assert format_schedule([]) == "-"
    with pytest.raises(ValueError):
        parse_schedule("0,x")
    with pytest.raises(ValueError):
        parse_schedule("0,-1")


def test_fingerprint_stable_across_fresh_builds():
    one = StateFingerprinter(
        build_scenario_machine("twobit", SMOKE_SCENARIO)
    ).fingerprint()
    two = StateFingerprinter(
        build_scenario_machine("twobit", SMOKE_SCENARIO)
    ).fingerprint()
    assert one == two
    assert hash(one) == hash(two)


def test_fingerprint_differs_after_a_step():
    machine = build_scenario_machine("twobit", SMOKE_SCENARIO)
    fingerprinter = StateFingerprinter(machine)
    before = fingerprinter.fingerprint()
    for proc, script in zip(machine.processors, SMOKE_SCENARIO.scripts):
        proc.budget = len(script)
        proc.resume()
    machine.sim.step_select(0)
    assert fingerprinter.fingerprint() != before


def test_random_scenario_is_seed_stable():
    assert random_scenario(7) == random_scenario(7)
    assert random_scenario(7) != random_scenario(8)


def test_scenarios_for_rejects_unknown_depth():
    with pytest.raises(ValueError, match="unknown depth"):
        scenarios_for("bogus")


def test_make_scenario_parses_scripts():
    scenario = make_scenario("t", "R0 W1", "W0")
    assert scenario.n_processors == 2
    assert scenario.n_blocks == 2
    assert [r.is_write for r in scenario.scripts[0]] == [False, True]


# ----------------------------------------------------------------------
# The §3.2.5 MREQ_CANCEL late race: the scripted scenario must actually
# reach the race, not just pass vacuously.
# ----------------------------------------------------------------------
def test_mreq_cancel_late_scenario_exercises_the_race():
    """Exhaust the cancel-late scenario and prove the cancel hierarchy
    fires: the loser's stale MREQUEST is caught queued (engine scrub),
    at dispatch (marker), and while active (`cancelled` flag).  A zero
    count would mean the scenario's timing window closed and the race
    code is no longer being model-checked."""
    from collections import Counter

    scenario = next(s for s in DEEP_SCENARIOS if s.name == "mreq-cancel-late")
    machines = []
    result = explore("twobit", scenario, mutate=machines.append)
    assert result.exhausted and result.ok, (
        result.counterexample.render() if result.counterexample else "cap hit"
    )
    totals = Counter()
    for machine in machines:
        for name, value in machine.registry.merged().snapshot().items():
            totals[name] += value
    assert totals["mrequests_cancelled"] > 0  # scrubbed while queued
    assert totals["mrequests_cancelled_at_dispatch"] > 0
    assert totals["mrequests_cancelled_active"] > 0
    # The race exists at all only because the winner's BROADINV caught
    # the loser with a pending MREQUEST (the §3.2.5 conversion).
    assert totals["mreq_converted_to_miss"] > 0


# ----------------------------------------------------------------------
# The state space is a property of the protocol, not of the processor's
# bookkeeping: the table fast path's batched statistics and cached
# aliases must not split states.  Pinned per deep twobit scenario.
# ----------------------------------------------------------------------
DEEP_TWOBIT_COUNTS = {
    "smoke-2p1b": (26, 25),
    "2p2b": (36, 35),
    "3p1b": (1321, 953),
    "evict-1frame": (176, 138),
    "mreq-cancel-late": (262, 192),
}


def test_deep_twobit_schedule_and_state_counts_are_pinned():
    results = check_protocol("twobit", depth="deep")
    counts = {r.scenario: (r.schedules_run, r.states_seen) for r in results}
    assert counts == DEEP_TWOBIT_COUNTS
    assert all(r.exhausted and r.ok for r in results)


DEEP_FULLMAP_COUNTS = {
    "smoke-2p1b": (26, 25),
    "2p2b": (50, 49),
    "3p1b": (919, 659),
    "evict-1frame": (183, 141),
    "mreq-cancel-late": (278, 196),
}


def test_deep_fullmap_schedule_and_state_counts_are_pinned():
    results = check_protocol("fullmap", depth="deep")
    counts = {r.scenario: (r.schedules_run, r.states_seen) for r in results}
    assert counts == DEEP_FULLMAP_COUNTS
    assert all(r.exhausted and r.ok for r in results)


#: The two-bit protocol under the ``light`` fault plan (seed 1), on the
#: deep scenarios but the three-processor one.
FAULTED_TWOBIT_COUNTS = {
    "smoke-2p1b": (40, 39),
    "2p2b": (20, 19),
    "evict-1frame": (60, 59),
    "mreq-cancel-late": (102, 84),
}


def test_faulted_twobit_schedule_and_state_counts_are_pinned():
    scenarios = [s for s in DEEP_SCENARIOS if s.name in FAULTED_TWOBIT_COUNTS]
    results = check_protocol(
        "twobit", scenarios=scenarios, faults=parse_faults("light,seed=1")
    )
    counts = {r.scenario: (r.schedules_run, r.states_seen) for r in results}
    assert counts == FAULTED_TWOBIT_COUNTS
    assert all(r.exhausted and r.ok for r in results)


# ----------------------------------------------------------------------
# What the fingerprint leaves out: exactly these (class, attribute)
# pairs, each listed with its reason in schedules._SKIP_FIELDS.
# ----------------------------------------------------------------------
def _pairs(cls, *attrs):
    return [(cls, attr) for attr in attrs]


_DROPPED_SHARED = [
    *_pairs("CacheArray", "_clock"),
    *_pairs("CoherenceOracle", "reads_checked", "writes_committed"),
    *_pairs(
        "DirectoryCacheController",
        "_deliver_table", "config", "counters", "home_fn", "sim",
    ),
    *_pairs("MemoryModule", "counters", "sim"),
    *_pairs("Message", "uid"),
    *_pairs(
        "PointToPointNetwork",
        "_deliver_fns", "_endpoints", "_member_bits", "counters", "sim",
    ),
    *_pairs(
        "Processor",
        "_acc", "_array", "_cpend", "_has_op_flag", "_hpend", "_kernel",
        "_lookup_phase", "_lru_touch", "_oracle", "_pre_shared_escape",
        "_r_clean", "_r_dirty", "_replayable", "_w_clean", "_w_dirty",
        "counters", "exhausted", "fused_fast", "latency_histogram",
        "on_drained", "sim", "stream",
    ),
    *_pairs(
        "TransactionEngine", "_start_fn", "max_concurrency", "max_queue_depth"
    ),
]
_DROPPED_TWOBIT = [
    *_DROPPED_SHARED,
    *_pairs("TranslationBuffer", "hits", "misses"),
    *_pairs(
        "TwoBitDirectory",
        "_clock", "_since", "_time_in", "observer", "transitions",
    ),
    *_pairs(
        "TwoBitDirectoryController", "_deliver_table", "config", "counters",
        "holders", "sim",
    ),
]
DROPPED_FIELDS = {
    "twobit": sorted(_DROPPED_TWOBIT),
    "fullmap": sorted(
        _DROPPED_SHARED
        + _pairs("FullMapDirectoryController", "config", "counters", "sim")
    ),
    "faulted": sorted(
        _DROPPED_TWOBIT + _pairs("FaultInjector", "counters", "sim")
    ),
}


@pytest.mark.parametrize("leg", sorted(DROPPED_FIELDS))
def test_fingerprint_drops_exactly_the_listed_fields(leg):
    protocol = "fullmap" if leg == "fullmap" else "twobit"
    faults = parse_faults("check") if leg == "faulted" else None
    scenario = DEEP_SCENARIOS[1]
    machine = build_scenario_machine(protocol, scenario, faults=faults)
    fingerprinter = StateFingerprinter(machine)
    for proc, script in zip(machine.processors, scenario.scripts):
        proc.budget = len(script)
        proc.resume()
    while machine.sim.enabled():
        fingerprinter.fingerprint()
        machine.sim.step_select(0)
    assert fingerprinter.dropped_fields() == DROPPED_FIELDS[leg]


def test_model_check_result_records_elapsed_time():
    (result,) = check_protocol("twobit", depth="smoke")
    assert result.elapsed_s > 0


# ----------------------------------------------------------------------
# Slow tier: the full deep matrix (nightly CI).
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("protocol", registry.protocol_names())
def test_deep_scenarios_exhaust_clean(protocol):
    results = check_protocol(protocol, depth="deep", max_schedules=100_000)
    for result in results:
        assert result.exhausted, (
            f"{protocol}/{result.scenario}: hit the schedule cap"
        )
        assert result.ok, (
            f"{protocol}/{result.scenario}:\n"
            f"{result.counterexample.render()}"
        )
