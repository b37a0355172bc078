"""Simulation kernel: ordering, cancellation, run bounds."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5, order.append, "late")
    sim.schedule(1, order.append, "early")
    sim.schedule(3, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]
    assert sim.now == 5


def test_ties_break_by_schedule_order():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.schedule(2, order.append, tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_schedule_relative_and_absolute_agree():
    sim = Simulator()
    seen = []
    sim.at(7, seen.append, "abs")
    sim.schedule(7, seen.append, "rel")
    sim.run()
    assert seen == ["abs", "rel"]
    assert sim.now == 7


def test_events_can_schedule_more_events():
    sim = Simulator()
    hits = []

    def chain(depth):
        hits.append(depth)
        if depth < 3:
            sim.schedule(1, chain, depth + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert hits == [0, 1, 2, 3]
    assert sim.now == 3


def test_cancelled_events_do_not_run():
    sim = Simulator()
    hits = []
    event = sim.schedule(1, hits.append, "no")
    sim.schedule(1, hits.append, "yes")
    event.cancel()
    sim.run()
    assert hits == ["yes"]


def test_run_until_stops_the_clock():
    sim = Simulator()
    hits = []
    sim.schedule(2, hits.append, "in")
    sim.schedule(10, hits.append, "out")
    sim.run(until=5)
    assert hits == ["in"]
    assert sim.now == 5
    sim.run()
    assert hits == ["in", "out"]


def test_run_until_advances_clock_with_empty_queue():
    sim = Simulator()
    sim.run(until=42)
    assert sim.now == 42


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_scheduling_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(3, lambda: None)


def test_max_events_guard_catches_livelock():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError, match="livelock"):
        sim.run(max_events=50)


def test_max_events_bound_is_inclusive():
    # Exactly max_events events is allowed; one more trips the guard.
    sim = Simulator()
    hits = []
    for i in range(5):
        sim.schedule(i, hits.append, i)
    sim.run(max_events=5)
    assert hits == [0, 1, 2, 3, 4]

    sim = Simulator()
    hits = []
    for i in range(6):
        sim.schedule(i, hits.append, i)
    with pytest.raises(SimulationError, match="max_events=5"):
        sim.run(max_events=5)
    assert hits == [0, 1, 2, 3, 4]  # the 6th never ran


def test_max_events_inclusive_within_one_cycle():
    # The same-cycle batched pop path honours the inclusive bound too.
    sim = Simulator()
    hits = []
    for i in range(6):
        sim.schedule(1, hits.append, i)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=5)
    assert hits == [0, 1, 2, 3, 4]


def test_post_orders_like_schedule():
    # Handle-free entries interleave with handled ones in submission order.
    sim = Simulator()
    order = []
    sim.schedule(2, order.append, "a")
    sim.post(2, order.append, "b")
    sim.post_at(2, order.append, "c")
    sim.schedule(2, order.append, "d")
    sim.run()
    assert order == ["a", "b", "c", "d"]
    assert sim.events_processed == 4


def test_post_rejects_past_times():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post(-1, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_at(3, lambda: None)


def test_heap_compaction_preserves_order_and_counts():
    # Cancel enough events to trigger the lazy compaction, then check the
    # survivors still run in order and the live count stays exact.
    sim = Simulator()
    order = []
    keep = [sim.schedule(2 * i + 1, order.append, i) for i in range(100)]
    drop = [sim.schedule(2 * i, lambda: order.append("x")) for i in range(300)]
    for event in drop:
        event.cancel()
    assert sim.pending == 100
    sim.run()
    assert order == list(range(100))
    assert sim.events_processed == 100


def test_compaction_inside_callback_keeps_run_alive():
    # Regression: _compact() used to rebind self._queue to a new list,
    # so when a callback cancelled enough events to trigger compaction
    # mid-run, run() kept draining its stale alias — events scheduled
    # after the compaction silently never executed, and popping the stale
    # list's cancelled entries drove the cancelled count negative.
    sim = Simulator()
    order = []
    victims = [sim.schedule(10, order.append, "victim") for _ in range(200)]

    def massacre():
        for event in victims:
            event.cancel()  # crosses the compaction threshold mid-run
        sim.schedule(1, order.append, "survivor")

    sim.schedule(0, massacre)
    sim.run()
    assert order == ["survivor"]
    assert sim.pending == 0
    assert sim._cancelled == 0
    assert sim.drain_check()


def test_step_executes_one_event():
    sim = Simulator()
    hits = []
    sim.schedule(1, hits.append, 1)
    sim.schedule(2, hits.append, 2)
    assert sim.step() is True
    assert hits == [1]
    assert sim.step() is True
    assert sim.step() is False
    assert hits == [1, 2]


def test_pending_counts_live_events_only():
    sim = Simulator()
    keep = sim.schedule(1, lambda: None)
    drop = sim.schedule(2, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    assert not sim.drain_check()
    sim.run()
    assert sim.drain_check()


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0, reenter)
    sim.run()
    assert len(errors) == 1


# ----------------------------------------------------------------------
# Model-checking choice API: enabled() / step_select()
# ----------------------------------------------------------------------
def test_enabled_lists_same_cycle_events_in_pop_order():
    sim = Simulator()
    order = []
    sim.schedule(2, order.append, "a")
    sim.schedule(2, order.append, "b")
    sim.schedule(5, order.append, "later")
    entries = sim.enabled()
    assert [e[5][0] for e in entries] == ["a", "b"]  # due events only
    assert order == []  # enabled() never executes anything


def test_step_select_zero_matches_step():
    def build():
        sim = Simulator()
        order = []
        for tag in ("a", "b", "c"):
            sim.schedule(1, order.append, tag)
        return sim, order

    stepped, order_step = build()
    stepped.step()
    selected, order_sel = build()
    selected.step_select(0)
    assert order_step == order_sel == ["a"]
    assert stepped.now == selected.now


def test_step_select_reorders_ties():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.schedule(1, order.append, tag)
    sim.step_select(2)
    sim.step_select(0)
    sim.step_select(0)
    assert order == ["c", "a", "b"]
    assert not sim.enabled()


def test_step_select_reuses_the_callers_enabled_entries():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.schedule(1, order.append, tag)
    while True:
        entries = sim.enabled()
        if not entries:
            break
        sim.step_select(len(entries) - 1, entries)
    assert order == ["c", "b", "a"]


def test_step_select_rejects_out_of_range():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    with pytest.raises(SimulationError, match="step_select"):
        sim.step_select(1)


def test_enabled_skips_cancelled_events():
    sim = Simulator()
    order = []
    keep = sim.schedule(3, order.append, "keep")  # noqa: F841
    drop = sim.schedule(3, order.append, "drop")
    drop.cancel()
    entries = sim.enabled()
    assert [e[5][0] for e in entries] == ["keep"]
    sim.step_select(0)
    assert order == ["keep"]


def test_enabled_empty_when_drained():
    sim = Simulator()
    assert sim.enabled() == []
