"""Counter sets and the registry."""

import pickle

from repro.stats.counters import CounterRegistry, CounterSet, RoundTally


def test_counters_start_at_zero():
    counters = CounterSet("x")
    assert counters.get("anything") == 0.0
    assert "anything" not in counters


def test_add_and_get():
    counters = CounterSet("x")
    counters.add("hits")
    counters.add("hits", 2)
    assert counters["hits"] == 3.0
    assert "hits" in counters


def test_set_overwrites():
    counters = CounterSet("x")
    counters.add("v", 5)
    counters.set("v", 1)
    assert counters.get("v") == 1.0


def test_names_sorted_and_items():
    counters = CounterSet("x")
    counters.add("b")
    counters.add("a")
    assert counters.names() == ["a", "b"]
    assert list(counters.items()) == [("a", 1.0), ("b", 1.0)]


def test_snapshot_is_a_copy():
    counters = CounterSet("x")
    counters.add("v")
    snap = counters.snapshot()
    counters.add("v")
    assert snap == {"v": 1.0}


def test_reset_clears_everything():
    counters = CounterSet("x")
    counters.add("v", 7)
    counters.reset()
    assert counters.get("v") == 0.0
    assert counters.names() == []


def test_merge_adds_counterwise():
    a = CounterSet("a")
    b = CounterSet("b")
    a.add("v", 1)
    b.add("v", 2)
    b.add("w", 3)
    a.merge(b)
    assert a["v"] == 3.0 and a["w"] == 3.0


def test_round_tally_charges_every_member_but_the_exempt():
    sets = [CounterSet(f"c{i}") for i in range(4)]
    tally = RoundTally(("snoop_commands", "snoop_useless"), sets)
    sets[1].add("snoop_commands")
    tally.charge([sets[0], sets[1]])
    tally.charge([sets[0]])
    assert "snoop_commands" not in sets[0]
    assert sets[1].snapshot() == {"snoop_commands": 2.0, "snoop_useless": 1.0}
    assert sets[2].get("snoop_useless") == 2.0
    assert list(sets[3].items()) == [
        ("snoop_commands", 2.0), ("snoop_useless", 2.0),
    ]
    total = CounterRegistry()
    for counters in sets:
        total.register(counters)
    assert total.total("snoop_useless") == 5.0


def test_round_tally_rounds_before_a_reset_are_dropped():
    sets = [CounterSet("a"), CounterSet("b")]
    tally = RoundTally(("snoop_useless",), sets)
    tally.charge([sets[0]])
    sets[1].reset()
    tally.charge([])
    assert sets[0].get("snoop_useless") == 1.0
    assert sets[1].get("snoop_useless") == 1.0


def test_round_tally_survives_a_pickle_round_trip():
    sets = [CounterSet("a"), CounterSet("b")]
    tally = RoundTally(("snoop_useless",), sets)
    tally.charge([sets[0]])
    a, b = pickle.loads(pickle.dumps(sets))
    assert a.tally is b.tally
    a.tally.charge([b])
    assert (a.get("snoop_useless"), b.get("snoop_useless")) == (1.0, 1.0)


def test_registry_total_and_by_owner():
    registry = CounterRegistry()
    a, b = CounterSet("a"), CounterSet("b")
    registry.register(a)
    registry.register(b)
    a.add("refs", 2)
    b.add("refs", 3)
    assert registry.total("refs") == 5.0
    assert registry.by_owner("refs") == {"a": 2.0, "b": 3.0}


def test_registry_by_owner_skips_absent():
    registry = CounterRegistry()
    a, b = CounterSet("a"), CounterSet("b")
    registry.register(a)
    registry.register(b)
    a.add("only_a")
    assert registry.by_owner("only_a") == {"a": 1.0}


def test_registry_aggregate_and_reset_all():
    registry = CounterRegistry()
    a, b = CounterSet("a"), CounterSet("b")
    registry.register(a)
    registry.register(b)
    a.add("v", 1)
    b.add("v", 4)
    assert registry.aggregate()["v"] == 5.0
    registry.reset_all()
    assert registry.total("v") == 0.0


def test_registry_merged_is_canonical_aggregation():
    registry = CounterRegistry()
    a, b = CounterSet("a"), CounterSet("b")
    registry.register(a)
    registry.register(b)
    a.add("v", 2)
    b.add("v", 3)
    b.add("w", 1)
    merged = registry.merged()
    assert merged["v"] == 5.0 and merged["w"] == 1.0
    # aggregate() is an alias kept for back-compat.
    assert registry.aggregate().snapshot() == merged.snapshot()


def test_registry_report():
    registry = CounterRegistry()
    a, b = CounterSet("a"), CounterSet("b")
    registry.register(a)
    registry.register(b)
    a.add("refs", 10)
    b.add("refs", 20)
    a.add("hits", 7)
    text = registry.report()
    assert "counter totals" in text
    assert "refs" in text and "30" in text
    assert "hits" in text and "7" in text
    detailed = registry.report(per_owner=True)
    assert "a=10" in detailed and "b=20" in detailed


def test_registry_report_empty():
    assert "(no counters recorded)" in CounterRegistry().report()
