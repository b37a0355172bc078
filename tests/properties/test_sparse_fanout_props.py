"""Properties of the holder-index broadcast fan-out.

Three invariants, over random streams, protocols, options, machine
sizes, and networks:

1. **Superset soundness** — at quiescence the copy-holder index contains
   every cache holding a valid line.  The index may carry stale extras
   (silent evictions self-clean lazily); it must never *miss* a holder,
   because a missed holder would get no copy of a broadcast round and
   keep a stale copy forever.

2. **Per-copy equivalence** — a machine whose broadcasts reach only copy
   holders and its per-copy twin (``Machine.use_per_copy_fanout``)
   produce byte-identical behavioural fingerprints: same cache lines,
   directory state, memory contents, final simulated time, and every
   counter.

3. **Work suppressed** — under sharing the index path really skips
   deliveries (fewer kernel events for the two-bit directory, fewer
   invalidation-line calls for the write-through schemes) while the
   fingerprint stays the per-copy twin's.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig, ProtocolOptions
from repro.interconnect.holders import mask_pids
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.verification.fingerprint import machine_fingerprint, machine_parts
from repro.workloads.synthetic import UniformWorkload
from tests.conftest import count_line_calls

#: Protocols whose broadcasts (or invalidation line) consult the index.
INDEX_PROTOCOLS = ("twobit", "twobit_wt", "classical")

#: Option sets drawn by the properties: the defaults and single flips.
OPTIONS = (
    {},
    {"invalidation_acks": False},
    {"duplicate_directory": True},
    {"serialization": "global"},
    {"keep_present1": False},
    {"owner_invalidates_on_read_query": True},
    {"translation_buffer_entries": 4},
)


def _build_and_run(protocol, network, n, seed, write_frac, per_copy,
                   options=None):
    workload = UniformWorkload(
        n_processors=n, n_blocks=16, write_frac=write_frac, seed=seed
    )
    config = MachineConfig(
        n_processors=n,
        n_modules=2,
        n_blocks=16,
        cache_sets=2,
        cache_assoc=2,
        protocol=protocol,
        network=network,
        options=ProtocolOptions(**(options or {})),
    )
    machine = build_machine(config, workload)
    if per_copy:
        machine.use_per_copy_fanout()
    machine.run(refs_per_proc=150)
    return machine


@given(
    protocol=st.sampled_from(INDEX_PROTOCOLS),
    network=st.sampled_from(("xbar", "delta")),
    n=st.sampled_from((2, 4, 8)),
    seed=st.integers(min_value=0, max_value=2**16),
    write_frac=st.floats(min_value=0.1, max_value=0.9),
    options=st.sampled_from(OPTIONS),
)
@settings(max_examples=20, deadline=None)
def test_holder_index_is_superset_of_valid_lines(
    protocol, network, n, seed, write_frac, options
):
    machine = _build_and_run(
        protocol, network, n, seed, write_frac, False, options
    )
    audit_machine(machine).raise_if_failed()
    indexes = [
        holders
        for ctrl in machine.controllers
        if (holders := getattr(ctrl, "holders", None)) is not None
    ]
    assert indexes, f"{protocol}: no copy-holder index wired"
    for block in range(machine.config.n_blocks):
        actual = {
            cache.pid
            for cache in machine.caches
            if getattr(cache, "array", None) is not None
            and cache.array.lookup(block) is not None
        }
        members = set()
        for holders in indexes:
            members.update(mask_pids(holders.mask(block)))
        assert actual <= members, (
            f"{protocol}/{network} n={n}: block {block} cached at "
            f"{sorted(actual)} but index only has {sorted(members)}"
        )


@given(
    protocol=st.sampled_from(INDEX_PROTOCOLS),
    network=st.sampled_from(("xbar", "delta")),
    n=st.sampled_from((2, 3, 4, 8)),
    seed=st.integers(min_value=0, max_value=2**16),
    write_frac=st.floats(min_value=0.1, max_value=0.9),
    options=st.sampled_from(OPTIONS),
)
@settings(max_examples=15, deadline=None)
def test_sparse_and_dense_twins_fingerprint_identically(
    protocol, network, n, seed, write_frac, options
):
    index = _build_and_run(protocol, network, n, seed, write_frac, False, options)
    per_copy = _build_and_run(protocol, network, n, seed, write_frac, True, options)
    audit_machine(index).raise_if_failed()
    audit_machine(per_copy).raise_if_failed()
    if machine_fingerprint(index) != machine_fingerprint(per_copy):
        # Diff the structured parts so the failure names the component.
        for a, b in zip(machine_parts(index), machine_parts(per_copy)):
            assert a == b, f"{protocol}/{network} n={n} diverged: {a[:2]}"
        raise AssertionError("fingerprints differ but parts compare equal")
    assert index.results() == per_copy.results()


@given(
    protocol=st.sampled_from(INDEX_PROTOCOLS),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None)
def test_sparse_twin_suppresses_fanout_without_changing_counters(
    protocol, seed
):
    """The index path must actually skip work while the per-copy twin's
    counters and state stay exactly equal."""
    machines = []
    calls = []
    for per_copy in (False, True):
        workload = UniformWorkload(
            n_processors=8, n_blocks=16, write_frac=0.5, seed=seed
        )
        config = MachineConfig(
            n_processors=8, n_modules=2, n_blocks=16, cache_sets=2,
            cache_assoc=2, protocol=protocol,
        )
        machine = build_machine(config, workload)
        if per_copy:
            machine.use_per_copy_fanout()
        calls.append(count_line_calls(machine))
        machine.run(refs_per_proc=150)
        machines.append(machine)
    index, per_copy = machines
    if protocol == "twobit":
        assert index.sim.events_processed < per_copy.sim.events_processed
    else:
        assert calls[0][0] < calls[1][0], f"{protocol}: no signal skipped"
    assert machine_fingerprint(index) == machine_fingerprint(per_copy)
