"""Transition-table conformance (see repro/protocols/compiled.py).

The processor executes each protocol's compiled transition table; the
protocol's own ``_classify`` runs the escape rows and every reference
driven directly through ``cache.access()``.  Evidence that the two agree
and that the tables say what the machine does:

* the compile pass: every registry protocol has a well-formed table;
* every :class:`Rule` row, driven from each declared state, lands in its
  declared ``next_state`` — on the fast path for fast rows, through
  ``_classify`` for escape rows;
* a processor-driven serial run equals the same stream driven directly
  through ``cache.access()`` (hits and all through ``_classify``);
* end-to-end goldens captured from the reference interpreter, through
  the public facade — fault-free and faulted — plus checkpoint/resume
  and the differential lockstep harness.

Per-protocol machine goldens live in test_protocol_golden.py.
"""

import inspect
import json
import os
import random
from pathlib import Path

import pytest

from repro.config import ConfigError, MachineConfig
from repro.protocols import registry
from repro.protocols.compiled import (
    PROTOCOL_TABLES,
    Action,
    LineState,
    compile_protocol,
    line_state,
    render_table,
)
from repro.system.builder import build_machine
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import ScriptedWorkload

ALL_PROTOCOLS = sorted(registry.protocol_names())

EXPERIMENT_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "experiment_runs.json").read_text()
)


# ----------------------------------------------------------------------
# The compile pass
# ----------------------------------------------------------------------
def test_every_registry_protocol_has_a_table():
    assert set(PROTOCOL_TABLES) == set(registry.protocol_names())


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_compile_protocol_structure(protocol):
    kernel = compile_protocol(protocol)
    table = PROTOCOL_TABLES[protocol]
    assert kernel.protocol == protocol
    assert kernel.op_flag == table.op_flag
    # Every fast counter the kernel can touch is pre-declared.
    for rule in table.rules:
        if rule.action is Action.WRITE:
            assert rule.hit_counter in kernel.counter_names
            for extra in rule.extra_counters:
                assert extra in kernel.counter_names
    # Memoized: compiling twice returns the same object.
    assert compile_protocol(protocol) is kernel


def test_write_through_protocols_never_fast_path_writes():
    # §2.3: every store goes to memory, serialized there — the fast
    # write maps must be empty so all writes escape.
    for name in ("classical", "twobit_wt"):
        kernel = compile_protocol(name)
        assert not kernel.w_clean and not kernel.w_dirty
        assert not kernel.r_dirty  # write-through keeps no dirty lines


def test_static_table_guards_shared_refs_before_lookup():
    kernel = compile_protocol("static")
    assert kernel.pre_shared_escape
    assert all(not compile_protocol(p).pre_shared_escape
               for p in ALL_PROTOCOLS if p != "static")


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_render_table_lists_every_rule(protocol):
    text = render_table(protocol)
    assert protocol in text
    assert text.count("\n") == len(PROTOCOL_TABLES[protocol].rules)


def test_line_state_mapping_covers_runtime_encodings():
    from repro.cache.line import CacheLine, LocalState

    assert line_state(None) is LineState.INVALID
    line = CacheLine()
    assert line_state(line) is LineState.INVALID
    line.fill(3, version=1)
    assert line_state(line) is LineState.VALID
    line.local = LocalState.EXCLUSIVE
    assert line_state(line) is LineState.EXCLUSIVE
    line.modified = True
    assert line_state(line) is LineState.DIRTY


# ----------------------------------------------------------------------
# Every rule reaches its declared next state
# ----------------------------------------------------------------------
_BLOCK = 1


def _ref(pid, op, shared=False):
    return MemRef(pid=pid, op=op, block=_BLOCK, shared=shared)


def _preps(name):
    """Per-state step lists ((pid, ref) pairs) that drive cache 0 of a
    fresh 2-processor machine into each of the table's states."""
    R, W = Op.READ, Op.WRITE
    p0r, p0w, p1r = (0, _ref(0, R)), (0, _ref(0, W)), (1, _ref(1, R))
    preps = {LineState.INVALID: [[]]}
    if name == "fullmap_local":
        # P1 holding first keeps P0's fill non-exclusive (VALID); alone,
        # the exclusive-clean grant produces EXCLUSIVE.  Both dirty
        # entry paths (plain and exclusive-grant) are exercised.
        preps[LineState.VALID] = [[p1r, p0r]]
        preps[LineState.EXCLUSIVE] = [[p0r]]
        preps[LineState.DIRTY] = [[p1r, p0w], [p0w]]
    elif name == "write_once":
        preps[LineState.VALID] = [[p0r]]
        preps[LineState.RESERVED] = [[p0r, p0w]]
        preps[LineState.DIRTY] = [[p0r, p0w, p0w]]
    elif name == "illinois":
        preps[LineState.EXCLUSIVE] = [[p0r]]
        preps[LineState.SHARED] = [[p1r, p0r]]
        preps[LineState.DIRTY] = [[p0w]]
    else:  # twobit, fullmap, static; write-through keeps no dirty lines
        preps[LineState.VALID] = [[p0r]]
        preps[LineState.DIRTY] = [[p0w]]
    return preps


def _rule_machine(name, steps):
    spec = registry.resolve(name)
    config = MachineConfig(
        n_processors=2, n_modules=1, n_blocks=4, cache_sets=2,
        cache_assoc=2, protocol=name, network=spec.default_network(),
    )
    scripts = [[ref for pid, ref in steps if pid == p] for p in range(2)]
    return build_machine(config, ScriptedWorkload(scripts))


def _step_through(machine, steps):
    """Run one reference to completion at a time, through the processors
    (so the table step is on the path)."""
    for pid, _ in steps:
        proc = machine.processors[pid]
        proc.budget += 1
        proc.resume()
        machine.sim.run(max_events=50_000)


def _rule_cases(name):
    """(rule index, rule, prep steps, probe) for every row of ``name``."""
    preps = _preps(name)
    for index, rule in enumerate(PROTOCOL_TABLES[name].rules):
        op = Op.READ if rule.cmd.value == "R" else Op.WRITE
        if rule.state is None:
            # Guard rows: the shared tag escapes before the lookup, even
            # when the block is (mis-tagged and) privately cached.
            probe = _ref(0, op, shared=True)
            yield index, rule, [], probe
            yield index, rule, [(0, _ref(0, Op.READ))], probe
            continue
        for prep in preps[rule.state]:
            yield index, rule, prep, _ref(0, op)


def _check_rule(name, index, rule, prep, probe):
    row = render_table(name).splitlines()[index + 1].strip()
    label = f"{name} rule {index} ({row})"
    machine = _rule_machine(name, prep + [(0, probe)])
    _step_through(machine, prep)
    cache, proc = machine.caches[0], machine.processors[0]
    if rule.state is not None:
        if rule.locals_ is not None:
            line = cache.array.lookup(_BLOCK)
            if line.local not in rule.locals_:
                return False  # this prep reaches a sibling dirty row
        got = line_state(cache.array.lookup(_BLOCK))
        assert got is rule.state, f"{label}: prepared {got.value}"
    fast_before = proc.fused_fast
    _step_through(machine, [(0, probe)])
    took_fast = proc.fused_fast > fast_before
    assert took_fast == (rule.action is not Action.ESCAPE), (
        f"{label}: {'fast path' if took_fast else 'escape'} taken"
    )
    if rule.next_state is not None:
        got = line_state(cache.array.lookup(_BLOCK))
        assert got is rule.next_state, f"{label}: ended in {got.value}"
    return True


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_table_conformance(protocol):
    checked = set()
    for index, rule, prep, probe in _rule_cases(protocol):
        if _check_rule(protocol, index, rule, prep, probe):
            checked.add(index)
    assert checked == set(range(len(PROTOCOL_TABLES[protocol].rules)))


# ----------------------------------------------------------------------
# The table step agrees with _classify on the same serial stream
# ----------------------------------------------------------------------
def _serial_stream(seed, n_processors=3, n_ops=120):
    """Serial references over two shared blocks plus two private
    blocks per processor (private refs are untagged, so the static
    scheme caches them)."""
    rng = random.Random(seed)
    refs = []
    for _ in range(n_ops):
        pid = rng.randrange(n_processors)
        op = Op.WRITE if rng.random() < 0.4 else Op.READ
        if rng.random() < 0.5:
            refs.append(MemRef(pid=pid, op=op, block=rng.randrange(2),
                               shared=True))
        else:
            block = 2 + 2 * pid + rng.randrange(2)
            refs.append(MemRef(pid=pid, op=op, block=block, shared=False))
    return refs


def _serial_state(machine):
    lines = tuple(
        tuple(
            (l.block, l.valid, l.modified, l.version, l.local.name,
             l.last_use)
            for l in cache.array.lines()
        )
        for cache in machine.caches
    )
    counters = [
        c.counters.snapshot()
        for c in [*machine.caches, *machine.controllers, machine.network]
    ]
    oracle = machine.oracle
    return (
        machine.sim.now,
        lines,
        counters,
        (oracle._counter, oracle.reads_checked, oracle.writes_committed),
    )


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_compiled_run_matches_interpreted_and_uses_fast_path(protocol):
    refs = _serial_stream(3)
    n = 3
    n_blocks = 2 + 2 * n
    spec = registry.resolve(protocol)
    config = MachineConfig(
        n_processors=n, n_modules=2, n_blocks=n_blocks, cache_sets=2,
        cache_assoc=2, protocol=protocol, network=spec.default_network(),
    )
    scripts = [[r for r in refs if r.pid == p] for p in range(n)]
    table = build_machine(config, ScriptedWorkload(scripts))
    direct = build_machine(config, ScriptedWorkload([[]] * n))
    for ref in refs:
        _step_through(table, [(ref.pid, ref)])
        done = []
        direct.caches[ref.pid].access(ref, done.append)
        direct.sim.run(max_events=50_000)
        assert len(done) == 1
    for proc in table.processors:
        proc._flush_counters()
    assert _serial_state(table) == _serial_state(direct)
    # The table must actually execute fast rows, not escape everything.
    assert sum(p.fused_fast for p in table.processors) > 0


# ----------------------------------------------------------------------
# Facade integration
# ----------------------------------------------------------------------
def test_build_machine_rejects_unknown_engine():
    from repro.workloads.synthetic import DuboisBriggsWorkload

    assert "engine" not in inspect.signature(build_machine).parameters
    workload = DuboisBriggsWorkload(n_processors=2, private_blocks_per_proc=8)
    config = MachineConfig(
        n_processors=2, n_modules=1, n_blocks=workload.n_blocks
    )
    with pytest.raises(TypeError, match="engine"):
        build_machine(config, workload, engine="jit")


def test_experiment_engine_kwarg_roundtrip():
    from repro.api import Experiment

    exp = Experiment(engine="compiled")
    assert "engine" not in exp.to_kwargs()
    assert exp.variant(q=0.1).q == 0.1
    removed = "interpreted"
    with pytest.raises(ConfigError, match=f"'{removed}' was removed"):
        Experiment(engine=removed)
    with pytest.raises(ValueError, match="unknown engine"):
        Experiment(engine="tables")


def _results_match_golden(outcome, key):
    expected = dict(EXPERIMENT_GOLDEN[key])
    assert outcome.machine.sim.events_processed == expected.pop("events")
    assert outcome.results.to_dict() == expected


def test_experiment_defaults_to_compiled_and_matches_interpreted():
    from repro.api import Experiment

    outcome = Experiment(refs_per_proc=300, warmup_refs=50).run()
    _results_match_golden(outcome, "default")
    assert sum(p.fused_fast for p in outcome.machine.processors) > 0


def test_experiment_per_copy_twin_matches_golden_but_event_count():
    # Every broadcast copy as its own event: the same results, the
    # event count of the per-copy path.
    from repro.api import Experiment

    exp = Experiment(refs_per_proc=300, warmup_refs=50)
    machine, _ = exp.build()
    machine.use_per_copy_fanout()
    machine.run(refs_per_proc=exp.refs_per_proc, warmup_refs=exp.warmup_refs)
    expected = dict(EXPERIMENT_GOLDEN["default"])
    expected.pop("events")
    assert machine.sim.events_processed == 4520
    assert machine.results().to_dict() == expected


def test_faulted_run_bit_identical_across_engines():
    from repro.api import Experiment

    outcome = Experiment(
        refs_per_proc=300, warmup_refs=50, faults="check"
    ).run()
    _results_match_golden(outcome, "check")


def test_checkpoint_resume_under_compiled_engine(tmp_path):
    from repro import checkpoint
    from repro.api import Experiment

    path = os.path.join(tmp_path, "compiled-{cycle}.ckpt")
    exp = Experiment(refs_per_proc=300, warmup_refs=50)
    sliced = exp.run(checkpoint_every=400, checkpoint_path=path)
    uninterrupted = exp.run()
    assert sliced.results.to_dict() == uninterrupted.results.to_dict()

    # A mid-run checkpoint restores (the processors and their compiled
    # kernel pickle) and finishes bit-identically.
    saved = sorted(tmp_path.iterdir())
    assert saved, "expected at least one mid-run checkpoint"
    machine = checkpoint.load(str(saved[0]))
    machine.continue_run()
    assert machine.results().to_dict() == uninterrupted.results.to_dict()


# ----------------------------------------------------------------------
# Differential lockstep harness
# ----------------------------------------------------------------------
def test_differential_agrees_under_compiled_machines():
    from repro.verification.differential import random_refs, run_differential

    refs = random_refs(5)
    report = run_differential(refs)
    assert report.ok, report.render()
