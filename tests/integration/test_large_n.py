"""Large-n conformance: the machine at n=16/64/256 caches.

Every golden and model-check scenario elsewhere in the repo runs at
n<=8; this tier is where the expandability claim is actually exercised.
Four groups:

* **Registry at scale** — every registered protocol builds and runs a
  mixed (Dubois-Briggs) workload at n=16 and n=64 with a clean quiescent
  audit, both through the processors' transition table and with every
  cache driven directly through ``cache.access()``; n=256 with a
  10k-reference stream runs in the slow tier.
* **Fan-out twins** — for the broadcast protocols, a machine whose
  broadcasts reach only copy holders and its per-copy twin
  (``Machine.use_per_copy_fanout``) produce identical behavioural
  fingerprints (cache lines, directory, memory, cycles and every
  counter) and identical ``results()``: at the paper's default options
  and under each single option flip, on the crossbar and the delta
  network, at n in {2, 3, 4, 16, 64}.  An instrumented twin also
  matches the telemetry: send/broadcast event counts and span
  histograms.
* **Work suppressed** — at large n the holder index removes most of
  the per-copy events (two-bit directory) and most of the calls on the
  invalidation line (classical, twobit_wt).
* **Lockstep differential** — the broadcast protocols still agree with
  the full-map reference under the serial differential harness at
  large n.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config import MachineConfig, ProtocolOptions
from repro.protocols import registry
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.verification.differential import random_refs, run_differential
from repro.verification.fingerprint import machine_fingerprint, machine_parts
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import DuboisBriggsWorkload
from tests.conftest import count_line_calls

ALL_PROTOCOLS = sorted(registry.protocol_names())

#: Protocols whose broadcasts (or invalidation line) consult the
#: copy-holder index.
INDEX_PROTOCOLS = ("twobit", "twobit_wt", "classical")


def _build_mixed(protocol, n, per_copy=False):
    """Build one machine at the protocol's default options.

    ``per_copy`` switches it to per-copy broadcast delivery (the twin of
    the default holder-index fan-out).
    """
    workload = DuboisBriggsWorkload(
        n_processors=n, q=0.10, w=0.3, private_blocks_per_proc=8, seed=7
    )
    config = MachineConfig(
        n_processors=n,
        n_modules=4,
        n_blocks=workload.n_blocks,
        cache_sets=4,
        cache_assoc=2,
        protocol=protocol,
        network=registry.resolve(protocol).default_network(),
    )
    machine = build_machine(config, workload)
    if per_copy:
        machine.use_per_copy_fanout()
    return machine


def _run_mixed(protocol, n, refs_per_proc, engine="compiled", per_copy=False):
    """Build (see :func:`_build_mixed`) and run one machine; ``engine``
    picks the driver (see :data:`ENGINES`)."""
    machine = _build_mixed(protocol, n, per_copy)
    if engine == "compiled":
        machine.run(refs_per_proc=refs_per_proc)
    else:
        _drive_direct(machine, refs_per_proc)
    return machine


#: How references reach the caches: ``compiled`` runs the processors
#: (the transition table, escaping into the protocol's ``_classify``);
#: ``interpreted`` drives every cache directly through
#: ``cache.access()``, so each reference, hits included, is classified
#: by ``_classify`` itself.
ENGINES = ("interpreted", "compiled")


def _drive_direct(machine, refs_per_proc):
    """Issue each processor's stream concurrently through its cache's
    ``access()``, one outstanding reference per cache, and drain."""
    sim = machine.sim

    def issue(pid, stream, left):
        if left:
            machine.caches[pid].access(
                next(stream),
                lambda _result: sim.post(0, issue, pid, stream, left - 1),
            )

    for pid in range(machine.config.n_processors):
        sim.post(0, issue, pid, machine.workload.stream(pid), refs_per_proc)
    sim.run(max_events=400 * refs_per_proc * machine.config.n_processors)
    assert sim.drain_check()


def assert_twins_match(index, per_copy, label):
    """Both twins audit clean, fingerprint identically (counters
    included) and report identical results."""
    audit_machine(index).raise_if_failed()
    audit_machine(per_copy).raise_if_failed()
    if machine_fingerprint(index) != machine_fingerprint(per_copy):
        for a, b in zip(machine_parts(index), machine_parts(per_copy)):
            assert a == b, f"{label} diverged at {a[:2]}"
        raise AssertionError("fingerprints differ but parts compare equal")
    assert index.results() == per_copy.results(), label


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_every_protocol_scales_to(protocol, n, engine):
    machine = _run_mixed(protocol, n, refs_per_proc=2048 // n, engine=engine)
    audit_machine(machine).raise_if_failed()
    assert machine.oracle.reads_checked > 0
    assert machine.oracle.writes_committed > 0


@pytest.mark.slow
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_every_protocol_runs_10k_refs_at_n256(protocol):
    machine = _run_mixed(protocol, 256, refs_per_proc=40)
    audit_machine(machine).raise_if_failed()
    assert machine.results().total_refs >= 10_000


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("protocol", INDEX_PROTOCOLS)
def test_sparse_twin_matches_dense_exactly(protocol, n):
    """The registry-at-scale workload: holder-index fan-out and its
    per-copy twin are the same machine."""
    refs = 2048 // n
    index = _run_mixed(protocol, n, refs)
    per_copy = _run_mixed(protocol, n, refs, per_copy=True)
    assert_twins_match(index, per_copy, f"{protocol} n={n}")


#: The paper's default options, then each single flip of one option.
OPTION_FLIPS = {
    "defaults": {},
    "global-serialization": {"serialization": "global"},
    "no-present1": {"keep_present1": False},
    "owner-invalidates": {"owner_invalidates_on_read_query": True},
    "no-scrub": {"scrub_queued_mrequests": False},
    "acks-off": {"invalidation_acks": False},
    "dup-dir": {"duplicate_directory": True},
    "tbuf": {"translation_buffer_entries": 8},
    "tbuf-forced": {"tbuf_forced_hit_ratio": 0.5},
    "bias": {"bias_filter_entries": 4},
    "wb-capacity": {"wb_capacity": 1},
}

#: The options each protocol family reads (other flips change nothing).
FLIPS_READ = {
    "twobit": [k for k in OPTION_FLIPS if k != "bias"],
    "twobit_wt": ["defaults", "no-present1", "dup-dir", "bias"],
    "classical": ["defaults", "dup-dir", "bias"],
}

TWIN_CASES = [
    (protocol, network, flip, n)
    for protocol in INDEX_PROTOCOLS
    for network in ("xbar", "delta")
    for flip in FLIPS_READ[protocol]
    for n in (2, 3, 4, 16, 64)
]


def _twin(protocol, network, flip, n, per_copy, instrument=False):
    workload = DuboisBriggsWorkload(
        n_processors=n, q=0.3, w=0.4, private_blocks_per_proc=4, seed=n
    )
    config = MachineConfig(
        n_processors=n,
        n_modules=2,
        n_blocks=workload.n_blocks,
        cache_sets=2,
        cache_assoc=2,
        protocol=protocol,
        network=network,
        options=ProtocolOptions(**OPTION_FLIPS[flip]),
    )
    machine = build_machine(config, workload)
    if per_copy:
        machine.use_per_copy_fanout()
    obs = None
    if instrument:
        from repro.obs import instrument_machine

        obs = instrument_machine(machine, sample_interval=0)
    machine.run(refs_per_proc=max(6, 384 // n), warmup_refs=2)
    return machine, obs


@pytest.mark.parametrize(
    "protocol,network,flip,n", TWIN_CASES,
    ids=[f"{p}-{net}-{flip}-{n}" for p, net, flip, n in TWIN_CASES],
)
def test_index_twin_matches_per_copy(protocol, network, flip, n):
    index, _ = _twin(protocol, network, flip, n, per_copy=False)
    per_copy, _ = _twin(protocol, network, flip, n, per_copy=True)
    assert_twins_match(index, per_copy, f"{protocol}/{network}/{flip} n={n}")


def _telemetry(obs):
    return (
        Counter(event.name for event in obs.events),
        {k: list(h.items()) for k, h in sorted(obs.latency.items())},
        {k: list(h.items()) for k, h in sorted(obs.phases.items())},
    )


@pytest.mark.parametrize("network", ["xbar", "delta"])
@pytest.mark.parametrize("n", [4, 16])
def test_instrumented_index_twin_matches_per_copy(network, n):
    """Telemetry sees the same sends and broadcasts (the acks of caches
    the index rules out included) and the same spans on both paths."""
    index, index_obs = _twin("twobit", network, "defaults", n, False, True)
    per_copy, copy_obs = _twin("twobit", network, "defaults", n, True, True)
    assert_twins_match(index, per_copy, f"instrumented {network} n={n}")
    events, _, _ = _telemetry(index_obs)
    assert events["send"] > 0 and events["broadcast"] > 0
    assert _telemetry(index_obs) == _telemetry(copy_obs)


@pytest.mark.parametrize("protocol", INDEX_PROTOCOLS)
@pytest.mark.parametrize("n", [16, 64])
def test_index_fanout_suppresses_work_at_scale(n, protocol):
    """At large n the holder-index path skips most per-copy work: for
    the two-bit directory, most broadcast copies (and the INV_ACKs they
    draw) never become events; on the invalidation line, most signals
    never call their cache."""
    refs_per_proc = 2048 // n
    index = _build_mixed(protocol, n)
    per_copy = _build_mixed(protocol, n, per_copy=True)
    index_calls = count_line_calls(index)
    per_copy_calls = count_line_calls(per_copy)
    index.run(refs_per_proc=refs_per_proc)
    per_copy.run(refs_per_proc=refs_per_proc)
    audit_machine(index).raise_if_failed()
    assert_twins_match(index, per_copy, f"{protocol} n={n}")
    if protocol == "twobit":
        copies = index.network.counters.get("broadcast_deliveries")
        assert copies > 0
        saved = per_copy.sim.events_processed - index.sim.events_processed
        assert saved > 0.9 * copies, (
            f"n={n}: only {saved} events saved over {copies} broadcast copies"
        )
        return
    signalled = index.registry.total("invalidation_signals")
    assert signalled > 0
    assert per_copy_calls[0] == signalled
    called = index_calls[0]
    if protocol == "classical":
        skipped = signalled - called
        assert skipped / signalled > 0.9, (
            f"n={n}: only {skipped}/{signalled} signals skipped"
        )
        return
    # twobit_wt's directory starts a round only for a block other caches
    # hold, so what stays small is the number of caches a round calls
    # (about the sharing degree, whatever n), not the skipped share.
    rounds = signalled / (n - 1)
    assert called / rounds < 4, (
        f"n={n}: {called} calls over {rounds:g} rounds"
    )


def _lockstep_refs(seed, n, n_ops):
    refs = random_refs(seed, n_processors=n, n_blocks=4, n_ops=n_ops)
    # Pin the machine size: the harness sizes by max pid seen.
    refs.append(MemRef(pid=n - 1, op=Op.READ, block=0, shared=True))
    return refs


@pytest.mark.parametrize("n", [16, 64])
def test_sparse_lockstep_agrees_with_fullmap(n):
    report = run_differential(
        _lockstep_refs(1984, n, 24),
        protocols=list(INDEX_PROTOCOLS),
        n_modules=2,
    )
    assert report.ok, report.render()


@pytest.mark.slow
def test_sparse_lockstep_agrees_with_fullmap_at_n256():
    report = run_differential(
        _lockstep_refs(1984, 256, 16),
        protocols=list(INDEX_PROTOCOLS),
        n_modules=2,
    )
    assert report.ok, report.render()
