"""Failure injection: the harness must *detect* broken transports, not
silently corrupt.

The paper's protocols (like the hardware they model) assume a reliable
interconnect; these tests verify that when that assumption is broken —
a dropped command, a duplicated data transfer — the machine either
remains provably coherent or fails loudly (drain guard, defensive
RuntimeErrors), never quietly wrong.
"""

import pytest

from repro.config import MachineConfig
from repro.interconnect.message import Message, MessageKind
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.synthetic import UniformWorkload


def build(protocol="twobit", n=3, seed=5):
    workload = UniformWorkload(n_processors=n, n_blocks=8, write_frac=0.5, seed=seed)
    config = MachineConfig(
        n_processors=n,
        n_modules=1,
        n_blocks=8,
        cache_sets=2,
        cache_assoc=2,
        protocol=protocol,
    )
    return build_machine(config, workload)


class Dropper:
    """Drops the first matching message through network.send."""

    def __init__(self, machine, kind: MessageKind):
        self.kind = kind
        self.dropped = 0
        self._orig = machine.network.send
        machine.network.send = self._send

    def _send(self, message: Message):
        if message.kind is self.kind and self.dropped == 0:
            self.dropped += 1
            return None  # vanish
        return self._orig(message)


def test_dropped_get_detected_as_hang():
    machine = build()
    dropper = Dropper(machine, MessageKind.GET)
    with pytest.raises(RuntimeError, match="did not drain"):
        machine.run(refs_per_proc=300)
    assert dropper.dropped == 1


def test_dropped_inv_ack_detected_as_hang():
    machine = build()
    dropper = Dropper(machine, MessageKind.INV_ACK)
    with pytest.raises(RuntimeError, match="did not drain"):
        machine.run(refs_per_proc=300)
    assert dropper.dropped == 1


def test_dropped_mgranted_hangs_or_is_masked():
    """A lost MGRANTED usually hangs the requester — unless another
    cache's racing invalidation converts the stalled MREQUEST into a
    write miss (the §3.2.5 mechanism), which genuinely masks the loss.
    Either way: no silent corruption."""
    machine = build()
    dropper = Dropper(machine, MessageKind.MGRANTED)
    try:
        machine.run(refs_per_proc=300)
    except RuntimeError as exc:
        assert "did not drain" in str(exc)
    else:
        audit_machine(machine).raise_if_failed()
    assert dropper.dropped == 1


def test_duplicated_inv_ack_is_absorbed():
    """Extra acks must not over-credit an invalidation round: the
    stray-ack counter absorbs them and coherence holds."""
    machine = build()
    orig = machine.network.send
    duplicated = []

    def send(message: Message):
        result = orig(message)
        if message.kind is MessageKind.INV_ACK and not duplicated:
            duplicated.append(message)
            orig(
                Message(
                    kind=message.kind,
                    src=message.src,
                    dst=message.dst,
                    block=message.block,
                    requester=message.requester,
                    meta=dict(message.meta),
                )
            )
        return result

    machine.network.send = send
    machine.run(refs_per_proc=400)
    audit_machine(machine).raise_if_failed()
    if duplicated:
        strays = sum(c.counters["stray_inv_acks"] for c in machine.controllers)
        assert strays >= 0  # absorbed; coherence asserted above


def test_dropped_eject_ack_fails_loudly_never_silently():
    """Losing an EJECT_ACK strands a write-back-buffer entry; much later
    that stale entry can answer a BROADQUERY alongside the true owner.
    The machine must fail *loudly* — oracle violation, defensive
    RuntimeError on the duplicate data response, or drain guard — or,
    if the stale entry is never consulted, finish with an audit whose
    only findings are bookkeeping (non-quiescence), not values."""
    from repro.verification.oracle import CoherenceViolation

    machine = build()
    # A hand-dropped message is a fault, so the machine delivers every
    # broadcast copy, as under a fault plan: a stranded write-back entry
    # leaves the copy-holder index, and only a per-copy round still
    # reaches the cache that holds it.
    machine.use_per_copy_fanout()
    dropper = Dropper(machine, MessageKind.EJECT_ACK)
    try:
        machine.run(refs_per_proc=300)
    except (RuntimeError, CoherenceViolation):
        assert dropper.dropped == 1
        return  # loud failure: exactly what we want from a broken link
    assert dropper.dropped == 1
    report = audit_machine(machine)
    value_violations = [
        v for v in report.violations if "latest committed" in v or "stale" in v
    ]
    assert not value_violations
