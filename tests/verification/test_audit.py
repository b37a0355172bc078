"""Quiescent audits: clean machines pass; planted corruption is caught."""

import pytest

from repro.core.states import GlobalState
from repro.verification.audit import AuditReport, audit_machine

from tests.conftest import read, scripted_machine, uniform_machine, write


def test_report_mechanics():
    report = AuditReport()
    assert report.ok
    report.raise_if_failed()
    report.fail("boom")
    assert not report.ok
    with pytest.raises(AssertionError, match="boom"):
        report.raise_if_failed()


def test_clean_machine_audits_clean():
    machine = uniform_machine("twobit", n=4, seed=1, refs=400)
    assert audit_machine(machine).ok


def test_detects_phantom_directory_state():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    # Corrupt: claim modified while the only copy is clean.
    machine.controllers[0].directory.set_state(3, GlobalState.PRESENTM)
    report = audit_machine(machine)
    assert any("PresentM" in v for v in report.violations)


def test_detects_absent_with_cached_copy():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    machine.controllers[0].directory.set_state(3, GlobalState.ABSENT)
    report = audit_machine(machine)
    assert any("Absent" in v for v in report.violations)


def test_detects_two_dirty_copies():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    read(machine, 1, 3)
    for pid in (0, 1):
        machine.caches[pid].holds(3).modified = True
    report = audit_machine(machine)
    assert any("modified copies" in v for v in report.violations)


def test_detects_stale_clean_copy():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    machine.caches[0].holds(3).version = 999
    report = audit_machine(machine)
    assert any("clean copy" in v for v in report.violations)


def test_detects_lost_write():
    machine = scripted_machine([[], []])
    v = write(machine, 0, 3).version
    line = machine.caches[0].holds(3)
    line.version = v - 1 if v else 123  # dirty copy not at latest
    report = audit_machine(machine)
    assert any("dirty copy" in v for v in report.violations)


def test_detects_corrupt_tbuf_entry():
    from repro.config import ProtocolOptions

    machine = scripted_machine(
        [[], []], options=ProtocolOptions(translation_buffer_entries=8)
    )
    read(machine, 0, 3)
    machine.controllers[0].tbuf.establish(3, {1})  # wrong owner
    report = audit_machine(machine)
    assert any("translation buffer" in v for v in report.violations)


def test_detects_fullmap_owner_mismatch():
    machine = scripted_machine([[], []], protocol="fullmap")
    read(machine, 0, 3)
    machine.controllers[0].directory.entry(3).owners = {1}
    report = audit_machine(machine)
    assert any("owners" in v for v in report.violations)


def test_detects_non_quiescence():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    machine.sim.schedule(5, lambda: None)  # dangling event
    report = audit_machine(machine)
    assert any("pending" in v for v in report.violations)


def test_oracle_violations_surface_in_audit():
    machine = scripted_machine([[], []], strict_coherence=False)
    machine.oracle.violations.append("P0 read block 1 -> v0 (synthetic)")
    report = audit_machine(machine)
    assert any("oracle" in v for v in report.violations)


# ----------------------------------------------------------------------
# The audit visits only live blocks; corruption on a block no cache holds
# must still make that block live and be reported.
# ----------------------------------------------------------------------
def test_detects_directory_state_of_an_untouched_block():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    machine.controllers[0].directory.set_state(6, GlobalState.PRESENT1)
    report = audit_machine(machine)
    assert report.violations == [
        "block 6: state Present1 but copies=0 dirty=0"
    ]


def test_detects_memory_version_of_an_evicted_block():
    machine = scripted_machine([[], []])
    latest = write(machine, 0, 0).version
    # Blocks 2 and 4 share block 0's set: the dirty copy is written back
    # and evicted, leaving no copy and an Absent directory entry.
    read(machine, 0, 2)
    read(machine, 0, 4)
    assert machine.caches[0].holds(0) is None
    assert machine.controllers[0].directory.state(0) is GlobalState.ABSENT
    assert audit_machine(machine).ok
    machine.modules[0].write(0, latest + 100)
    report = audit_machine(machine)
    assert report.violations == [
        f"block 0: no dirty copy but memory has v{latest + 100}, "
        f"latest committed is v{latest}"
    ]


def test_detects_tbuf_entry_of_an_untouched_block():
    from repro.config import ProtocolOptions

    machine = scripted_machine(
        [[], []], options=ProtocolOptions(translation_buffer_entries=8)
    )
    read(machine, 0, 3)
    machine.controllers[0].tbuf.establish(6, {1})
    report = audit_machine(machine)
    assert report.violations == [
        "block 6: translation buffer says [1], actual holders []"
    ]


def test_detects_fullmap_owner_of_an_untouched_block():
    machine = scripted_machine([[], []], protocol="fullmap")
    read(machine, 0, 3)
    machine.controllers[0].directory.entry(6).owners = {1}
    report = audit_machine(machine)
    assert report.violations == [
        "block 6: directory owners [1] != actual holders []"
    ]


def test_detects_holder_index_missing_a_copy():
    machine = scripted_machine([[], []])
    read(machine, 0, 3)
    read(machine, 1, 3)
    machine.controllers[0].holders.discard(3, 1)
    report = audit_machine(machine)
    assert report.violations == [
        "block 3: holder index [0] misses cached copies at pids [1]"
    ]
