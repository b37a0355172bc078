"""Quiescent-state audits.

After a machine drains, the audit cross-checks three layers of truth —
cache lines, directory state, memory contents, and the oracle's commit
history — against the invariants every coherent protocol must satisfy,
plus directory-specific invariants for the two-bit and full-map schemes.

Run it after every integration test; any violation is a protocol bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.states import GlobalState
from repro.interconnect.holders import mask_pids


@dataclass
class AuditReport:
    """Violations found by :func:`audit_machine` (empty = clean)."""

    violations: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.violations.append(message)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            preview = "\n  ".join(self.violations[:20])
            raise AssertionError(
                f"{len(self.violations)} audit violations:\n  {preview}"
            )


def _copies_by_block(machine) -> Dict[int, List[tuple]]:
    """block -> (pid, line) for every valid cached copy, in pid order.

    Built once from each cache's valid lines (a cache's first valid line
    for a block is its copy, as :meth:`CacheArray.lookup` would find).
    """
    copies: Dict[int, List[tuple]] = {}
    for cache in machine.caches:
        array = getattr(cache, "array", None)
        if array is None:
            continue
        pid = cache.pid
        for line in array.valid_lines():
            found = copies.setdefault(line.block, [])
            if not found or found[-1][0] != pid:
                found.append((pid, line))
    return copies


def _holder_indexes(machine) -> list:
    """The copy-holder indexes broadcasts consult, or [] when the machine
    delivers every copy (the index is then advisory and may lag: it does
    not follow NAK-driven or tie-randomized orders)."""
    if machine.network.per_copy:
        return []
    indexes = {}
    for ctrl in machine.controllers:
        holders = getattr(ctrl, "holders", None)
        if holders is not None:
            indexes[id(holders)] = holders
    return list(indexes.values())


def audit_machine(machine) -> AuditReport:
    """Full quiescent audit; see module docstring.

    One pass over the *live* blocks only — those with a cached copy, a
    non-Absent two-bit state, a full-map owner, a translation-buffer
    entry, a copy-holder index entry or an oracle commit.  Every check
    passes trivially on any other block, so skipping them is exact.
    """
    report = AuditReport()
    _audit_quiescence(machine, report)
    copies = _copies_by_block(machine)
    live = set(copies)
    live.update(machine.oracle.written_blocks())
    protocol = machine.config.protocol
    directory_check = None
    if protocol in ("twobit", "twobit_wt"):
        directory_check = _audit_twobit_block
        for ctrl in machine.controllers:
            live.update(
                block for block, state in ctrl.directory.items()
                if state is not GlobalState.ABSENT
            )
    elif protocol in ("fullmap", "fullmap_local"):
        directory_check = _audit_fullmap_block
        for ctrl in machine.controllers:
            live.update(
                block for block, entry in ctrl.directory.items()
                if entry.owners or entry.modified
            )
    for ctrl in machine.controllers:
        tbuf = getattr(ctrl, "tbuf", None)
        if tbuf is not None:
            live.update(tbuf.blocks())
    indexes = _holder_indexes(machine)
    for holders in indexes:
        live.update(holders.blocks())
    for block in sorted(live):
        block_copies = copies.get(block, [])
        _audit_block_values(machine, block, block_copies, report)
        if directory_check is not None:
            home = machine.controllers[machine.amap.home(block)]
            directory_check(home, block, block_copies, report)
        if indexes:
            _audit_holder_block(indexes, block, block_copies, report)
    if machine.oracle.violations:
        for violation in machine.oracle.violations:
            report.fail(f"oracle: {violation}")
    return report


def _audit_quiescence(machine, report: AuditReport) -> None:
    if machine.sim.pending:
        report.fail(f"{machine.sim.pending} events still pending")
    for cache in machine.caches:
        if hasattr(cache, "quiescent") and not cache.quiescent():
            report.fail(f"{cache.name} not quiescent")
    for ctrl in machine.controllers:
        if not ctrl.quiescent():
            report.fail(f"{ctrl.name} not quiescent")


def _audit_block_values(machine, block: int, copies, report: AuditReport) -> None:
    dirty = [(pid, line) for pid, line in copies if line.modified]
    clean = [(pid, line) for pid, line in copies if not line.modified]
    if len(dirty) > 1:
        report.fail(
            f"block {block}: {len(dirty)} modified copies "
            f"(pids {[p for p, _ in dirty]})"
        )
        return
    latest = machine.oracle.latest_version(block)
    module = machine.modules[machine.amap.home(block)]
    mem_version = module.peek(block)
    if dirty:
        pid, line = dirty[0]
        if line.version != latest:
            report.fail(
                f"block {block}: dirty copy at P{pid} has v{line.version}, "
                f"latest committed is v{latest}"
            )
        if clean:
            report.fail(
                f"block {block}: dirty copy coexists with clean copies at "
                f"pids {[p for p, _ in clean]}"
            )
    else:
        if latest and mem_version != latest:
            report.fail(
                f"block {block}: no dirty copy but memory has v{mem_version}, "
                f"latest committed is v{latest}"
            )
        for pid, line in clean:
            if line.version != mem_version:
                report.fail(
                    f"block {block}: clean copy at P{pid} has v{line.version}, "
                    f"memory has v{mem_version}"
                )


def _audit_twobit_block(ctrl, block: int, copies, report: AuditReport) -> None:
    state = ctrl.directory.state(block)
    n_copies = len(copies)
    n_dirty = sum(1 for _, line in copies if line.modified)
    if state is GlobalState.ABSENT and n_copies:
        report.fail(
            f"block {block}: state Absent but cached at "
            f"{[p for p, _ in copies]}"
        )
    elif state is GlobalState.PRESENT1:
        if n_copies != 1 or n_dirty:
            report.fail(
                f"block {block}: state Present1 but copies={n_copies} "
                f"dirty={n_dirty}"
            )
    elif state is GlobalState.PRESENT_STAR and n_dirty:
        report.fail(f"block {block}: state Present* with a dirty copy")
    elif state is GlobalState.PRESENTM and (n_copies != 1 or n_dirty != 1):
        report.fail(
            f"block {block}: state PresentM but copies={n_copies} "
            f"dirty={n_dirty}"
        )
    _audit_tbuf_entry(ctrl, block, copies, report)


def _audit_tbuf_entry(ctrl, block, copies, report: AuditReport) -> None:
    tbuf = getattr(ctrl, "tbuf", None)
    if tbuf is None:
        return
    owners = tbuf.peek(block)
    if owners is None:
        return
    actual = {pid for pid, _ in copies}
    if owners != actual:
        report.fail(
            f"block {block}: translation buffer says {sorted(owners)}, "
            f"actual holders {sorted(actual)}"
        )


def _audit_holder_block(indexes, block: int, copies, report: AuditReport) -> None:
    """Holder-index soundness: every valid copy is an index member.

    The copy-holder index may carry stale extra members (silent
    evictions self-clean lazily) but must never *miss* a holder — a
    missed holder would get no copy of a broadcast round.
    """
    members = 0
    for holders in indexes:
        members |= holders.mask(block)
    missing = [pid for pid, _ in copies if not members >> pid & 1]
    if missing:
        report.fail(
            f"block {block}: holder index {sorted(mask_pids(members))} "
            f"misses cached copies at pids {missing}"
        )


def _audit_fullmap_block(ctrl, block: int, copies, report: AuditReport) -> None:
    entry = ctrl.directory.entry(block)
    actual = {pid for pid, _ in copies}
    if entry.owners != actual:
        report.fail(
            f"block {block}: directory owners {sorted(entry.owners)} "
            f"!= actual holders {sorted(actual)}"
        )
    n_dirty = sum(1 for _, line in copies if line.modified)
    if entry.modified and n_dirty != 1:
        report.fail(
            f"block {block}: directory says modified but dirty "
            f"copies={n_dirty}"
        )
    if not entry.modified and not entry.exclusive and n_dirty:
        report.fail(
            f"block {block}: directory says clean but a dirty copy exists"
        )
