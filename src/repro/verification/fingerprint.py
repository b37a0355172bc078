"""Behavioural machine fingerprints for fan-out twin checks.

:func:`machine_fingerprint` hashes everything observable about a run's
outcome — cache lines, write-back buffers, directory state, memory
contents, simulated time, and (optionally) every counter — while
excluding exactly the things two equivalent machines legitimately differ
in: configuration objects, the copy-holder index and the kernel's event
count.  A machine whose broadcasts reach only copy holders and its twin
switched to per-copy delivery (``Machine.use_per_copy_fanout``), run
over the same reference stream, must produce equal fingerprints; the
n-parametrized twin tier asserts exactly that.

This is deliberately *not* :class:`~repro.verification.schedules.
StateFingerprinter`, which freezes component config references and every
counter verbatim and therefore trivially distinguishes the twins.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

def _counter_items(counters) -> List[Tuple[str, float]]:
    return sorted(counters.snapshot().items())


def _cache_part(cache, include_counters: bool) -> tuple:
    lines = sorted(
        (
            line.block,
            line.modified,
            line.version,
            getattr(getattr(line, "local", None), "name", ""),
        )
        for line in cache.array.valid_lines()
    )
    wb = getattr(cache, "wb_buffer", None)
    wb_entries = (
        sorted(
            (entry.block, entry.version, entry.superseded)
            for entry in wb._entries.values()
        )
        if wb is not None
        else ()
    )
    bias = getattr(cache, "_bias", None)
    bias_entries = tuple(bias) if bias is not None else ()
    return (
        "cache",
        cache.name,
        tuple(lines),
        tuple(wb_entries),
        bias_entries,
        tuple(_counter_items(cache.counters)) if include_counters else (),
    )


def _directory_part(directory, n_blocks: int) -> tuple:
    rows = []
    for block in range(n_blocks):
        if block not in directory:
            continue
        if hasattr(directory, "state"):
            state = directory.state(block)
            rows.append((block, getattr(state, "name", str(state))))
        else:  # full-map presence vectors
            entry = directory.entry(block)
            rows.append(
                (block, tuple(sorted(entry.owners)), bool(entry.modified))
            )
    return tuple(rows)


def _controller_part(ctrl, n_blocks: int, include_counters: bool) -> tuple:
    # The copy-holder index is deliberately absent here: it is advisory
    # bookkeeping, not behaviour (its soundness is the audit's superset
    # check, not a fingerprint).
    directory = getattr(ctrl, "directory", None)
    module = getattr(ctrl, "module", None)
    tbuf = getattr(ctrl, "tbuf", None)
    memory = (
        tuple(
            (block, module.peek(block))
            for block in range(n_blocks)
            if module.owns(block)
        )
        if module is not None
        else ()
    )
    tbuf_entries = (
        tuple(
            sorted(
                (block, tuple(sorted(owners)))
                for block, owners in tbuf._entries.items()
            )
        )
        if tbuf is not None
        else ()
    )
    return (
        "ctrl",
        ctrl.name,
        _directory_part(directory, n_blocks) if directory is not None else (),
        memory,
        tbuf_entries,
        tuple(_counter_items(ctrl.counters)) if include_counters else (),
    )


def machine_parts(machine, include_counters: bool = True) -> tuple:
    """The canonical (hashable) state tuple a fingerprint digests.

    Exposed separately so a failing twin test can diff the structures
    instead of two opaque hashes.
    """
    n_blocks = machine.config.n_blocks
    parts = [("now", machine.sim.now)]
    for cache in machine.caches:
        parts.append(_cache_part(cache, include_counters))
    for ctrl in machine.controllers:
        parts.append(_controller_part(ctrl, n_blocks, include_counters))
    for proc in machine.processors:
        parts.append(
            (
                "proc",
                proc.name,
                tuple(_counter_items(proc.counters)) if include_counters else (),
            )
        )
    parts.append(
        (
            "net",
            tuple(_counter_items(machine.network.counters))
            if include_counters
            else (),
        )
    )
    return tuple(parts)


def machine_fingerprint(machine, include_counters: bool = True) -> str:
    """SHA-256 over the machine's canonical behavioural state.

    Configuration objects and the copy-holder index are excluded — see
    the module docstring for why.
    """
    digest = hashlib.sha256()
    digest.update(repr(machine_parts(machine, include_counters)).encode())
    return digest.hexdigest()
