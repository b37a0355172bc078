"""Shared protocol interfaces.

Every protocol family exposes the same processor-facing interface — a
cache controller with :meth:`AbstractCacheController.access` — so the
system harness and the benchmarks are protocol-agnostic.  Results flow
back through :class:`AccessResult` callbacks.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Callable, Iterable, Sequence, Tuple

from repro.interconnect.message import Message, MessageKind
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.config import MachineConfig
from repro.workloads.reference import MemRef


class ProtocolError(RuntimeError):
    """The protocol's recovery bounds were exhausted (retry give-up)."""


class AccessResult:
    """Outcome of one processor memory reference.

    A slotted plain class: one is allocated per simulated reference, so
    construction cost matters.

    Attributes:
        ref: the reference that completed.
        hit: whether it hit in the cache.
        issue_time: cycle the processor issued it.
        complete_time: cycle it completed.
        version: version returned (reads) or committed (writes).
    """

    __slots__ = ("ref", "hit", "issue_time", "complete_time", "version")

    def __init__(
        self,
        ref: MemRef,
        hit: bool,
        issue_time: int,
        complete_time: int,
        version: int,
    ) -> None:
        self.ref = ref
        self.hit = hit
        self.issue_time = issue_time
        self.complete_time = complete_time
        self.version = version

    @property
    def latency(self) -> int:
        return self.complete_time - self.issue_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        outcome = "hit" if self.hit else "miss"
        return (
            f"AccessResult({self.ref}, {outcome}, "
            f"t={self.issue_time}->{self.complete_time}, v{self.version})"
        )


AccessCallback = Callable[[AccessResult], None]


class AbstractCacheController(Component):
    """Processor-facing cache controller.

    One outstanding processor reference at a time (the paper's processors
    block on misses).  Subclasses implement the protocol; this base holds
    the array-occupancy model that realizes "stolen cycles": the cache
    array is a serial resource shared by processor references and
    coherence commands arriving from the network.
    """

    #: What a snoop that finds no copy counts (before its stolen cycle,
    #: or ``snoops_filtered_by_dup_directory`` with §4.4's duplicate
    #: directory): the names of the cache group's :class:`RoundTally`.
    USELESS_SNOOP_COUNTERS: Tuple[str, ...] = ("snoop_commands", "snoop_useless")

    def __init__(self, sim: Simulator, pid: int, config: MachineConfig) -> None:
        super().__init__(sim, name=f"cache{pid}")
        self.pid = pid
        self.config = config
        self._array_free_at = 0
        self._cache_cycle = config.timing.cache_cycle

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------
    @abstractmethod
    def access(self, ref: MemRef, callback: AccessCallback) -> None:
        """Service ``ref``; invoke ``callback`` when it completes."""

    # ------------------------------------------------------------------
    # Array occupancy
    # ------------------------------------------------------------------
    def _use_array(self, stolen: bool) -> int:
        """Reserve one cache cycle on the array; return completion time.

        ``stolen`` marks uses by network commands rather than the local
        processor; the wait a processor reference suffers behind stolen
        cycles is recorded as ``processor_wait_cycles``.
        """
        cycle = self._cache_cycle
        now = self.sim.now
        start = self._array_free_at
        if start < now:
            start = now
        if not stolen:
            wait = start - now
            if wait:
                self.counters.add("processor_wait_cycles", wait)
        else:
            self.counters.add("stolen_cycles", cycle)
        self._array_free_at = start + cycle
        return self._array_free_at

    def charge_useless_snoops(
        self,
        absent: Iterable["AbstractCacheController"],
        exempt: Sequence["AbstractCacheController"],
    ) -> None:
        """One useless snoop at each cache of ``absent``: the caches of a
        fan-out round that the copy-holder index rules out.

        ``self`` is any cache of the group and ``exempt`` the rest of it
        (the writer or requester the round leaves out, and the caches
        that got a real copy).  The
        counters go through the group's :class:`RoundTally`
        (:attr:`USELESS_SNOOP_COUNTERS`), which costs O(len(exempt)).
        Only without §4.4's duplicate directory is ``absent`` walked: each
        of its caches then loses an array cycle.
        """
        self.counters.tally.charge([cache.counters for cache in exempt])
        if not self.config.options.duplicate_directory:
            for cache in absent:
                cache._use_array(stolen=True)


class AbstractMemoryController(Component):
    """Home-side controller fronting one memory module."""

    def __init__(self, sim: Simulator, index: int, config: MachineConfig) -> None:
        super().__init__(sim, name=f"ctrl{index}")
        self.index = index
        self.config = config
        self._mem_free_at = 0
        #: Commands admitted under a fault plan, for duplicate rejection:
        #: (src, kind name, block, txn/ej uid).  Only populated when an
        #: injector is attached; empty (and unconsulted) otherwise.
        self._admitted_cmds: set = set()

    def _fault_admit(self, message: Message) -> bool:
        """Gate an initiating command under an attached fault plan.

        Fault-free machines always admit (single ``is None`` test on the
        hot path).  Under a plan:

        * a command already admitted once is a network duplicate — drop
          it (the protocol's transactions are not idempotent);
        * a command arriving inside a memory stall window is NAKed and
          *not* recorded, so the sender's retry (same uid) is admitted
          when the window closes — and a late duplicate of a command
          whose retry was admitted still dedupes correctly.
        """
        net = self.net
        faults = net.faults
        if faults is None:
            return True
        meta = message.meta
        key = (
            message.src, message.kind.name, message.block,
            meta.get("txn", meta.get("ej")),
        )
        if key in self._admitted_cmds:
            self.counters.add("duplicate_commands_dropped")
            faults.counters.add("duplicates_dropped")
            return False
        if faults.stalled(self.name, self.sim.now):
            self.counters.add("naks_sent")
            nak_meta = {"kind": message.kind.name}
            for uid_key in ("txn", "ej"):
                if uid_key in meta:
                    nak_meta[uid_key] = meta[uid_key]
            net.send(
                Message(
                    kind=MessageKind.NAK,
                    src=self.name,
                    dst=message.src,
                    block=message.block,
                    requester=message.requester,
                    rw=message.rw,
                    meta=nak_meta,
                )
            )
            return False
        self._admitted_cmds.add(key)
        return True

    def _fault_dedupe(self, message: Message, uid_key: str) -> bool:
        """Drop one-shot notices (cancels, revokes, eject data) that a
        fault plan duplicated.  No NAK — these carry no reply."""
        if self.net.faults is None:
            return True
        key = (
            message.src, message.kind.name, message.block,
            message.meta.get(uid_key),
        )
        if key in self._admitted_cmds:
            self.counters.add("duplicate_commands_dropped")
            return False
        self._admitted_cmds.add(key)
        return True

    def _use_memory(self) -> int:
        """Reserve one memory access slot; return completion time."""
        access = self.config.timing.mem_access
        start = max(self.sim.now, self._mem_free_at)
        self._mem_free_at = start + access
        self.counters.add("memory_busy_cycles", access)
        return self._mem_free_at

    @abstractmethod
    def quiescent(self) -> bool:
        """True when no transaction is active or queued here."""
