"""The classical solution (§2.3): write-through + invalidate-all.

Every store is transmitted to memory and its address is signalled to all
other caches over the cache-invalidation line; receiving caches invalidate
the block if present.  Caches are write-through/no-write-allocate, so
memory is always up to date and replacement never writes back.

Modelling note: the invalidation line of the IBM 370/168-style machines is
synchronous with the store's completion at memory — an asynchronous model
would exhibit windows the real hardware excludes.  We therefore apply the
invalidations by direct calls at the commit instant, while still charging
each signal as a received command and a stolen cache cycle.  An in-flight
read-miss fill crossed by an invalidation is discarded and retried, as the
fill-buffer match logic of those machines does.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.cache.array import CacheArray
from repro.cache.replacement import make_policy
from repro.interconnect.holders import CopyHolderIndex, mask_pids
from repro.interconnect.message import Message, MessageKind
from repro.interconnect.network import Network
from repro.memory.module import MemoryModule
from repro.protocols.base import (
    AbstractCacheController,
    AbstractMemoryController,
    AccessCallback,
    AccessResult,
)
from repro.sim.kernel import Simulator
from repro.config import MachineConfig
from repro.verification.oracle import CoherenceOracle
from repro.workloads.reference import MemRef


@dataclass
class _Pending:
    ref: MemRef
    callback: AccessCallback
    issue_time: int
    #: "fetch" (read miss) or "store" (write-through in flight).
    phase: str
    #: An invalidation crossed the outstanding fetch; discard and retry.
    stale_fill: bool = False


class ClassicalCacheController(AbstractCacheController):
    """Write-through, no-write-allocate cache with an invalidation line."""

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        config: MachineConfig,
        net: Network,
        home_fn: Callable[[int], str],
        oracle: CoherenceOracle,
    ) -> None:
        super().__init__(sim, pid, config)
        self.net = net
        self.home_fn = home_fn
        self.oracle = oracle
        self.array = CacheArray(
            n_sets=config.cache_sets,
            associativity=config.cache_assoc,
            policy=make_policy(config.replacement, seed=config.seed + pid),
        )
        self.pending: Optional[_Pending] = None
        #: §2.3's BIAS memory: recently-invalidated addresses, filtering
        #: repeated invalidation signals without a directory lookup.
        self._bias: "OrderedDict[int, None]" = OrderedDict()
        #: Machine-wide copy-holder index, shared with every cache and
        #: memory controller of the write-through machine (the
        #: invalidation line is global).  Replaced by the builder's shared
        #: one; caches add themselves on fetch and self-clean on received
        #: signals.
        self.holders = CopyHolderIndex()

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------
    def access(self, ref: MemRef, callback: AccessCallback) -> None:
        if self.pending is not None:
            raise RuntimeError(f"{self.name} already has an outstanding reference")
        self.counters.add("refs")
        self.counters.add("writes" if ref.is_write else "reads")
        issue_time = self.sim.now
        done = self._use_array(stolen=False)
        self.sim.post_at(done, self._classify, ref, callback, issue_time)

    def _classify(self, ref: MemRef, callback: AccessCallback, issue_time: int) -> None:
        line = self.array.lookup(ref.block)
        if not ref.is_write:
            if line is not None:
                self.array.touch(line)
                self.counters.add("read_hits")
                self.oracle.check_read(ref.block, line.version, issue_time, self.pid)
                self._complete(ref, callback, issue_time, True, line.version)
                return
            self.counters.add("read_misses")
            self.pending = _Pending(ref, callback, issue_time, phase="fetch")
            # Join the holder set at *send* time: a store committing
            # while the fetch is in flight must still signal us so the
            # crossing invalidation can poison the fill.
            self.holders.add(ref.block, self.pid)
            self._send(MessageKind.WT_FETCH, ref.block)
            return
        # Stores always go to memory; the write commits *there*, so the
        # version is drawn by the controller at the commit instant — two
        # racing stores must get version numbers in their memory
        # serialization order, not their issue order.
        self.counters.add("write_hits" if line is not None else "write_misses")
        self.pending = _Pending(ref, callback, issue_time, phase="store")
        self._send(
            MessageKind.WT_WRITE, ref.block, meta={"hit": line is not None}
        )

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        pending = self.pending
        if message.kind is MessageKind.GET:
            if (
                pending is None
                or pending.phase != "fetch"
                or pending.ref.block != message.block
            ):
                raise RuntimeError(f"{self.name}: unexpected fill {message!r}")
            # Keep the access pending until the fill lands so a crossing
            # invalidation can still poison it (stale_fill).
            done = self._use_array(stolen=False)
            self.sim.post_at(done, self._fill, message, pending)
        elif message.kind is MessageKind.WT_ACK:
            if (
                pending is None
                or pending.phase != "store"
                or pending.ref.block != message.block
            ):
                raise RuntimeError(f"{self.name}: unexpected store ack {message!r}")
            self.pending = None
            line = self.array.lookup(message.block)
            if line is not None:
                # Write-through updates the local copy in place.
                assert message.version is not None
                line.version = message.version
                self.array.touch(line)
            self._complete(
                pending.ref,
                pending.callback,
                pending.issue_time,
                hit=line is not None,
                version=message.version or 0,
            )
        else:
            raise ValueError(f"{self.name} cannot handle {message!r}")

    def _bias_remember(self, block: int) -> None:
        """Record an invalidated address in the BIAS memory (LRU)."""
        capacity = self.config.options.bias_filter_entries
        if capacity <= 0:
            return
        self._bias[block] = None
        self._bias.move_to_end(block)
        while len(self._bias) > capacity:
            self._bias.popitem(last=False)

    def _fill(self, message: Message, pending: _Pending) -> None:
        assert message.version is not None
        if pending.stale_fill:
            # Invalidated while in flight: refetch.
            self.counters.add("stale_fills_retried")
            pending.stale_fill = False
            self._send(MessageKind.WT_FETCH, message.block)
            return
        self.pending = None
        self._bias.pop(pending.ref.block, None)  # cached again: unfilter
        self.array.fill(pending.ref.block, version=message.version, modified=False)
        self.holders.add(pending.ref.block, self.pid)
        self.oracle.check_read(
            pending.ref.block, message.version, pending.issue_time, self.pid
        )
        self._complete(
            pending.ref, pending.callback, pending.issue_time, False, message.version
        )

    # ------------------------------------------------------------------
    # Invalidation line (synchronous, called by the memory controller)
    # ------------------------------------------------------------------
    def apply_invalidation(self, block: int, writer_pid: int) -> None:
        """One signal on the cache-invalidation line."""
        if writer_pid == self.pid:
            return
        self.counters.add("snoop_commands")
        pending = self.pending
        if block in self._bias:
            # BIAS hit: the block is known absent — no directory lookup,
            # no stolen cycle.  The fill buffer is still checked (a
            # pending fetch crossed by this signal must be poisoned).
            self._bias.move_to_end(block)
            self.counters.add("snoops_filtered_by_bias")
            self.counters.add("snoop_useless")
            if (
                pending is not None
                and pending.phase == "fetch"
                and pending.ref.block == block
            ):
                pending.stale_fill = True
            elif not self._holder_pinned(block):
                self.holders.discard(block, self.pid)
            return
        line = self.array.lookup(block)
        present = line is not None
        if present:
            line.reset()
            self.counters.add("invalidations_applied")
            self.counters.add("snoop_useful")
        else:
            self.counters.add("snoop_useless")
        if present or not self._holder_pinned(block):
            # Self-cleaning: a destroyed copy leaves the index, and a
            # useless signal scrubs a member gone stale through a silent
            # eviction — unless an in-flight fetch/eject pins it.
            self.holders.discard(block, self.pid)
        self._bias_remember(block)
        if (
            pending is not None
            and pending.phase == "fetch"
            and pending.ref.block == block
        ):
            pending.stale_fill = True
        if present or not self.config.options.duplicate_directory:
            self._use_array(stolen=True)
        else:
            self.counters.add("snoops_filtered_by_dup_directory")

    def _holder_pinned(self, block: int) -> bool:
        """True while this cache must stay in the holder index for
        ``block`` despite holding no valid line (an in-flight fetch whose
        fill can still be poisoned)."""
        pending = self.pending
        return (
            pending is not None
            and pending.phase == "fetch"
            and pending.ref.block == block
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _complete(
        self,
        ref: MemRef,
        callback: AccessCallback,
        issue_time: int,
        hit: bool,
        version: int,
    ) -> None:
        self.counters.add("latency_cycles", self.sim.now - issue_time)
        callback(
            AccessResult(
                ref=ref,
                hit=hit,
                issue_time=issue_time,
                complete_time=self.sim.now,
                version=version,
            )
        )

    def _send(self, kind: MessageKind, block: int, **fields) -> None:
        fields.setdefault("requester", self.pid)
        self.net.send(
            Message(
                kind=kind,
                src=self.name,
                dst=self.home_fn(block),
                block=block,
                **fields,
            )
        )

    def holds(self, block: int):
        return self.array.lookup(block)

    def quiescent(self) -> bool:
        return self.pending is None


class ClassicalMemoryController(AbstractMemoryController):
    """Memory-side agent: always-current memory + invalidation broadcast."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        config: MachineConfig,
        net: Network,
        module: MemoryModule,
        oracle: CoherenceOracle,
    ) -> None:
        super().__init__(sim, index, config)
        self.net = net
        self.module = module
        self.oracle = oracle
        #: Populated by the builder with every cache in the system.
        self.caches: List[ClassicalCacheController] = []
        #: Shared copy-holder index (same object as the caches'), wired
        #: by the builder: the invalidation line calls only its members.
        self.holders = CopyHolderIndex()

    def deliver(self, message: Message) -> None:
        if message.kind is MessageKind.WT_FETCH:
            done = self._use_memory()
            self.sim.post_at(done, self._serve_fetch, message)
        elif message.kind is MessageKind.WT_WRITE:
            done = self._use_memory()
            self.sim.post_at(done, self._commit_store, message)
        else:
            raise ValueError(f"{self.name} cannot handle {message!r}")

    def _serve_fetch(self, message: Message) -> None:
        self.counters.add("fetches_served")
        self.net.send(
            Message(
                kind=MessageKind.GET,
                src=self.name,
                dst=message.src,
                block=message.block,
                version=self.module.read(message.block),
                requester=message.requester,
            )
        )

    def _commit_store(self, message: Message) -> None:
        assert message.requester is not None
        version = self.oracle.new_version()
        self.module.write(message.block, version)
        self.oracle.commit_write(
            message.block, version, self.sim.now, message.requester
        )
        self.counters.add("stores_committed")
        self._signal_invalidations(message.block, message.requester)
        self.net.send(
            Message(
                kind=MessageKind.WT_ACK,
                src=self.name,
                dst=message.src,
                block=message.block,
                version=version,
                requester=message.requester,
            )
        )

    def _signal_invalidations(self, block: int, writer_pid: int) -> List[int]:
        """Run one invalidation-line round; return the pids called.

        Every other cache sees the store address, and each signal is one
        command on the line (``invalidation_signals``).  Only members of
        the holder index are called; every other cache is charged its
        useless signal at once (``charge_useless_snoops``), which is
        exact because the line is synchronous.
        Per-copy machines, and lines with a BIAS filter (a signal updates
        the receiver's BIAS memory), call every other cache.  The called
        pids are snapshotted before signalling: ``apply_invalidation``
        mutates the index, and twobit_wt walks the same list to collect
        eviction-notice revocations.
        """
        caches = self.caches
        if len(caches) > 1:
            self.counters.add("invalidation_signals", len(caches) - 1)
        if self.net.per_copy or self.config.options.bias_filter_entries:
            called = [cache.pid for cache in caches if cache.pid != writer_pid]
            for pid in called:
                caches[pid].apply_invalidation(block, writer_pid)
            return called
        called = list(
            mask_pids(self.holders.mask(block) & ~(1 << writer_pid))
        )
        for pid in called:
            caches[pid].apply_invalidation(block, writer_pid)
        if len(called) + 1 < len(caches):
            exempt = {writer_pid, *called}
            caches[writer_pid].charge_useless_snoops(
                (cache for cache in caches if cache.pid not in exempt),
                [caches[pid] for pid in exempt],
            )
        return called

    def quiescent(self) -> bool:
        return True
