"""Full distributed map baseline (Censier-Feautrier, §2.4.2).

Each block's directory entry is the full presence vector (one bit per
cache, here a set of pids) plus a modified bit — ``n+1`` bits per block.
Because owner identities are known, every coherence command is sent
*selectively*: ``PURGE`` to the dirty owner, ``INVALIDATE`` to exactly the
holders.  No broadcasts ever occur; this is the reference point against
which the two-bit scheme's extra commands are measured (§4.1: "the number
of 'forced' write-backs and invalidations are independent of the mapping
method").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.interconnect.message import Message, MessageKind
from repro.interconnect.network import Network
from repro.memory.module import MemoryModule
from repro.protocols.base import AbstractMemoryController
from repro.protocols.engine import TransactionEngine
from repro.sim.kernel import Simulator
from repro.config import MachineConfig


@dataclass
class FullMapEntry:
    """Presence vector + modified bit for one block (``n+1`` bits)."""

    owners: Set[int] = field(default_factory=set)
    modified: bool = False
    #: Exclusive-clean grant outstanding (used by the local-state
    #: variant; always False for the plain full map).
    exclusive: bool = False

    @property
    def possibly_dirty(self) -> bool:
        """Must the owner be queried before trusting memory?"""
        return self.modified or self.exclusive

    def storage_bits(self, n_caches: int) -> int:
        return n_caches + 1


class FullMapDirectory:
    """Map block -> :class:`FullMapEntry` for one module's blocks."""

    def __init__(self, blocks: Iterable[int]) -> None:
        self._entries: Dict[int, FullMapEntry] = {
            block: FullMapEntry() for block in blocks
        }

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[int, FullMapEntry]]:
        """(block, entry) for every homed block."""
        return iter(self._entries.items())

    def entry(self, block: int) -> FullMapEntry:
        try:
            return self._entries[block]
        except KeyError:
            raise KeyError(f"block {block} not homed at this directory") from None

    def storage_bits(self, n_caches: int) -> int:
        """Directory cost grows with n — the economy contrast of §3.1."""
        return (n_caches + 1) * len(self._entries)


@dataclass
class _Txn:
    msg: Message
    phase: str = "start"
    acks_expected: int = 0
    #: Distinct caches that acked (identity-based, duplicate-proof).
    ack_sources: Set[str] = field(default_factory=set)


class FullMapDirectoryController(AbstractMemoryController):
    """Home controller with the n+1-bit presence-vector directory."""

    #: Grant exclusive-clean on a read fill from Absent (local-state
    #: variant overrides to True).
    grant_exclusive_clean = False

    def __init__(
        self,
        sim: Simulator,
        index: int,
        config: MachineConfig,
        net: Network,
        module: MemoryModule,
        n_caches: int,
    ) -> None:
        super().__init__(sim, index, config)
        self.net = net
        self.module = module
        self.n_caches = n_caches
        self.directory = FullMapDirectory(
            blocks=(b for b in range(config.n_blocks) if module.owns(b))
        )
        self.engine = TransactionEngine(self._begin, config.options.serialization)
        self._txns: Dict[int, _Txn] = {}
        self._eject_data: Dict[Tuple[str, int], int] = {}

    # ==================================================================
    # Network interface
    # ==================================================================
    def deliver(self, message: Message) -> None:
        kind = message.kind
        if kind in (MessageKind.REQUEST, MessageKind.MREQUEST, MessageKind.EJECT):
            if not self._fault_admit(message):
                return
            self.counters.add(f"rx_{kind.name.lower()}")
            self.engine.submit(message)
        elif kind is MessageKind.PUT:
            self._on_put(message)
        elif kind is MessageKind.INV_ACK:
            self._on_inv_ack(message)
        elif kind is MessageKind.QUERY_NOCOPY:
            self._on_query_nocopy(message)
        elif kind is MessageKind.MREQ_CANCEL:
            if not self._fault_dedupe(message, "txn"):
                return
            # The full map would deny the stale MREQUEST anyway (the
            # sender is no longer in the owner set); scrubbing it just
            # saves the round trip.
            removed = self.engine.scrub(
                message.block,
                lambda m: (
                    m.kind is MessageKind.MREQUEST
                    and m.src == message.src
                    and m.meta.get("txn") == message.meta.get("txn")
                ),
            )
            self.counters.add("mrequests_cancelled", len(removed))
        elif kind is MessageKind.EJECT_REVOKE:
            # Presence vectors make stale clean ejects harmless.
            self.counters.add("eject_revokes_ignored")
        else:
            raise ValueError(f"{self.name} cannot handle {message!r}")

    def _begin(self, message: Message) -> None:
        txn = _Txn(msg=message)
        self._txns[message.block] = txn
        self.counters.add("transactions")
        done = self.sim.now + self.config.timing.directory_access
        self.sim.post_at(done, self._dispatch, txn)

    def _dispatch(self, txn: _Txn) -> None:
        msg = txn.msg
        if msg.kind is MessageKind.REQUEST:
            if msg.rw == "read":
                self._do_read_request(txn)
            else:
                self._do_write_request(txn)
        elif msg.kind is MessageKind.MREQUEST:
            self._do_mrequest(txn)
        else:
            self._do_eject(txn)

    def _finish(self, txn: _Txn) -> None:
        block = txn.msg.block
        del self._txns[block]
        self.engine.complete(block)

    # ==================================================================
    # Read miss
    # ==================================================================
    def _do_read_request(self, txn: _Txn) -> None:
        block = txn.msg.block
        entry = self.directory.entry(block)
        if entry.possibly_dirty:
            txn.phase = "query"
            self._purge_owner(txn, rw="read")
            return
        exclusive = self.grant_exclusive_clean and not entry.owners
        done = self._use_memory()
        self.sim.post_at(done, self._serve_read_from_memory, txn, exclusive)

    def _serve_read_from_memory(self, txn: _Txn, exclusive: bool) -> None:
        block = txn.msg.block
        entry = self.directory.entry(block)
        requester = self._requester(txn)
        entry.owners.add(requester)
        entry.modified = False
        entry.exclusive = exclusive
        self._send_get(txn, version=self.module.read(block), exclusive=exclusive)
        self._finish(txn)

    # ==================================================================
    # Write miss
    # ==================================================================
    def _do_write_request(self, txn: _Txn) -> None:
        block = txn.msg.block
        entry = self.directory.entry(block)
        if entry.possibly_dirty:
            txn.phase = "query"
            self._purge_owner(txn, rw="write")
            return
        if entry.owners:
            txn.phase = "inv-wait"
            self._invalidate_holders(txn, entry.owners)
            return
        done = self._use_memory()
        self.sim.post_at(done, self._serve_write_from_memory, txn)

    def _serve_write_from_memory(self, txn: _Txn) -> None:
        block = txn.msg.block
        entry = self.directory.entry(block)
        requester = self._requester(txn)
        entry.owners = {requester}
        entry.modified = True
        entry.exclusive = False
        self._send_get(txn, version=self.module.read(block))
        self._finish(txn)

    # ==================================================================
    # Write hit on unmodified (MREQUEST)
    # ==================================================================
    def _do_mrequest(self, txn: _Txn) -> None:
        block = txn.msg.block
        entry = self.directory.entry(block)
        requester = self._requester(txn)
        if requester not in entry.owners or entry.modified:
            # Lost a race; the cache reissues as a write miss.
            self.counters.add("mreq_denied")
            self._grant_modify(txn, granted=False)
            return
        others = entry.owners - {requester}
        if not others:
            self.counters.add("mreq_granted_sole_owner")
            self._grant_modify(txn, granted=True)
            return
        txn.phase = "inv-wait"
        self._invalidate_holders(txn, others)

    def _grant_modify(self, txn: _Txn, granted: bool) -> None:
        block = txn.msg.block
        requester = self._requester(txn)
        if granted:
            entry = self.directory.entry(block)
            entry.owners = {requester}
            entry.modified = True
            entry.exclusive = False
        self._send(
            MessageKind.MGRANTED,
            dst=self._cache_name(requester),
            block=block,
            flag=granted,
            requester=requester,
            meta={"txn": txn.msg.meta.get("txn")},
        )
        self._finish(txn)

    # ==================================================================
    # Ejects
    # ==================================================================
    def _do_eject(self, txn: _Txn) -> None:
        block = txn.msg.block
        requester = self._requester(txn)
        entry = self.directory.entry(block)
        if txn.msg.rw == "read":
            # A stale notice (copy invalidated in flight) is harmless
            # here: the presence vector already dropped the ejector, and
            # discarding a non-member is a no-op.
            entry.owners.discard(requester)
            if not entry.owners:
                entry.exclusive = False
            self.counters.add("eject_clean")
            self._send(
                MessageKind.EJECT_ACK,
                dst=txn.msg.src,
                block=block,
                meta={"ej": txn.msg.meta.get("ej")},
            )
            self._finish(txn)
            return
        key = (txn.msg.src, block)
        if key in self._eject_data:
            self._consume_eject_data(txn, self._eject_data.pop(key))
        else:
            txn.phase = "eject-data"

    def _consume_eject_data(self, txn: _Txn, version: int) -> None:
        block = txn.msg.block
        requester = self._requester(txn)
        entry = self.directory.entry(block)
        if entry.possibly_dirty and entry.owners == {requester}:
            done = self._use_memory()
            self.sim.post_at(done, self._absorb_writeback, txn, version)
        else:
            # Superseded by a purge that already collected the data.
            self.counters.add("eject_dropped_stale")
            self._ack_eject_and_finish(txn)

    def _absorb_writeback(self, txn: _Txn, version: int) -> None:
        block = txn.msg.block
        entry = self.directory.entry(block)
        self.module.write(block, version)
        entry.owners = set()
        entry.modified = False
        entry.exclusive = False
        self.counters.add("writebacks_absorbed")
        self._ack_eject_and_finish(txn)

    def _ack_eject_and_finish(self, txn: _Txn) -> None:
        self._send(MessageKind.EJECT_ACK, dst=txn.msg.src, block=txn.msg.block)
        self._finish(txn)

    # ==================================================================
    # Selective commands
    # ==================================================================
    def _invalidate_holders(self, txn: _Txn, holders: Set[int]) -> None:
        block = txn.msg.block
        requester = self._requester(txn)
        if self.config.options.scrub_queued_mrequests:
            removed = self.engine.scrub(
                block,
                lambda m: (
                    m.kind is MessageKind.MREQUEST and m.requester != requester
                ),
            )
            if removed:
                self.counters.add("mrequests_scrubbed", len(removed))
        targets = sorted(holders - {requester})
        txn.acks_expected = (
            len(targets) if self.config.options.invalidation_acks else 0
        )
        self.counters.add("invalidations_sent", len(targets))
        # §4.1: selective commands are handled sequentially — each
        # additional recipient costs selection/queueing time (0 by the
        # paper's simplifying assumption).
        stagger = self.config.timing.selective_send_overhead
        for i, pid in enumerate(targets):
            self.sim.post(
                i * stagger,
                partial(
                    self._send,
                    MessageKind.INVALIDATE,
                    dst=self._cache_name(pid),
                    block=block,
                    requester=requester,
                ),
            )
        if txn.acks_expected == 0:
            self._invalidations_done(txn)

    def _on_inv_ack(self, message: Message) -> None:
        txn = self._txns.get(message.block)
        if (
            txn is None
            or txn.phase != "inv-wait"
            or message.src in txn.ack_sources
        ):
            self.counters.add("stray_inv_acks")
            return
        txn.ack_sources.add(message.src)
        if len(txn.ack_sources) >= txn.acks_expected:
            self._invalidations_done(txn)

    def _invalidations_done(self, txn: _Txn) -> None:
        if txn.msg.kind is MessageKind.MREQUEST:
            self._grant_modify(txn, granted=True)
            return
        done = self._use_memory()
        self.sim.post_at(done, self._serve_write_from_memory, txn)

    def _purge_owner(self, txn: _Txn, rw: str) -> None:
        block = txn.msg.block
        entry = self.directory.entry(block)
        if len(entry.owners) != 1:
            raise RuntimeError(
                f"{self.name}: dirty/exclusive block {block} with owners "
                f"{entry.owners}"
            )
        (owner,) = entry.owners
        self.counters.add("purges_sent")
        self._send(
            MessageKind.PURGE,
            dst=self._cache_name(owner),
            block=block,
            rw=rw,
            requester=self._requester(txn),
        )

    # ==================================================================
    # Query answers
    # ==================================================================
    def _on_put(self, message: Message) -> None:
        if message.meta.get("for") == "eject":
            if not self._fault_dedupe(message, "ej"):
                return
            key = (message.src, message.block)
            txn = self._txns.get(message.block)
            assert message.version is not None
            if (
                txn is not None
                and txn.msg.kind is MessageKind.EJECT
                and txn.msg.src == message.src
                and txn.phase == "eject-data"
            ):
                self._consume_eject_data(txn, message.version)
            else:
                self._eject_data[key] = message.version
            return
        txn = self._txns.get(message.block)
        if txn is None or txn.phase != "query":
            if self.net.faults is not None:
                # A duplicated query answer (the first copy retired the
                # query): absorb it rather than treating the transport as
                # broken.
                self.counters.add("duplicate_query_data_dropped")
                return
            raise RuntimeError(f"{self.name}: unexpected query data {message!r}")
        assert message.version is not None
        txn.phase = "query-done"  # a second answer must fail loudly
        done = self._use_memory()
        self.sim.post_at(done, self._complete_query, txn, message, message.version)

    def _on_query_nocopy(self, message: Message) -> None:
        # The exclusive-clean owner answered a PURGE without data:
        # memory is current, serve from it.
        txn = self._txns.get(message.block)
        if txn is None or txn.phase != "query":
            self.counters.add("stray_query_nocopy")
            return
        self.counters.add("purge_found_clean")
        txn.phase = "query-done"
        done = self._use_memory()
        self.sim.post_at(done, self._complete_query, txn, message, None)

    def _complete_query(
        self, txn: _Txn, answer: Message, version: Optional[int]
    ) -> None:
        block = txn.msg.block
        entry = self.directory.entry(block)
        requester = self._requester(txn)
        responder = answer.requester
        if version is not None:
            self.module.write(block, version)
        else:
            version = self.module.read(block)
        is_write = txn.msg.rw == "write"
        if is_write:
            entry.owners = {requester}
            entry.modified = True
        else:
            entry.owners = {requester}
            keep_clean_copy = (
                not self.config.options.owner_invalidates_on_read_query
                and not answer.meta.get("from_wb")
                and responder is not None
            )
            if keep_clean_copy:
                entry.owners.add(responder)
            entry.modified = False
        entry.exclusive = False
        self._send_get(txn, version=version)
        self._finish(txn)

    # ==================================================================
    # Helpers
    # ==================================================================
    def _send_get(self, txn: _Txn, version: int, exclusive: bool = False) -> None:
        requester = self._requester(txn)
        # Echo the REQUEST uid so the cache can reject a duplicated grant
        # from an earlier miss on the same block (faults only).
        meta = {"txn": txn.msg.meta.get("txn")}
        if exclusive:
            meta["exclusive"] = True
        self._send(
            MessageKind.GET,
            dst=self._cache_name(requester),
            block=txn.msg.block,
            version=version,
            requester=requester,
            meta=meta,
        )
        self.counters.add("data_grants")

    @staticmethod
    def _cache_name(pid: int) -> str:
        return f"cache{pid}"

    def _requester(self, txn: _Txn) -> int:
        requester = txn.msg.requester
        if requester is None:
            raise ValueError(f"message without requester: {txn.msg!r}")
        return requester

    def _send(self, kind: MessageKind, dst: str, block: int, **fields) -> None:
        self.net.send(
            Message(kind=kind, src=self.name, dst=dst, block=block, **fields)
        )

    def quiescent(self) -> bool:
        return self.engine.idle and not self._txns and not self._eject_data
