"""The two-bit directory memory controller — the paper's contribution.

One controller fronts each memory module (Figure 3-1's ``K_j``) and owns
the two-bit map for that module's blocks.  It implements the §3.2
protocols:

* ``REQUEST(k, a, rw)`` — read/write miss service, including the
  ``BROADQUERY`` retrieval of a dirty block from its unknown owner;
* ``MREQUEST(k, a)`` — write-hit-on-unmodified grants, including the
  ``BROADINV`` + queued-MREQUEST-scrub race of §3.2.5;
* ``EJECT(k, a, wb)`` — replacement notices, with the stale write-back
  drop rule for ejects superseded by a query response (DESIGN.md #2);
* both §3.2.5 controller designs via the transaction engine
  (``serialization="global"`` or ``"block"``).

The §4.4 translation buffer, when enabled, converts broadcasts into
selective ``INVALIDATE``/``PURGE`` commands on owner-identity hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.core.states import GlobalState, TwoBitDirectory
from repro.core.translation_buffer import TranslationBuffer
from repro.interconnect.holders import CopyHolderIndex
from repro.interconnect.message import Message, MessageKind
from repro.interconnect.network import Network
from repro.memory.module import MemoryModule
from repro.protocols.base import AbstractMemoryController
from repro.protocols.engine import TransactionEngine
from repro.sim.kernel import SimClock, Simulator
from repro.config import MachineConfig


@dataclass
class _Txn:
    """Book-keeping for one in-flight controller transaction."""

    msg: Message
    phase: str = "start"
    acks_expected: int = 0
    #: Distinct caches that acked the invalidation round (identity-based
    #: so a duplicated ack can never over-credit the round).
    ack_sources: Set[str] = field(default_factory=set)
    #: True when the pending invalidation round was sent selectively.
    selective: bool = False
    #: Owner pids a selective query/invalidation targeted.
    targets: Set[int] = field(default_factory=set)
    #: Set when an MREQ_CANCEL caught this transaction *after* it left
    #: the queue and became active (the §3.2.5 late race): dispatch and
    #: the invalidation round must retire it without granting.
    cancelled: bool = False


class TwoBitDirectoryController(AbstractMemoryController):
    """Home controller implementing the two-bit scheme."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        config: MachineConfig,
        net: Network,
        module: MemoryModule,
        n_caches: int,
        holders_fn: Optional[Callable[[int], Set[int]]] = None,
    ) -> None:
        super().__init__(sim, index, config)
        self.net = net
        self.module = module
        self.n_caches = n_caches
        self.holders_fn = holders_fn
        opts = config.options
        self.directory = TwoBitDirectory(
            blocks=(b for b in range(config.n_blocks) if module.owns(b)),
            clock=SimClock(sim),
            keep_present1=opts.keep_present1,
        )
        self.directory.observer = self._state_changed
        self.engine = TransactionEngine(self._begin, opts.serialization)
        self.tbuf = TranslationBuffer(
            capacity=opts.translation_buffer_entries,
            forced_hit_ratio=opts.tbuf_forced_hit_ratio,
            seed=config.seed + index,
        )
        #: Simulator-side copy-holder index for this module's blocks
        #: (not protocol state — the two-bit map still only knows
        #: *whether* copies exist): broadcasts deliver events only to
        #: its members (see ``Network.broadcast``).
        self.holders = CopyHolderIndex()
        self._txns: Dict[int, _Txn] = {}
        #: put(for="eject") data parked until its EJECT transaction runs.
        self._eject_data: Dict[Tuple[str, int], int] = {}
        #: (cache name, block) ejects superseded by a query response.
        self._superseded: Set[Tuple[str, int]] = set()
        #: (cache name, block) -> eject uid revoked by the cache because
        #: an invalidation crossed the clean-eject notice.
        self._revoked_ejects: Dict[Tuple[str, int], int] = {}
        #: (cache name, block) -> MREQUEST uid withdrawn by MREQ_CANCEL;
        #: checked again at dispatch so a cancel that arrives in the same
        #: cycle as the final INV_ACK (possible under randomized event
        #: tie-breaking) still blocks the phantom grant.
        self._cancelled_mreqs: Dict[Tuple[str, int], int] = {}
        #: (cache name, MREQUEST uid) pairs this controller scrubbed from
        #: the queue during an invalidation round; the sender's
        #: MREQ_CANCEL for them must be absorbed here, not parked as a
        #: dispatch marker that nothing will ever consume.
        self._scrubbed_mreqs: Set[Tuple[str, Optional[int]]] = set()
        # Message dispatch: kind -> handler *name*, resolved per delivery
        # with getattr so subclass overrides and instance-level patching
        # keep working.  Initiating commands (REQUEST/MREQUEST/EJECT)
        # share the admit-and-serialize entry; the rest are
        # transaction-internal responses.
        self._deliver_table = {
            MessageKind.REQUEST: "_admit_initiating",
            MessageKind.MREQUEST: "_admit_initiating",
            MessageKind.EJECT: "_admit_initiating",
            MessageKind.PUT: "_on_put",
            MessageKind.INV_ACK: "_on_inv_ack",
            MessageKind.QUERY_NOCOPY: "_on_query_nocopy",
            MessageKind.MREQ_CANCEL: "_admit_mreq_cancel",
            MessageKind.EJECT_REVOKE: "_admit_eject_revoke",
        }

    # ==================================================================
    # Network interface
    # ==================================================================
    def deliver(self, message: Message) -> None:
        handler = self._deliver_table.get(message.kind)
        if handler is None:
            raise ValueError(f"{self.name} cannot handle {message!r}")
        getattr(self, handler)(message)

    def _admit_initiating(self, message: Message) -> None:
        if not self._fault_admit(message):
            return
        self.counters.add(f"rx_{message.kind.name.lower()}")
        self.engine.submit(message)

    def _admit_mreq_cancel(self, message: Message) -> None:
        if not self._fault_dedupe(message, "txn"):
            return
        self._on_mreq_cancel(message)

    def _admit_eject_revoke(self, message: Message) -> None:
        if not self._fault_dedupe(message, "ej"):
            return
        self._revoked_ejects[(message.src, message.block)] = message.meta["ej"]

    def _state_changed(
        self, block: int, old: GlobalState, new: GlobalState
    ) -> None:
        """Directory transition probe (installed as ``directory.observer``)."""
        obs = self.sim.obs
        if obs is not None:
            obs.on_state(self.name, self.sim.now, block, old, new)

    def _on_mreq_cancel(self, message: Message) -> None:
        """Withdraw a queued MREQUEST whose sender converted to a write
        miss (see DESIGN.md ambiguity #6 — granting it would create a
        phantom owner)."""
        removed = self.engine.scrub(
            message.block,
            lambda m: (
                m.kind is MessageKind.MREQUEST
                and m.src == message.src
                and m.meta.get("txn") == message.meta.get("txn")
            ),
        )
        self.counters.add("mrequests_cancelled", len(removed))
        if removed:
            return
        uid = message.meta.get("txn")
        scrub_key = (message.src, uid)
        if scrub_key in self._scrubbed_mreqs:
            # This controller already deleted the MREQUEST itself when it
            # launched an invalidation round; the cancel is confirmation,
            # not work.
            self._scrubbed_mreqs.discard(scrub_key)
            self.counters.add("mreq_cancels_for_scrubbed")
            return
        active = self._txns.get(message.block)
        if (
            active is not None
            and active.msg.kind is MessageKind.MREQUEST
            and active.msg.src == message.src
            and active.msg.meta.get("txn") == uid
        ):
            # Late race: the MREQUEST left the queue and is the active
            # transaction (possibly mid-invalidation-round).  Flag it so
            # dispatch / round completion retire it without granting.
            active.cancelled = True
            self.counters.add("mrequests_cancelled_active")
            return
        # The MREQUEST transaction already finished (it was denied before
        # the cancel landed) or was never admitted (NAKed under a fault
        # plan): leave a marker; the sender's conversion REQUEST — which
        # follows the cancel on the same FIFO path — sweeps it in _begin.
        self._cancelled_mreqs[(message.src, message.block)] = uid

    # ==================================================================
    # Transaction dispatch
    # ==================================================================
    def _begin(self, message: Message) -> None:
        key = (message.src, message.block)
        if message.kind is not MessageKind.MREQUEST:
            # A cancel marker that survived to see a *different* command
            # from the same cache is stale: the cancelled MREQUEST is
            # long gone and this is (at latest) the sender's conversion
            # REQUEST, which FIFO guarantees follows the cancel.
            if self._cancelled_mreqs.pop(key, None) is not None:
                self.counters.add("stale_cancel_markers_dropped")
        if message.kind is not MessageKind.EJECT and self.net.faults is None:
            # Same sweep for revoke markers a late EJECT_REVOKE parked
            # after its eject was already processed.  Under a fault plan
            # the sweep must NOT run: a NAKed eject keeps retrying, so
            # its revoke marker may legitimately outlive intervening
            # commands from the same cache (e.g. a re-fetch REQUEST) —
            # the retried EJECT itself consumes the marker.
            if self._revoked_ejects.pop(key, None) is not None:
                self.counters.add("stale_revoke_markers_dropped")
        txn = _Txn(msg=message)
        self._txns[message.block] = txn
        done = self.sim.now + self.config.timing.directory_access
        self.counters.add("transactions")
        self.sim.post_at(done, self._dispatch, txn)

    def _dispatch(self, txn: _Txn) -> None:
        msg = txn.msg
        obs = self.sim.obs
        if (
            obs is not None
            and msg.requester is not None
            and msg.kind in (MessageKind.REQUEST, MessageKind.MREQUEST)
        ):
            # EJECTs also carry a requester, but they service the victim
            # block — marking them would pollute the requester's active
            # miss span with an unrelated directory visit.
            obs.span_phase(msg.requester, self.sim.now, "directory")
        if msg.kind is MessageKind.REQUEST:
            if msg.rw == "read":
                self._do_read_request(txn)
            else:
                self._do_write_request(txn)
        elif msg.kind is MessageKind.MREQUEST:
            self._do_mrequest(txn)
        elif msg.kind is MessageKind.EJECT:
            self._do_eject(txn)
        else:  # pragma: no cover - submit() filters kinds
            raise AssertionError(f"unexpected transaction {msg!r}")

    def _finish(self, txn: _Txn) -> None:
        block = txn.msg.block
        del self._txns[block]
        self.engine.complete(block)

    # ==================================================================
    # §3.2.2 read miss
    # ==================================================================
    def _do_read_request(self, txn: _Txn) -> None:
        block = txn.msg.block
        state = self.directory.state(block)
        requester = self._requester(txn)
        if state is GlobalState.PRESENTM:
            if self._absorb_self_eject(txn):
                return
            # Case 2: retrieve from the (unknown) owning cache.
            txn.phase = "query"
            self._send_query(txn, rw="read")
            return
        # Case 1: memory is current.
        if state is GlobalState.ABSENT:
            next_state = GlobalState.PRESENT1
            self.tbuf.establish(block, {requester})
            self.holders.set_only(block, requester)
        else:
            next_state = GlobalState.PRESENT_STAR
            self.tbuf.add_owner(block, requester)
            self.holders.add(block, requester)
        done = self._use_memory()
        self.sim.post_at(done, self._grant_data_and_finish, txn, next_state, None)

    # ==================================================================
    # §3.2.3 write miss
    # ==================================================================
    def _do_write_request(self, txn: _Txn) -> None:
        block = txn.msg.block
        state = self.directory.state(block)
        if state is GlobalState.ABSENT:
            # Case 1: plain fetch.
            self.tbuf.establish(block, {self._requester(txn)})
            self.holders.set_only(block, self._requester(txn))
            done = self._use_memory()
            self.sim.post_at(
                done, self._grant_data_and_finish, txn, GlobalState.PRESENTM, None
            )
            return
        if state is GlobalState.PRESENTM:
            if self._absorb_self_eject(txn):
                return
            # Case 3: purge the dirty owner, then grant.
            txn.phase = "query"
            self._send_query(txn, rw="write")
            return
        # Case 2: invalidate all (unknown) copies, then grant.
        txn.phase = "inv"
        self._send_invalidations(txn)

    def _absorb_self_eject(self, txn: _Txn) -> bool:
        """True if the requester itself is the dirty owner (NAKed EJECT).

        Only reachable under a fault plan: the requester's EJECT notice
        was NAKed while this later REQUEST was admitted, inverting the
        per-path command order.  Its write-back put — sent *before* the
        REQUEST, so already delivered — sits parked in ``_eject_data``;
        querying instead would hang, since the broadcast excludes the
        requester and no other cache holds the block.  Absorb the
        write-back, arrange for the still-retrying notice to be dropped
        when it finally lands, and re-dispatch against current memory.
        """
        block = txn.msg.block
        key = (txn.msg.src, block)
        if key in self._superseded:
            # The parked data was already outrun by a query answer: the
            # dirty copy moved on to another cache, so the real owner
            # must be queried normally.
            return False
        version = self._eject_data.pop(key, None)
        if version is None:
            return False
        self.counters.add("self_requests_absorbed_eject")
        self._superseded.add(key)
        done = self._use_memory()
        self.sim.post_at(done, self._absorb_and_redispatch, txn, version)
        return True

    def _absorb_and_redispatch(self, txn: _Txn, version: int) -> None:
        block = txn.msg.block
        self.module.write(block, version)
        self.directory.set_state(block, GlobalState.ABSENT)
        self.tbuf.establish(block, set())
        self.holders.clear(block)
        self.counters.add("writebacks_absorbed")
        self._dispatch(txn)

    # ==================================================================
    # §3.2.4 write hit on previously unmodified block
    # ==================================================================
    def _do_mrequest(self, txn: _Txn) -> None:
        block = txn.msg.block
        state = self.directory.state(block)
        requester = self._requester(txn)
        marker = self._cancelled_mreqs.pop((txn.msg.src, block), None)
        if txn.cancelled or (
            marker is not None and marker == txn.msg.meta.get("txn")
        ):
            # Withdrawn in flight: the sender already converted to a
            # write miss and holds no copy; granting would fabricate an
            # owner.  No reply — the sender expects none.
            self.counters.add("mrequests_cancelled_at_dispatch")
            self._finish(txn)
            return
        if state is GlobalState.PRESENT1:
            # Case 1: the requester holds the only copy — grant at once.
            # (This is the payoff for keeping the Present1 encoding.)
            self.counters.add("mreq_granted_present1")
            self._grant_modify(txn, granted=True)
            return
        if state is GlobalState.PRESENT_STAR:
            # Case 2: invalidate the other copies first.
            txn.phase = "inv"
            self._send_invalidations(txn)
            return
        # PresentM or Absent: the requester lost a race; deny (§3.2.5 —
        # the cache will reissue as a write miss).
        self.counters.add("mreq_denied")
        self._grant_modify(txn, granted=False)

    def _grant_modify(self, txn: _Txn, granted: bool) -> None:
        block = txn.msg.block
        requester = self._requester(txn)
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(requester, self.sim.now, "grant")
        if granted:
            self.directory.set_state(block, GlobalState.PRESENTM)
            self.tbuf.establish(block, {requester})
            self.holders.set_only(block, requester)
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
    # §3.2.1 replacement notices
    # ==================================================================
    def _do_eject(self, txn: _Txn) -> None:
        block = txn.msg.block
        if txn.msg.rw == "read":
            self._do_eject_clean(txn)
            return
        # Dirty eject: wait for the put(b_k, olda) data transfer.
        key = (txn.msg.src, block)
        if key in self._superseded:
            # The write-back was consumed out of band (query answer from
            # the ejector's buffer, or a self-REQUEST absorbing a NAKed
            # eject's parked put): there is no data to wait for.
            self._superseded.discard(key)
            self._eject_data.pop(key, None)
            self.counters.add("eject_dropped_superseded")
            self._ack_eject_and_finish(txn)
            return
        if key in self._eject_data:
            self._consume_eject_data(txn, self._eject_data.pop(key))
        else:
            txn.phase = "eject-data"

    def _do_eject_clean(self, txn: _Txn) -> None:
        block = txn.msg.block
        state = self.directory.state(block)
        requester = self._requester(txn)
        key = (txn.msg.src, block)
        marker = self._revoked_ejects.pop(key, None)
        if marker is not None and marker == txn.msg.meta.get("ej"):
            # The ejector's copy was invalidated while this notice flew;
            # acting on it would destroy the new holder's Present1 state
            # (or corrupt the translation buffer).  Drop it.
            self.counters.add("eject_dropped_revoked")
            self._ack_clean_eject_and_finish(txn)
            return
        if state is GlobalState.PRESENT1:
            # The sole copy is gone: Present1 -> Absent (the transition
            # that reduces later broadcasts, §3.2.1 note).
            self.directory.set_state(block, GlobalState.ABSENT)
            self.tbuf.establish(block, set())
            self.holders.clear(block)
            self.counters.add("eject_present1_to_absent")
        elif state is GlobalState.PRESENT_STAR:
            # Stays Present* — the directory cannot know the count.
            self.tbuf.drop_owner(block, requester)
            self.holders.discard(block, requester)
            self.counters.add("eject_present_star")
        else:
            # Stale notice (copy was invalidated while the EJECT flew).
            # Holder index untouched: the invalidation round's set_only
            # already removed the ejector; under a fault plan a NAK-
            # reordered refetch could even make it a holder again, so a
            # hygiene discard here would break the superset invariant.
            self.counters.add("eject_stale_clean")
        self._ack_clean_eject_and_finish(txn)

    def _ack_clean_eject_and_finish(self, txn: _Txn) -> None:
        self._send(
            MessageKind.EJECT_ACK,
            dst=txn.msg.src,
            block=txn.msg.block,
            meta={"ej": txn.msg.meta.get("ej")},
        )
        self._finish(txn)

    def _consume_eject_data(self, txn: _Txn, version: int) -> None:
        block = txn.msg.block
        key = (txn.msg.src, block)
        state = self.directory.state(block)
        if key in self._superseded:
            # The data already reached us via a BROADQUERY answer.
            self._superseded.discard(key)
            self.counters.add("eject_dropped_superseded")
            self._ack_eject_and_finish(txn)
            return
        if state is not GlobalState.PRESENTM:
            self.counters.add("eject_dropped_stale")
            self._ack_eject_and_finish(txn)
            return
        done = self._use_memory()
        self.sim.post_at(done, self._absorb_writeback, txn, version)

    def _absorb_writeback(self, txn: _Txn, version: int) -> None:
        block = txn.msg.block
        self.module.write(block, version)
        self.directory.set_state(block, GlobalState.ABSENT)
        self.tbuf.establish(block, set())
        self.holders.clear(block)
        self.counters.add("writebacks_absorbed")
        self._ack_eject_and_finish(txn)

    def _ack_eject_and_finish(self, txn: _Txn) -> None:
        self._send(
            MessageKind.EJECT_ACK,
            dst=txn.msg.src,
            block=txn.msg.block,
        )
        self._finish(txn)

    # ==================================================================
    # Invalidation rounds (BROADINV or selective INVALIDATE)
    # ==================================================================
    def _send_invalidations(self, txn: _Txn) -> None:
        block = txn.msg.block
        requester = self._requester(txn)
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(requester, self.sim.now, "fanout")
        opts = self.config.options
        if opts.scrub_queued_mrequests:
            removed = self.engine.scrub(
                block,
                lambda m: (
                    m.kind is MessageKind.MREQUEST and m.requester != requester
                ),
            )
            if removed:
                self.counters.add("mrequests_scrubbed", len(removed))
                for m in removed:
                    # Each scrubbed sender is about to be invalidated,
                    # convert, and send MREQ_CANCEL for this uid; record
                    # it so that cancel is absorbed instead of parked.
                    self._scrubbed_mreqs.add((m.src, m.meta.get("txn")))
        targets = self._selective_targets(block, exclude=requester)
        if targets is not None:
            txn.selective = True
            txn.targets = targets
            txn.acks_expected = len(targets) if opts.invalidation_acks else 0
            self.counters.add("selective_invalidations", len(targets))
            # §4.1: selective sends are sequential (recipient selection +
            # message handling), unlike a broadcast's single launch.
            stagger = self.config.timing.selective_send_overhead
            for i, pid in enumerate(sorted(targets)):
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
        else:
            sent = self.net.broadcast(
                Message(
                    kind=MessageKind.BROADINV,
                    src=self.name,
                    dst=None,
                    block=block,
                    requester=requester,
                ),
                exclude={self._cache_name(requester)},
                targets=self.holders.mask(block),
            )
            txn.acks_expected = sent if opts.invalidation_acks else 0
            self.counters.add("broadinv_sent")
            self.counters.add("broadinv_commands", sent)
        # Every other copy is now doomed; collapsing the index at send
        # time (like the tbuf above/below) keeps a second round in the
        # delivery window correct, because same-path FIFO delivers this
        # round's invalidations first.
        self.holders.set_only(block, requester)
        if txn.acks_expected == 0:
            self._invalidations_done(txn)
        else:
            txn.phase = "inv-wait"

    def _on_inv_ack(self, message: Message) -> None:
        self.deliver_acks(message.block, (message.src,))

    def deliver_acks(self, block: int, srcs: Sequence[str]) -> None:
        """INV_ACKs for ``block`` from ``srcs``, in arrival order.

        The network delivers the acks of caches the holder index ruled
        out as one call (see ``Network._absent_round``); each counts exactly
        as its own delivery would.
        """
        for src in srcs:
            txn = self._txns.get(block)
            if txn is None or txn.phase != "inv-wait" or src in txn.ack_sources:
                self.counters.add("stray_inv_acks")
                continue
            txn.ack_sources.add(src)
            if len(txn.ack_sources) >= txn.acks_expected:
                self._invalidations_done(txn)

    def _invalidations_done(self, txn: _Txn) -> None:
        block = txn.msg.block
        requester = self._requester(txn)
        if txn.msg.kind is MessageKind.MREQUEST and txn.cancelled:
            # The requester withdrew mid-round; granting now would
            # fabricate an owner that holds no copy.  The round's
            # invalidations stand, so force the buffer back to
            # "don't know" rather than asserting a phantom owner set.
            self.tbuf.invalidate(block)
            self.counters.add("mrequests_cancelled_mid_round")
            self._finish(txn)
            return
        self.tbuf.establish(block, {requester})
        if txn.msg.kind is MessageKind.MREQUEST:
            self._grant_modify(txn, granted=True)
            return
        # Write miss: now fetch the (current) memory copy.
        done = self._use_memory()
        self.sim.post_at(
            done, self._grant_data_and_finish, txn, GlobalState.PRESENTM, None
        )

    # ==================================================================
    # Query rounds (BROADQUERY or selective PURGE)
    # ==================================================================
    def _send_query(self, txn: _Txn, rw: str, force_broadcast: bool = False) -> None:
        block = txn.msg.block
        requester = self._requester(txn)
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(requester, self.sim.now, "fanout")
        targets = (
            None
            if force_broadcast
            else self._selective_targets(block, exclude=requester)
        )
        if targets is not None and len(targets) == 1:
            txn.selective = True
            txn.targets = targets
            (owner,) = targets
            self.counters.add("selective_purges")
            self._send(
                MessageKind.PURGE,
                dst=self._cache_name(owner),
                block=block,
                rw=rw,
                requester=requester,
            )
        else:
            sent = self.net.broadcast(
                Message(
                    kind=MessageKind.BROADQUERY,
                    src=self.name,
                    dst=None,
                    block=block,
                    rw=rw,
                    requester=requester,
                ),
                exclude={self._cache_name(requester)},
                targets=self.holders.mask(block),
            )
            self.counters.add("broadquery_sent")
            self.counters.add("broadquery_commands", sent)

    def _on_put(self, message: Message) -> None:
        if message.meta.get("for") == "eject":
            if not self._fault_dedupe(message, "ej"):
                return
            key = (message.src, message.block)
            txn = self._txns.get(message.block)
            if (
                txn is not None
                and txn.msg.kind is MessageKind.EJECT
                and txn.msg.src == message.src
                and txn.phase == "eject-data"
            ):
                assert message.version is not None
                self._consume_eject_data(txn, message.version)
            else:
                assert message.version is not None
                self._eject_data[key] = message.version
            return
        # Answer to an outstanding query.
        txn = self._txns.get(message.block)
        if txn is None or txn.phase != "query":
            if self.net.faults is not None:
                # Duplicated query answers are an injected fault, not a
                # broken transport: absorb them (the first copy was
                # consumed and retired the query).
                self.counters.add("duplicate_query_data_dropped")
                return
            raise RuntimeError(f"{self.name}: unexpected query data {message!r}")
        if message.meta.get("from_wb"):
            # The owner's own EJECT for this block is now stale.
            self._superseded.add((message.src, message.block))
        assert message.version is not None
        self._query_answered(txn, message)

    def _on_query_nocopy(self, message: Message) -> None:
        # Two-bit queries are only broadcast when the state is PresentM,
        # so data always arrives; NOCOPY answers occur only for the
        # selective PURGE path racing an eject that we already absorbed.
        self.counters.add("query_nocopy")
        txn = self._txns.get(message.block)
        if txn is None or txn.phase != "query":
            return
        if message.meta.get("had_clean"):
            # Owner held a clean copy (paper-literal read-query mode can
            # produce this); memory is current — serve from memory.
            txn.phase = "query-done"
            self.holders.add(message.block, self._requester(txn))
            done = self._use_memory()
            next_state = self._post_query_state(txn)
            self.sim.post_at(done, self._grant_data_and_finish, txn, next_state, None)
        elif txn.selective:
            # A selective PURGE found nothing (stale buffer entry after a
            # race): fall back to the unmodified scheme's broadcast.
            txn.selective = False
            self.counters.add("purge_fallback_broadcasts")
            self.tbuf.invalidate(message.block)
            self._send_query(
                txn,
                rw=txn.msg.rw or "read",
                force_broadcast=True,
            )

    def _query_answered(self, txn: _Txn, put: Message) -> None:
        """Write the purged data back, then forward it to the requester."""
        # Exactly one data response may be consumed; a second (possible
        # only with a corrupted/lossy transport) must fail loudly.
        txn.phase = "query-done"
        block = txn.msg.block
        requester = self._requester(txn)
        responder = put.requester
        done = self._use_memory()
        next_state = self._post_query_state(txn)
        owners: Set[int] = {requester}
        if (
            txn.msg.kind is MessageKind.REQUEST
            and txn.msg.rw == "read"
            and not self.config.options.owner_invalidates_on_read_query
            and not put.meta.get("from_wb")
            and responder is not None
        ):
            owners.add(responder)
        self.tbuf.establish(block, owners)
        self.holders.replace(block, owners)
        self.counters.add("query_writebacks")
        self.sim.post_at(done, self._grant_data_and_finish, txn, next_state, put.version)

    def _post_query_state(self, txn: _Txn) -> GlobalState:
        if txn.msg.rw == "write" or txn.msg.kind is MessageKind.MREQUEST:
            return GlobalState.PRESENTM
        if self.config.options.owner_invalidates_on_read_query:
            # Paper-literal §3.2.2 case 2: SETSTATE(a, "Present1").
            return GlobalState.PRESENT1
        return GlobalState.PRESENT_STAR

    # ==================================================================
    # Data grants
    # ==================================================================
    def _grant_data_and_finish(
        self, txn: _Txn, next_state: GlobalState, version: Optional[int]
    ) -> None:
        """Send get(k, a) to the requester and retire the transaction.

        ``version`` is the purged data when it came from a cache; None
        means serve from (and leave) the memory copy.
        """
        block = txn.msg.block
        requester = self._requester(txn)
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(requester, self.sim.now, "grant")
        if version is None:
            version = self.module.read(block)
        else:
            self.module.write(block, version)
        self.directory.set_state(block, next_state)
        self._send(
            MessageKind.GET,
            dst=self._cache_name(requester),
            block=block,
            version=version,
            requester=requester,
            # Echo the REQUEST uid so the cache can reject a duplicated
            # grant from an earlier miss on the same block (faults only).
            meta={"txn": txn.msg.meta.get("txn")},
        )
        self.counters.add("data_grants")
        self._finish(txn)

    # ==================================================================
    # Translation buffer / selective-send decision
    # ==================================================================
    def _selective_targets(self, block: int, exclude: int) -> Optional[Set[int]]:
        """Owner pids to address selectively, or None to broadcast."""
        if not self.tbuf.enabled:
            return None
        if self.tbuf.forced_hit_ratio is not None:
            if self.tbuf.forced_hit():
                if self.holders_fn is None:
                    raise RuntimeError(
                        "tbuf_forced_hit_ratio requires a holders_fn oracle"
                    )
                return {p for p in self.holders_fn(block) if p != exclude}
            return None
        owners = self.tbuf.lookup(block)
        if owners is None:
            return None
        return {p for p in owners if p != exclude}

    # ==================================================================
    # Helpers
    # ==================================================================
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
        # _revoked_ejects is deliberately absent: a revoke that raced an
        # already-processed eject legitimately parks a marker that only a
        # later command from the same (cache, block) sweeps (see _begin);
        # it is bounded by (caches x blocks) and value-inert.
        return (
            self.engine.idle
            and not self._txns
            and not self._eject_data
            and not self._superseded
            and not self._cancelled_mreqs
            and not self._scrubbed_mreqs
        )
