"""Cache-side controller for the directory protocols.

This one class implements the processor-cache ``P_k - C_k`` behaviour of
§3.2 and is shared by the two-bit scheme and the full-map baselines: the
only difference a cache sees between them is whether coherence commands
arrive as broadcasts (``BROADINV``/``BROADQUERY``) or selectively
(``INVALIDATE``/``PURGE``), and the handling is identical.

Responsibilities:

* classify LOAD/STORE into the four §3.2 instances (replacement, read
  miss, write miss, write hit on unmodified block) and run the protocols;
* answer coherence commands, stealing array cycles (§4.4's duplicate
  directory, when enabled, filters absent-block commands for free);
* survive the §3.2.5 races: a ``BROADINV`` received while an ``MREQUEST``
  is pending acts as ``MGRANTED(false)`` and the store is reissued as a
  write miss;
* keep ejected dirty blocks in a write-back buffer until the home
  controller consumes them, so a ``BROADQUERY`` racing an ``EJECT`` can
  still be answered with data (DESIGN.md ambiguity #2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cache.array import CacheArray
from repro.cache.line import CacheLine, LocalState
from repro.cache.replacement import make_policy
from repro.cache.wbbuffer import MissingWriteBackEntry, WriteBackBuffer
from repro.faults.plan import DEFAULT_MAX_RETRIES, DEFAULT_RETRY_BACKOFF
from repro.interconnect.message import Message, MessageKind
from repro.interconnect.network import Network
from repro.protocols.base import (
    AbstractCacheController,
    AccessCallback,
    AccessResult,
    ProtocolError,
)
from repro.sim.kernel import Simulator
from repro.config import MachineConfig
from repro.verification.oracle import CoherenceOracle
from repro.workloads.reference import MemRef

_op_uids = itertools.count(1)


@dataclass
class PendingOp:
    """The single outstanding processor reference being serviced."""

    ref: MemRef
    callback: AccessCallback
    issue_time: int
    #: "mreq" while waiting for MGRANTED; "miss" while waiting for GET.
    phase: str
    uid: int
    #: GET arrived; the fill is scheduled on the array (transient state).
    data_received: bool = False
    #: An invalidation crossed the in-flight fill: the arriving data must
    #: not be installed (the read may still complete with it uncached).
    stale: bool = False
    #: Queries that arrived between our GET and the fill completing; they
    #: target the copy we are about to install and are answered after it.
    deferred: List[Message] = field(default_factory=list)
    #: NAK recovery: how often this op has been resent, and whether a
    #: resend is already scheduled (a duplicated NAK must not fork the
    #: transaction into two concurrent resends).
    retries: int = 0
    retry_scheduled: bool = False


class DirectoryCacheController(AbstractCacheController):
    """Write-back cache controller speaking the directory protocols."""

    USELESS_SNOOP_COUNTERS = (
        *AbstractCacheController.USELESS_SNOOP_COUNTERS,
        "broadcast_useless",
    )

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
        self.wb_buffer = WriteBackBuffer(capacity=config.options.wb_capacity)
        self.pending: Optional[PendingOp] = None
        self._op_in_progress = False
        #: Clean ejects awaiting EJECT_ACK, block -> eject uid.  Needed to
        #: revoke an eject notice made stale by a crossing invalidation
        #: (DESIGN.md ambiguity #7).
        self._inflight_clean_ejects: dict = {}
        #: Eject uids whose EJECT_REVOKE already went out.  A second
        #: invalidation round before the EJECT_ACK would otherwise
        #: resend the (idempotent) revoke; sending it once per notice
        #: keeps per-copy delivery identical to the holder-index fan-out,
        #: which stops addressing this cache after the first round
        #: removes it from the copy-holder index.
        self._eject_revokes_sent: set = set()
        #: Dirty ejects awaiting EJECT_ACK, block -> eject uid; lets a NAK
        #: name the eject it refused and a retry resend just the notice
        #: (the data transfer already arrived and is parked at the home).
        self._dirty_eject_uids: dict = {}
        #: (block, eject uid) -> resend count under NAK recovery.
        self._eject_retries: dict = {}
        #: (block, eject uid) pairs with a resend already scheduled.
        self._eject_retry_scheduled: set = set()
        # Message dispatch: kind -> handler *name*, resolved per delivery
        # with getattr so subclass overrides and instance-level patching
        # (the model checker's bug injectors) keep working.  Aliased
        # kinds (broadcast vs selective) share one handler on purpose:
        # the cache's reaction is identical, only the sender's targeting
        # differs.
        self._deliver_table = {
            MessageKind.GET: "_on_get",
            MessageKind.MGRANTED: "_on_mgranted",
            MessageKind.BROADINV: "_on_invalidate",
            MessageKind.INVALIDATE: "_on_invalidate",
            MessageKind.BROADQUERY: "_on_query",
            MessageKind.PURGE: "_on_query",
            MessageKind.EJECT_ACK: "_on_eject_ack",
            MessageKind.NAK: "_on_nak",
        }

    # ==================================================================
    # Processor interface
    # ==================================================================
    def access(self, ref: MemRef, callback: AccessCallback) -> None:
        if self.pending is not None or self._op_in_progress:
            raise RuntimeError(f"{self.name} already has an outstanding reference")
        if ref.pid != self.pid:
            raise ValueError(f"{self.name} got a reference for P{ref.pid}")
        self._op_in_progress = True
        issue_time = self.sim.now
        self.counters.add("refs")
        self.counters.add("writes" if ref.is_write else "reads")
        done = self._use_array(stolen=False)
        self.sim.post_at(done, self._classify, ref, callback, issue_time)

    def _classify(self, ref: MemRef, callback: AccessCallback, issue_time: int) -> None:
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(ref.pid, self.sim.now, "lookup")
        line = self.array.lookup(ref.block)
        if line is not None:
            self.array.touch(line)
            if not ref.is_write:
                self.counters.add("read_hits")
                self._finish_read(ref, callback, issue_time, line.version, hit=True)
                return
            if line.modified:
                self.counters.add("write_hits")
                self._perform_write(line, ref, callback, issue_time, hit=True)
                return
            # §3.2.4: write hit on previously unmodified block.
            self.counters.add("write_hits_unmodified")
            if obs is not None:
                # Sticks even if the MREQUEST is denied and converted to
                # a write miss (§3.2.5), so span counts match the
                # write_hits_unmodified counter exactly.
                obs.span_outcome(ref.pid, "WH-unmod")
            self._write_hit_unmodified(line, ref, callback, issue_time)
            return
        # Miss: replacement (§3.2.1) then REQUEST (§3.2.2 / §3.2.3).
        self.counters.add("write_misses" if ref.is_write else "read_misses")
        if obs is not None:
            obs.span_outcome(ref.pid, "WM" if ref.is_write else "RM")
        self._begin_miss(ref, callback, issue_time, 0)

    def _begin_miss(
        self,
        ref: MemRef,
        callback: AccessCallback,
        issue_time: int,
        attempt: int,
    ) -> None:
        """Evict the victim and issue the REQUEST — unless the eviction
        needs a write-back slot and the buffer is full, in which case the
        miss backs off and retries (structured backpressure; the buffer
        drains as EJECT_ACKs arrive)."""
        if self.net.faults is not None and (
            ref.block in self._dirty_eject_uids
            or ref.block in self._inflight_clean_ejects
        ):
            # Our own EJECT of this very block is still bouncing on
            # NAKs.  Re-requesting now inverts admission order at the
            # home: the REQUEST gets served, then the late EJECT lands
            # and destroys the fresh grant's directory state (clean
            # case) or absorbs a stale write-back over it (dirty case).
            # Hold the miss until the eject is acked; the eject's own
            # give-up bound caps how long that can take.
            if attempt >= 4 * self._max_retries():
                raise ProtocolError(
                    f"{self.name}: miss on block {ref.block} stalled "
                    f"behind its own in-flight eject after {attempt} "
                    "backoff attempts"
                )
            self.counters.add("self_eject_miss_stalls")
            self._note_retry(ref.pid)
            self.sim.post(
                self._backoff_delay(attempt + 1),
                self._begin_miss, ref, callback, issue_time, attempt + 1,
            )
            return
        frame = self.array.frame_for(ref.block)
        if frame.valid and frame.modified and self.wb_buffer.full:
            if attempt >= self._max_retries():
                raise ProtocolError(
                    f"{self.name}: write-back buffer still full after "
                    f"{attempt} backoff attempts (miss on block {ref.block})"
                )
            self.counters.add("wb_backpressure_stalls")
            self._note_retry(ref.pid)
            self.sim.post(
                self._backoff_delay(attempt + 1),
                self._begin_miss, ref, callback, issue_time, attempt + 1,
            )
            return
        self._evict_frame(frame)
        self.pending = PendingOp(
            ref=ref,
            callback=callback,
            issue_time=issue_time,
            phase="miss",
            uid=next(_op_uids),
        )
        self._send(
            MessageKind.REQUEST,
            dst=self.home_fn(ref.block),
            block=ref.block,
            rw="write" if ref.is_write else "read",
            meta={"txn": self.pending.uid},
        )

    def _write_hit_unmodified(
        self,
        line: CacheLine,
        ref: MemRef,
        callback: AccessCallback,
        issue_time: int,
    ) -> None:
        """Ask the home controller for modification rights (MREQUEST).

        The local-state protocol variant overrides this to upgrade
        silently when the line is exclusive-clean.
        """
        self.pending = PendingOp(
            ref=ref,
            callback=callback,
            issue_time=issue_time,
            phase="mreq",
            uid=next(_op_uids),
        )
        self._send(
            MessageKind.MREQUEST,
            dst=self.home_fn(ref.block),
            block=ref.block,
            meta={"txn": self.pending.uid},
        )

    def _evict_victim(self, incoming_block: int) -> None:
        """§3.2.1 replacement protocol for the frame ``incoming_block``
        will occupy."""
        self._evict_frame(self.array.frame_for(incoming_block))

    def _evict_frame(self, frame: CacheLine) -> None:
        # Split from _evict_victim so the backpressured miss path can
        # consult the frame without re-running the replacement policy
        # (a second policy draw would perturb seeded victim selection).
        if not frame.valid:
            return  # case 1: valid bit off, nothing to do
        victim = frame.block
        assert victim is not None
        home = self.home_fn(victim)
        if frame.modified:
            # case 3: EJECT(k, olda, "write") followed by put(b_k, olda).
            self.counters.add("ejects_dirty")
            self.wb_buffer.insert(victim, frame.version)
            uid = next(_op_uids)
            self._dirty_eject_uids[victim] = uid
            self._send(
                MessageKind.EJECT,
                dst=home,
                block=victim,
                rw="write",
                meta={"ej": uid},
            )
            self._send(
                MessageKind.PUT,
                dst=home,
                block=victim,
                version=frame.version,
                meta={"for": "eject", "ej": uid},
            )
        else:
            # case 2: EJECT(k, olda, "read"); keeping Present1 accurate.
            self.counters.add("ejects_clean")
            uid = next(_op_uids)
            self._inflight_clean_ejects[victim] = uid
            self._send(
                MessageKind.EJECT,
                dst=home,
                block=victim,
                rw="read",
                meta={"ej": uid},
            )
        frame.reset()

    # ==================================================================
    # Completion paths
    # ==================================================================
    def _finish_read(
        self,
        ref: MemRef,
        callback: AccessCallback,
        issue_time: int,
        version: int,
        hit: bool,
    ) -> None:
        self.oracle.check_read(ref.block, version, issue_time, self.pid)
        self._complete(ref, callback, issue_time, hit, version)

    def _perform_write(
        self,
        line: CacheLine,
        ref: MemRef,
        callback: AccessCallback,
        issue_time: int,
        hit: bool,
    ) -> None:
        """Linearization point of a store: the line takes a new version."""
        version = self.oracle.new_version()
        line.version = version
        line.modified = True
        self.oracle.commit_write(ref.block, version, self.sim.now, self.pid)
        self._complete(ref, callback, issue_time, hit, version)

    def _complete(
        self,
        ref: MemRef,
        callback: AccessCallback,
        issue_time: int,
        hit: bool,
        version: int,
    ) -> None:
        self._op_in_progress = False
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

    # ==================================================================
    # Network interface
    # ==================================================================
    def deliver(self, message: Message) -> None:
        handler = self._deliver_table.get(message.kind)
        if handler is None:
            raise ValueError(f"{self.name} cannot handle {message!r}")
        getattr(self, handler)(message)

    def _on_eject_ack(self, message: Message) -> None:
        block = message.block
        if "ej" in message.meta:
            ej = message.meta["ej"]
            if self._inflight_clean_ejects.get(block) == ej:
                del self._inflight_clean_ejects[block]
            self._eject_revokes_sent.discard(ej)
            # Retire the acked generation's retry budget even when a
            # newer eject of the same block has replaced the in-flight
            # entry: the ack is the last word on that uid, and a NAKed
            # generation's counter would otherwise leak past quiescence.
            self._forget_eject_retry(block, ej)
            return
        uid = self._dirty_eject_uids.pop(block, None)
        if uid is not None:
            self._forget_eject_retry(block, uid)
        if block not in self.wb_buffer and self.net.faults is not None:
            # A duplicated ack for an eject already released: absorb it.
            self.counters.add("duplicate_eject_acks_dropped")
            return
        self.wb_buffer.release(block)

    # ------------------------------------------------------------------
    # Miss data arrival
    # ------------------------------------------------------------------
    def _on_get(self, message: Message) -> None:
        pending = self.pending
        txn = message.meta.get("txn")
        if (
            pending is None
            or pending.phase != "miss"
            or pending.ref.block != message.block
            # The fill occupies the array for a few cycles before
            # ``_fill_and_complete`` clears ``pending``; a duplicate of
            # the *same* GET landing inside that window would otherwise
            # pass every guard and complete the access twice.
            or pending.data_received
            # Under a fault plan a duplicated GET from an *earlier* miss
            # on the same block could masquerade as this miss's fill;
            # the grant echoes the REQUEST uid so it can't.
            or (
                self.net.faults is not None
                and txn is not None
                and txn != pending.uid
            )
        ):
            if self.net.faults is not None:
                # A duplicated GET for a miss already filled: absorb it
                # (the injected copy carries the same data the consumed
                # original did).
                self.counters.add("duplicate_gets_dropped")
                return
            raise RuntimeError(
                f"{self.name}: unexpected data arrival {message!r}"
            )
        pending.data_received = True
        done = self._use_array(stolen=False)
        self.sim.post_at(done, self._fill_and_complete, message, pending)

    def _fill_and_complete(self, message: Message, pending: PendingOp) -> None:
        self.pending = None
        assert message.version is not None
        if pending.stale:
            # An invalidation crossed the fill: the data was current when
            # our transaction was serialized, so a read may still consume
            # it, but it must not be cached.
            if pending.ref.is_write:
                raise RuntimeError(
                    f"{self.name}: write-miss fill invalidated in flight "
                    "(must be impossible under per-block serialization)"
                )
            self.counters.add("stale_fills_uncached")
            self._finish_read(
                pending.ref,
                pending.callback,
                pending.issue_time,
                message.version,
                hit=False,
            )
            self._replay_deferred(pending)
            return
        line = self.array.fill(
            pending.ref.block, version=message.version, modified=False
        )
        if message.meta.get("exclusive"):
            line.local = LocalState.EXCLUSIVE
        if pending.ref.is_write:
            self._perform_write(
                line, pending.ref, pending.callback, pending.issue_time, hit=False
            )
        else:
            self._finish_read(
                pending.ref,
                pending.callback,
                pending.issue_time,
                message.version,
                hit=False,
            )
        self._replay_deferred(pending)

    def _replay_deferred(self, pending: PendingOp) -> None:
        """Answer queries that arrived while the fill was in flight."""
        for message in pending.deferred:
            self.counters.add("deferred_queries_replayed")
            self._on_query(message)

    # ------------------------------------------------------------------
    # NAK recovery (fault plans only): bounded retry with backoff
    # ------------------------------------------------------------------
    def _fault_spec(self):
        faults = self.net.faults
        return None if faults is None else faults.spec

    def _max_retries(self) -> int:
        spec = self._fault_spec()
        return spec.max_retries if spec is not None else DEFAULT_MAX_RETRIES

    def _backoff_delay(self, attempt: int) -> int:
        spec = self._fault_spec()
        base = spec.retry_backoff if spec is not None else DEFAULT_RETRY_BACKOFF
        return base << min(attempt - 1, 4)

    def _note_retry(self, pid: int) -> None:
        self.counters.add("retries_scheduled")
        obs = self.sim.obs
        if obs is not None:
            obs.span_phase(pid, self.sim.now, "retry")

    def _forget_eject_retry(self, block: int, uid: int) -> None:
        self._eject_retries.pop((block, uid), None)
        self._eject_retry_scheduled.discard((block, uid))

    def _on_nak(self, message: Message) -> None:
        kind = message.meta.get("kind")
        block = message.block
        if kind in ("REQUEST", "MREQUEST"):
            pending = self.pending
            expected = "miss" if kind == "REQUEST" else "mreq"
            if (
                pending is None
                or pending.phase != expected
                or pending.ref.block != block
                or message.meta.get("txn") != pending.uid
            ):
                # The op converted or completed while the NAK flew.
                self.counters.add("stale_naks")
                return
            if pending.retry_scheduled:
                self.counters.add("duplicate_naks_dropped")
                return
            if pending.retries >= self._max_retries():
                raise ProtocolError(
                    f"{self.name}: {kind} for block {block} NAKed "
                    f"{pending.retries + 1} times; giving up"
                )
            pending.retries += 1
            pending.retry_scheduled = True
            self._note_retry(pending.ref.pid)
            self.sim.post(
                self._backoff_delay(pending.retries),
                self._retry_pending, kind, block, pending.uid,
            )
        elif kind == "EJECT":
            uid = message.meta.get("ej")
            key = (block, uid)
            if (
                self._dirty_eject_uids.get(block) != uid
                and self._inflight_clean_ejects.get(block) != uid
            ):
                self.counters.add("stale_naks")
                return
            if key in self._eject_retry_scheduled:
                self.counters.add("duplicate_naks_dropped")
                return
            attempts = self._eject_retries.get(key, 0)
            if attempts >= self._max_retries():
                raise ProtocolError(
                    f"{self.name}: EJECT for block {block} NAKed "
                    f"{attempts + 1} times; giving up"
                )
            self._eject_retries[key] = attempts + 1
            self._eject_retry_scheduled.add(key)
            self._note_retry(self.pid)
            self.sim.post(
                self._backoff_delay(attempts + 1), self._retry_eject, block, uid
            )
        else:
            self.counters.add("stale_naks")

    def _retry_pending(self, kind: str, block: int, uid: int) -> None:
        pending = self.pending
        expected = "miss" if kind == "REQUEST" else "mreq"
        if (
            pending is None
            or pending.phase != expected
            or pending.ref.block != block
            or pending.uid != uid
        ):
            # Converted (BROADINV turned the MREQUEST into a write miss)
            # or otherwise superseded while the backoff ran.
            self.counters.add("retries_abandoned")
            return
        pending.retry_scheduled = False
        self.counters.add("retries_sent")
        if kind == "REQUEST":
            self._send(
                MessageKind.REQUEST,
                dst=self.home_fn(block),
                block=block,
                rw="write" if pending.ref.is_write else "read",
                meta={"txn": uid},
            )
        else:
            self._send(
                MessageKind.MREQUEST,
                dst=self.home_fn(block),
                block=block,
                meta={"txn": uid},
            )

    def _retry_eject(self, block: int, uid: int) -> None:
        key = (block, uid)
        self._eject_retry_scheduled.discard(key)
        if self._dirty_eject_uids.get(block) == uid:
            rw = "write"
        elif self._inflight_clean_ejects.get(block) == uid:
            rw = "read"
        else:
            # Acked while the backoff ran (the NAKed original was
            # admitted after the stall window closed).
            self.counters.add("retries_abandoned")
            return
        self.counters.add("retries_sent")
        # Resend only the notice: for a dirty eject the put(b_k, olda)
        # data transfer was never NAKed and is parked at the home.
        self._send(
            MessageKind.EJECT,
            dst=self.home_fn(block),
            block=block,
            rw=rw,
            meta={"ej": uid},
        )

    # ------------------------------------------------------------------
    # Modification grants
    # ------------------------------------------------------------------
    def _on_mgranted(self, message: Message) -> None:
        pending = self.pending
        if (
            pending is None
            or pending.phase != "mreq"
            or pending.ref.block != message.block
            or message.meta.get("txn") != pending.uid
        ):
            # Stale grant for an MREQUEST we already converted (§3.2.5).
            self.counters.add("stale_mgranted")
            return
        if message.flag:
            line = self.array.lookup(message.block)
            if line is None:
                raise RuntimeError(
                    f"{self.name}: MGRANTED(true) for a block we lost"
                )
            self.pending = None
            self._perform_write(
                line, pending.ref, pending.callback, pending.issue_time, hit=True
            )
            return
        # MGRANTED(false): our copy is stale; reissue as a write miss.
        self.counters.add("mgranted_denied")
        self._convert_mreq_to_write_miss(invalidate_line=True)

    def _convert_mreq_to_write_miss(self, invalidate_line: bool) -> None:
        pending = self.pending
        assert pending is not None and pending.phase == "mreq"
        if invalidate_line:
            line = self.array.lookup(pending.ref.block)
            if line is not None:
                line.reset()
        self.counters.add("mreq_converted_to_miss")
        if not invalidate_line:
            # Conversion triggered by a BROADINV: our MREQUEST may still
            # be queued at the controller, and granting it later — when we
            # no longer hold a copy — would install a phantom owner.  The
            # cancel is sent *before* our INV_ACK, so per-path FIFO
            # guarantees it reaches the controller before the
            # invalidation round (which waits on that ack) can complete.
            self._send(
                MessageKind.MREQ_CANCEL,
                dst=self.home_fn(pending.ref.block),
                block=pending.ref.block,
                meta={"txn": pending.uid},
            )
        pending.phase = "miss"
        pending.uid = next(_op_uids)
        # Fresh command, fresh retry budget: a NAK against the new
        # REQUEST must not be mistaken for a duplicate of one answered
        # while we were still an MREQUEST (the scheduled retry, if any,
        # drops itself on the uid mismatch).
        pending.retries = 0
        pending.retry_scheduled = False
        self._send(
            MessageKind.REQUEST,
            dst=self.home_fn(pending.ref.block),
            block=pending.ref.block,
            rw="write",
            meta={"txn": pending.uid},
        )

    # ------------------------------------------------------------------
    # Invalidations
    # ------------------------------------------------------------------
    def _on_invalidate(self, message: Message) -> None:
        if message.requester == self.pid:
            # The k parameter of BROADINV(a,k): never invalidate the
            # requester's own copy (§3.2.4 case 2).
            return
        line = self.array.lookup(message.block)
        present = line is not None
        self._snoop_cost(message, useful=present)
        if line is not None:
            line.reset()
            self.counters.add("invalidations_applied")
        elif (
            message.block in self._inflight_clean_ejects
            and self._inflight_clean_ejects[message.block]
            not in self._eject_revokes_sent
        ):
            # Our clean EJECT for this block is in flight and the block is
            # being invalidated: the notice is stale and, processed later,
            # would wrongly collapse Present1 to Absent for the *new*
            # holder.  Revoke it — sent before our INV_ACK, so per-path
            # FIFO gets it there before this invalidation round completes.
            # Once per notice: the revoke is idempotent at the controller.
            self.counters.add("clean_ejects_revoked")
            self._eject_revokes_sent.add(
                self._inflight_clean_ejects[message.block]
            )
            self._send(
                MessageKind.EJECT_REVOKE,
                dst=self.home_fn(message.block),
                block=message.block,
                meta={"ej": self._inflight_clean_ejects[message.block]},
            )
        pending = self.pending
        if (
            pending is not None
            and pending.phase == "mreq"
            and pending.ref.block == message.block
        ):
            # §3.2.5: treat the BROADINV as MGRANTED(false).
            self._convert_mreq_to_write_miss(invalidate_line=False)
        elif (
            pending is not None
            and pending.phase == "miss"
            and pending.ref.block == message.block
            and pending.data_received
        ):
            # The invalidation targets the copy our in-flight fill is
            # about to install (our transaction was serialized first, so
            # the GET is already here): poison the fill.
            pending.stale = True
            self.counters.add("fills_invalidated_in_flight")
        if self.config.options.invalidation_acks:
            self._send(
                MessageKind.INV_ACK,
                dst=message.src,
                block=message.block,
                meta={"had_copy": present},
            )

    # ------------------------------------------------------------------
    # Queries (locate + purge the modified owner)
    # ------------------------------------------------------------------
    def _on_query(self, message: Message) -> None:
        block = message.block
        pending = self.pending
        if (
            pending is not None
            and pending.phase == "miss"
            and pending.ref.block == block
            and pending.data_received
            and not pending.stale
        ):
            # We are the logical owner but the data is still being
            # installed: answer once the fill completes.
            pending.deferred.append(message)
            self.counters.add("queries_deferred")
            return
        line = self.array.lookup(block)
        wb_entry = self.wb_buffer.get(block)
        rw = message.rw or "read"
        if line is not None and line.modified:
            self._snoop_cost(message, useful=True)
            version = line.version
            if rw == "read":
                if self.config.options.owner_invalidates_on_read_query:
                    line.reset()  # paper-literal §3.2.2: state becomes Present1
                else:
                    line.modified = False  # keep a clean copy (Present*)
            else:
                line.reset()  # §3.2.3 case 3: reset the valid bit
            self.counters.add("query_data_supplied")
            self._send(
                MessageKind.PUT,
                dst=message.src,
                block=block,
                version=version,
                meta={"for": "query", "from_wb": False},
            )
            return
        if wb_entry is not None and not wb_entry.superseded:
            # Eject in flight: answer from the write-back buffer.
            self._snoop_cost(message, useful=True)
            self.wb_buffer.supersede(block)
            self.counters.add("query_answered_from_wb_buffer")
            self._send(
                MessageKind.PUT,
                dst=message.src,
                block=block,
                version=wb_entry.version,
                meta={"for": "query", "from_wb": True},
            )
            return
        if line is not None:
            # Clean copy queried: normal for the local-state protocol
            # (exclusive-clean PURGE), anomalous for the others.
            self._snoop_cost(message, useful=True)
            self.counters.add("query_found_clean_copy")
            if rw == "write" or self.config.options.owner_invalidates_on_read_query:
                # In the paper-literal mode the directory records only the
                # requester after a read query, so the queried copy must go.
                line.reset()
            else:
                line.local = LocalState.NONE
            self._send(
                MessageKind.QUERY_NOCOPY,
                dst=message.src,
                block=block,
                meta={"had_clean": True},
            )
            return
        # No copy at all: the broadcast reached an uninvolved cache.
        self._snoop_cost(message, useful=False)
        if message.kind is MessageKind.PURGE:
            # Selective protocols expect an answer from the addressee.
            self._send(
                MessageKind.QUERY_NOCOPY,
                dst=message.src,
                block=block,
                meta={"had_clean": False},
            )

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _snoop_cost(self, message: Message, useful: bool) -> None:
        """Array occupancy + the paper's extra-command metric."""
        broadcast = message.kind in (MessageKind.BROADINV, MessageKind.BROADQUERY)
        self.counters.add("snoop_commands")
        if useful:
            self.counters.add("snoop_useful")
        else:
            self.counters.add("snoop_useless")
            if broadcast:
                self.counters.add("broadcast_useless")
        if useful or not self.config.options.duplicate_directory:
            self._use_array(stolen=True)
        else:
            self.counters.add("snoops_filtered_by_dup_directory")

    def _send(self, kind: MessageKind, dst: str, block: int, **fields) -> None:
        fields.setdefault("requester", self.pid)
        self.net.send(
            Message(kind=kind, src=self.name, dst=dst, block=block, **fields)
        )

    # ------------------------------------------------------------------
    # Introspection for audits
    # ------------------------------------------------------------------
    def holds(self, block: int) -> Optional[CacheLine]:
        return self.array.lookup(block)

    def quiescent(self) -> bool:
        """No outstanding reference and no in-flight eject bookkeeping."""
        return (
            self.pending is None
            and len(self.wb_buffer) == 0
            and not self._inflight_clean_ejects
            and not self._dirty_eject_uids
            and not self._eject_retries
        )
