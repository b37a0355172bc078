"""Interconnection network base class.

A network connects named components (caches, memory controllers).  Sending
is asynchronous: :meth:`Network.send` computes a delivery time from the
topology/contention model and schedules ``component.deliver(message)``.

Broadcast semantics follow the paper: a broadcast reaches every *cache*
except an excluded set (the requester); memory controllers never receive
broadcasts.  Networks track traffic counters used by the benchmarks:

* ``commands`` / ``data_transfers``: messages by class,
* ``traffic_units``: occupancy-weighted traffic (data counts DATA_SIZE),
* ``broadcasts`` and ``broadcast_deliveries``,
* ``wait_cycles``: cycles messages spent queued for a busy resource.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.interconnect.message import Message, MessageKind
from repro.sim.component import Component
from repro.sim.kernel import Simulator


class Network(Component):
    """Base interconnect: endpoint registry + broadcast fan-out."""

    def __init__(self, sim: Simulator, name: str = "net", latency: int = 4) -> None:
        super().__init__(sim, name)
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.latency = latency
        #: Optional :class:`repro.faults.FaultInjector`; installed by
        #: ``attach_faults``.  ``None`` keeps the send path untouched.
        self.faults = None
        self._endpoints: Dict[str, Component] = {}
        self._broadcast_group: List[str] = []
        #: Member name -> its bit in a broadcast ``targets`` mask.
        self._member_bits: Dict[str, int] = {}
        #: The per-copy seam: True delivers every broadcast copy as its
        #: own event even when the copy-holder index names the holders.
        #: Set by ``Machine.use_per_copy_fanout`` for the machines whose
        #: point is a per-event choice (fault draws, tie draws, model-
        #: checked schedules); never a configuration option.
        self.per_copy = False
        #: Bound ``deliver`` methods, cached at attach time — the send hot
        #: path skips the endpoint lookup + attribute fetch per message.
        self._deliver_fns: Dict[str, Callable[[Message], None]] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, component: Component, broadcast_member: bool = False) -> None:
        """Register ``component``; broadcast members receive broadcasts."""
        if component.name in self._endpoints:
            raise ValueError(f"duplicate endpoint name {component.name!r}")
        self._endpoints[component.name] = component
        self._deliver_fns[component.name] = component.deliver
        if broadcast_member:
            self._member_bits[component.name] = 1 << len(self._broadcast_group)
            self._broadcast_group.append(component.name)

    def endpoint(self, name: str) -> Component:
        try:
            return self._endpoints[name]
        except KeyError:
            raise KeyError(f"no endpoint named {name!r} on {self.name}") from None

    @property
    def endpoints(self) -> List[str]:
        return sorted(self._endpoints)

    @property
    def broadcast_group(self) -> List[str]:
        return list(self._broadcast_group)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Transmit a point-to-point message."""
        if message.dst is None:
            raise ValueError("point-to-point send requires a destination")
        try:
            deliver = self._deliver_fns[message.dst]
        except KeyError:
            raise KeyError(
                f"no endpoint named {message.dst!r} on {self.name}"
            ) from None
        self._account(message)
        delivery = self._delivery_time(message)
        if self.faults is not None:
            delivery = self.faults.on_deliver(self, message, deliver, delivery)
        obs = self.sim.obs
        if obs is not None:
            obs.on_send(message, self.sim.now, delivery, track=self.name)
        self.sim.post_at(delivery, deliver, message)

    def broadcast(
        self,
        message: Message,
        exclude: Optional[Iterable[str]] = None,
        targets: Optional[int] = None,
    ) -> int:
        """Deliver copies of ``message`` to the broadcast group.

        Returns the number of recipients.  ``message.dst`` is rewritten per
        recipient so handlers see who the copy was addressed to.

        ``targets`` is the copy-holder index's bitmask of the members
        that may hold a copy (bit ``i`` is the ``i``-th member; the
        builder attaches caches in pid order, so bit ``p`` is cache
        ``p``).  Only those members receive their copy as an event.
        Every other recipient is charged, at its copy's arrival, exactly
        what a copy would have cost it — the command and traffic here,
        its useless snoop and stolen cycle, the INV_ACK it owes — without
        an event of its own (see :meth:`_absent_round`).  ``targets=None``
        or a :attr:`per_copy` network delivers every copy as an event.
        """
        excluded: Set[str] = set(exclude or ())
        excluded.add(message.src)
        recipients = [n for n in self._broadcast_group if n not in excluded]
        self.counters.add("broadcasts")
        self.counters.add("broadcast_deliveries", len(recipients))
        obs = self.sim.obs
        if obs is not None:
            # Before _broadcast_times: bus subclasses deliver the copies
            # inside that hook and return [].
            obs.on_broadcast(
                message, self.sim.now, len(recipients), excluded,
                track=self.name,
            )
        if targets is None or self.per_copy:
            for name in self._broadcast_times(message, recipients):
                copy = message.copy_for(name)
                self._account(copy)
                delivery = self._delivery_time(copy)
                deliver = self._deliver_fns[name]
                if self.faults is not None:
                    delivery = self.faults.on_deliver(self, copy, deliver, delivery)
                self.sim.post_at(delivery, deliver, copy)
        else:
            self._fan_out(message, recipients, excluded, targets)
        return len(recipients)

    def _fan_out(
        self,
        message: Message,
        recipients: List[str],
        excluded: Set[str],
        targets: int,
    ) -> None:
        """Holder-index fan-out on a fixed-latency network.

        Every copy of a round lands ``latency`` cycles from now, the
        copies in consecutive queue positions, and each touches only its
        own cache.  So the absent recipients' copies collapse, exactly,
        into one :meth:`_absent_round` event right after the real ones.
        """
        bits = self._member_bits
        post_at = self.sim.post_at
        when = self.sim.now + self.latency
        exempt = [name for name in excluded if name in bits]
        absent: List[str] = []
        for name in recipients:
            if targets & bits[name]:
                exempt.append(name)
                copy = message.copy_for(name)
                self._account(copy)
                post_at(when, self._deliver_fns[name], copy)
            else:
                absent.append(name)
        if absent:
            self._account_many(message.kind, len(absent))
            post_at(when, self._absent_round, message, absent, exempt)

    def _absent_round(
        self, message: Message, absent: List[str], exempt: List[str]
    ) -> None:
        """Broadcast copies reaching the caches the holder index rules out.

        Each is charged its useless snoop (``exempt`` names the rest of
        the group; see ``charge_useless_snoops``).  With invalidation
        acks on, each owes the sender an INV_ACK for a BROADINV.  Those
        land in the same cycle, right after the acks of the round's real
        copies; an ack that is not the round's last only records its
        sender, and the round still completes on its last ack, so one
        ``deliver_acks`` event is exact.  Each ack is still charged (and
        reported to telemetry).
        """
        endpoints = self._endpoints
        cache = endpoints[absent[0]]
        cache.charge_useless_snoops(
            (endpoints[name] for name in absent),
            [endpoints[name] for name in exempt],
        )
        if (
            message.kind is not MessageKind.BROADINV
            or not cache.config.options.invalidation_acks
        ):
            return
        now = self.sim.now
        delivery = now + self.latency
        self._account_many(MessageKind.INV_ACK, len(absent))
        obs = self.sim.obs
        if obs is not None:
            for name in absent:
                ack = Message(
                    kind=MessageKind.INV_ACK,
                    src=name,
                    dst=message.src,
                    block=message.block,
                    requester=endpoints[name].pid,
                    meta={"had_copy": False},
                )
                obs.on_send(ack, now, delivery, track=self.name)
        self.sim.post_at(
            delivery, endpoints[message.src].deliver_acks, message.block, absent
        )

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _delivery_time(self, message: Message) -> int:
        """Absolute cycle at which ``message`` reaches its destination."""
        return self.sim.now + self.latency

    def _broadcast_times(
        self, message: Message, recipients: List[str]
    ) -> List[str]:
        """Hook letting subclasses reorder/meter broadcast recipients."""
        return recipients

    def _account(self, message: Message) -> None:
        add = self.counters.add
        add("data_transfers" if message.is_data else "commands")
        add("traffic_units", message.size)

    def _account_many(self, kind: MessageKind, count: int) -> None:
        """:meth:`_account` for ``count`` messages of ``kind``."""
        add = self.counters.add
        add("data_transfers" if kind.is_data_kind else "commands", count)
        add("traffic_units", kind.wire_size * count)


class PointToPointNetwork(Network):
    """Idealised crossbar: fixed latency, infinite bandwidth.

    The paper's analysis assumes command timing is independent of the
    network; this model realizes that assumption and is the default for
    the directory protocols.  Broadcasts cost one message per recipient
    (no hardware broadcast), as in a general interconnection network.
    """

    def __init__(self, sim: Simulator, name: str = "xbar", latency: int = 4) -> None:
        super().__init__(sim, name, latency)
