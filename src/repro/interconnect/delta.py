"""Multistage delta (omega-style) network.

Figure 3-1 connects n processor-cache pairs to m controller-memory modules
through a general interconnection network; a delta network built from
``radix x radix`` switches is the canonical scalable choice.  We model two
unidirectional planes (forward: cache side -> memory side; reverse: memory
side -> cache side).  Each switch output link is a serial resource: a
message holds the link for ``size`` cycles per hop, so broadcasts — which
in a delta network are n-1 separate messages — create real contention,
reproducing the paper's caveat that "broadcasts do increase the
probability of conflicts in the interconnection network".
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.interconnect.message import Message
from repro.interconnect.network import Network
from repro.sim.component import Component
from repro.sim.kernel import Simulator


def _stages_for(ports: int, radix: int) -> int:
    """Number of switch stages needed to reach ``ports`` endpoints."""
    stages = 1
    while radix**stages < ports:
        stages += 1
    return stages


class DeltaNetwork(Network):
    """Blocking multistage interconnect with per-link serialization."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "delta",
        latency: int = 1,
        radix: int = 2,
    ) -> None:
        # ``latency`` here is the per-hop propagation time.
        super().__init__(sim, name, latency)
        if radix < 2:
            raise ValueError("radix must be >= 2")
        self.radix = radix
        self._ports: Dict[str, Tuple[str, int]] = {}  # name -> (side, port)
        self._side_counts = {"proc": 0, "mem": 0}
        # (plane, stage, link) -> busy-until time
        self._port_busy: Dict[Tuple[str, int, int], int] = {}
        # (plane, src_port, dst_port) -> hop list; routes are static once
        # the topology is built, so the per-message digit arithmetic is
        # paid once per (source, destination) pair rather than per hop
        # per message.
        self._route_cache: Dict[
            Tuple[str, int, int], List[Tuple[str, int, int]]
        ] = {}
        self._built_stages = self.n_stages

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach_port(
        self, component: Component, side: str, broadcast_member: bool = False
    ) -> int:
        """Attach on ``side`` ("proc" or "mem"); returns the port number."""
        if side not in ("proc", "mem"):
            raise ValueError("side must be 'proc' or 'mem'")
        super().attach(component, broadcast_member=broadcast_member)
        port = self._side_counts[side]
        self._side_counts[side] += 1
        self._ports[component.name] = (side, port)
        self._route_cache.clear()  # stage count may change as ports attach
        stages = self.n_stages
        if stages != self._built_stages:
            # The fabric grew a stage: every (plane, stage, link) key now
            # names a different physical link, so stale busy-until
            # entries would charge phantom contention.
            self._built_stages = stages
            self._port_busy.clear()
        return port

    def attach(self, component: Component, broadcast_member: bool = False) -> None:
        raise TypeError("use attach_port(component, side=...) on a DeltaNetwork")

    @property
    def n_stages(self) -> int:
        ports = max(self._side_counts.values(), default=1)
        return _stages_for(max(ports, 2), self.radix)

    # ------------------------------------------------------------------
    # Routing & contention
    # ------------------------------------------------------------------
    def _route(
        self, plane: str, src_port: int, dst_port: int
    ) -> List[Tuple[str, int, int]]:
        """Switch output links traversed from ``src_port`` to ``dst_port``.

        Omega-style destination-tag routing, source-aware: after stage s
        the message sits on the link whose label keeps the low
        ``stages-1-s`` radix digits of the *source* and has absorbed the
        high ``s+1`` digits of the *destination*.  Distinct sources
        therefore only share links once their paths have actually merged
        (at the final stage they all share the destination's output
        link), instead of charging every source for every hop of every
        other message to the same destination.
        """
        stages = self.n_stages
        radix = self.radix
        hops = []
        for stage in range(stages):
            rem = radix ** (stages - stage - 1)
            link = (src_port % rem) * (radix ** (stage + 1)) + dst_port // rem
            hops.append((plane, stage, link))
        return hops

    def _traverse(
        self, plane: str, src_port: int, dst_port: int, size: int
    ) -> int:
        """Walk the route reserving each hop; return arrival time."""
        key = (plane, src_port, dst_port)
        route = self._route_cache.get(key)
        if route is None:
            route = self._route_cache[key] = self._route(
                plane, src_port, dst_port
            )
        time = self.sim.now
        port_busy = self._port_busy
        latency = self.latency
        add = self.counters.add
        for hop in route:
            free_at = port_busy.get(hop, 0)
            start = max(time, free_at)
            wait = start - time
            if wait:
                add("wait_cycles", wait)
            end = start + size * 1  # one cycle per size unit per hop
            port_busy[hop] = end
            time = end + latency
            add("hop_cycles", size)
        return time

    def broadcast(self, message, exclude=None, targets=None) -> int:
        # Every copy is its own message on the fabric, arriving at its
        # own cycle (the paper's caveat that broadcasts "increase the
        # probability of conflicts"), so each stays its own event.
        return super().broadcast(message, exclude)

    def _delivery_time(self, message: Message) -> int:
        side, dst_port = self._ports[message.dst]  # type: ignore[index]
        plane = "fwd" if side == "mem" else "rev"
        src = self._ports.get(message.src)
        src_port = src[1] if src is not None else 0
        return self._traverse(plane, src_port, dst_port, message.size)
