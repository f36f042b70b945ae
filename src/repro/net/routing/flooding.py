"""Controlled flooding: sequence-number-deduplicated rebroadcast.

The simplest protocol that can carry ping/traceroute traffic — useful as
a baseline in the protocol-comparison experiment (§IV-A.1: users "may
install each protocol sequentially, and measure the protocol
performance") and as the delivery mechanism of last resort when greedy
geographic forwarding gets stuck.

Every node rebroadcasts each packet it has not seen before, until the TTL
budget runs out.  Duplicate suppression is a bounded LRU of (origin, seq)
pairs, sized for mote-class memory.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.mac.frame import BROADCAST
from repro.net.packet import ANY_NODE, Packet
from repro.net.ports import WellKnownPorts
from repro.net.routing.base import MSG_DATA, RoutingProtocol
from repro.radio.medium import FrameArrival

__all__ = ["FloodingProtocol"]

#: Default hop budget for floods (chains in the paper's testbed are 8 hops).
DEFAULT_FLOOD_TTL = 10

#: (origin, seq) pairs the duplicate filter remembers.
DEDUP_CAPACITY = 64
#: Max random delay (seconds) before rebroadcasting.  Without it every
#: node that heard a packet rebroadcasts within one CSMA backoff window
#: and the flood's second generation collides with itself.
FORWARD_JITTER = 0.02


class FloodingProtocol(RoutingProtocol):
    """Dedup-controlled flooding on port 12."""

    port = WellKnownPorts.FLOODING
    name = "flooding"
    protocol_kind = "flood"

    def __init__(self, node):
        super().__init__(node)
        self._seen: OrderedDict[tuple[int, int], None] = OrderedDict()
        self._jitter_rng = node.rng.stream(f"flood.jitter.{node.id}")

    def send(self, dest: int, inner_port: int, payload: bytes = b"", *,
             padding: bool = False, ttl: int = DEFAULT_FLOOD_TTL,
             kind: str | None = None,
             initial_quality=None) -> bool:
        return super().send(dest, inner_port, payload, padding=padding,
                            ttl=ttl, kind=kind,
                            initial_quality=initial_quality)

    # -- dedup ------------------------------------------------------------

    def _already_seen(self, packet: Packet) -> bool:
        key = (packet.origin, packet.seq)
        if key in self._seen:
            self._seen.move_to_end(key)
            return True
        self._seen[key] = None
        if len(self._seen) > DEDUP_CAPACITY:
            self._seen.popitem(last=False)
        return False

    # -- receive/forward -------------------------------------------------------

    def _on_packet(self, packet: Packet, arrival: FrameArrival | None) -> None:
        monitor = self.node.monitor
        if arrival is not None and self.node.neighbors.is_blacklisted(
                arrival.sender):
            monitor.count("routing.blacklist_drops")
            self._trace_drop(packet, "blacklisted", sender=arrival.sender)
            return
        msg_type = packet.payload[0] if packet.payload else MSG_DATA
        if msg_type != MSG_DATA:
            self._handle_control(msg_type, packet, arrival)
            return
        if self._already_seen(packet):
            monitor.count("flood.duplicates")
            self._trace_drop(packet, "duplicate")
            return
        if arrival is not None and packet.padding_enabled:
            try:
                packet.add_hop_quality(arrival.lqi, arrival.rssi)
            except Exception:
                monitor.count("routing.padding_drops")
                self._trace_drop(packet, "padding_overflow")
                return
        if packet.dest in (self.node.id, ANY_NODE):
            self._deliver(packet, arrival)
            if packet.dest != ANY_NODE:
                return
        # Not (only) for us: keep the flood going while TTL lasts.  The
        # origin's first transmission goes out immediately (via send());
        # rebroadcasts at intermediate hops are jittered to desynchronise
        # the flood generations.
        if arrival is None:
            self._forward(packet, kind=self.protocol_kind)
        else:
            self.node.env.process(
                self._jittered_forward(packet),
                name=f"flood-fwd-{self.node.id}",
            )

    def _jittered_forward(self, packet: Packet):
        yield self.node.env.timeout(
            float(self._jitter_rng.uniform(0.0, FORWARD_JITTER))
        )
        self._forward(packet, kind=self.protocol_kind)

    def next_hop(self, packet: Packet) -> int | None:
        return BROADCAST
