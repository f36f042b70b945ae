"""Routing-protocol framework: port-isolated, padding-aware forwarding.

Every routing protocol is a subscriber on its own port (the paper's
traceroute example: "we let the geographic forwarding protocol listen on
the port number 10").  Applications hand a payload and an *inner port* to
a protocol; the protocol wraps it, moves it hop by hop, and at the final
destination re-dispatches it on the inner port.  Protocols therefore need
zero knowledge of the applications above them and vice versa — the
paper's "complete isolation between the command module and the protocol
module", which is what lets ping/traceroute switch protocols at runtime
via a ``port=`` parameter.

Routed payload layout::

    msg_type    1 B   MSG_DATA for application traffic; protocols may
                      define further types (e.g. DSDV route adverts)
    inner_port  1 B   (MSG_DATA only) port to dispatch at the destination
    body        rest

Link-quality padding (§IV-C.3) is applied here, at each receiving hop,
before any forwarding decision: when a packet has padding enabled, the
incoming link's (LQI, RSSI) pair is appended to the padding region.
"""

from __future__ import annotations

import abc
import typing as _t
from dataclasses import replace

from repro.errors import PaddingOverflow
from repro.net.packet import ANY_NODE, DEFAULT_TTL, Packet
from repro.net.padding import PAYLOAD_REGION_BYTES
from repro.obs.trace import packet_trace_id
from repro.radio.medium import FrameArrival

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.node import SensorNode

__all__ = ["RoutingProtocol", "MSG_DATA"]

#: First payload byte of application traffic.
MSG_DATA = 0x00

#: Bytes the routing layer steals from the payload region (msg type +
#: inner port).
ROUTING_OVERHEAD_BYTES = 2


class RoutingProtocol(abc.ABC):
    """Base class wiring a protocol into a node's stack and neighbor table.

    Each protocol listens on the one port its class names, under the
    name traceroute prints.
    """

    #: The protocol's port.
    port: _t.ClassVar[int]
    #: The protocol's name ("Name of protocol" in traceroute output).
    name: _t.ClassVar[str]
    #: Monitor label for frames this protocol originates on its own behalf.
    protocol_kind = "routing"

    def __init__(self, node: "SensorNode"):
        self.node = node
        self._seq = 0
        self._subscription = node.stack.ports.subscribe(
            self.port, self._on_packet, name=self.name
        )

    # -- public API -----------------------------------------------------------

    @property
    def max_payload(self) -> int:
        """Largest application payload this protocol can carry."""
        return PAYLOAD_REGION_BYTES - ROUTING_OVERHEAD_BYTES

    def send(self, dest: int, inner_port: int, payload: bytes = b"", *,
             padding: bool = False, ttl: int = DEFAULT_TTL,
             kind: str | None = None,
             initial_quality: _t.Sequence | None = None) -> bool:
        """Route ``payload`` to the process on ``inner_port`` at ``dest``.

        ``initial_quality`` pre-seeds the padding region with hop-quality
        entries already collected — the multi-hop ping reply uses it to
        carry the probe's forward-path record back, letting one padding
        region accumulate over the whole round trip (the paper's "a
        packet could at most travel 24 hops").

        Returns False when no forwarding progress could be made (no route,
        MAC queue full, ...).  Loss en route is silent, as on real motes —
        reliability belongs to the layers above.
        """
        if not 0 <= inner_port <= 255:
            raise ValueError(f"inner port {inner_port} outside 0..255")
        if len(payload) > self.max_payload:
            raise ValueError(
                f"payload {len(payload)} B exceeds the protocol limit of "
                f"{self.max_payload} B"
            )
        self._seq = (self._seq + 1) & 0xFFFF
        packet = Packet(
            port=self.port, origin=self.node.id, dest=dest,
            payload=bytes([MSG_DATA, inner_port]) + payload,
            seq=self._seq, ttl=ttl, padding_enabled=padding,
            hop_quality=list(initial_quality or ()),
        )
        if packet.padding_room < 0:
            raise ValueError(
                "payload plus seeded padding exceed the payload region"
            )
        if dest == self.node.id:
            # Localhost path: no radio involved.
            return self._deliver(packet, None)
        return self._forward(packet, kind=kind or self.protocol_kind)

    def stop(self) -> None:
        """Release the port subscription (protocol uninstall)."""
        self.node.stack.ports.unsubscribe(self._subscription)

    # -- receive path ------------------------------------------------------------

    def _on_packet(self, packet: Packet, arrival: FrameArrival | None) -> None:
        monitor = self.node.monitor
        if arrival is not None:
            if self.node.neighbors.is_blacklisted(arrival.sender):
                # Blacklisting "temporarily modifies the behavior of
                # communication protocols": traffic from the neighbor is
                # ignored outright.
                monitor.count("routing.blacklist_drops")
                self._trace_drop(packet, "blacklisted", sender=arrival.sender)
                return
            if packet.padding_enabled:
                try:
                    packet.add_hop_quality(arrival.lqi, arrival.rssi)
                except PaddingOverflow:
                    monitor.count("routing.padding_drops")
                    self._trace_drop(packet, "padding_overflow")
                    return
        msg_type = packet.payload[0] if packet.payload else MSG_DATA
        if msg_type != MSG_DATA:
            self._handle_control(msg_type, packet, arrival)
            return
        if packet.dest in (self.node.id, ANY_NODE):
            self._deliver(packet, arrival)
            if packet.dest != ANY_NODE:
                return
        if packet.dest != self.node.id:
            self._forward(packet, kind=self.protocol_kind)

    def _handle_control(self, msg_type: int, packet: Packet,
                        arrival: FrameArrival | None) -> None:
        """Hook for protocol-internal messages; unknown types are counted."""
        self.node.monitor.count("routing.unknown_control")

    def _deliver(self, packet: Packet, arrival: FrameArrival | None) -> bool:
        """Unwrap a DATA packet and dispatch it on its inner port."""
        if len(packet.payload) < ROUTING_OVERHEAD_BYTES:
            self.node.monitor.count("routing.malformed_data")
            self._trace_drop(packet, "malformed_data")
            return False
        inner = replace(
            packet,
            port=packet.payload[1],
            payload=packet.payload[ROUTING_OVERHEAD_BYTES:],
            hop_quality=list(packet.hop_quality),
        )
        delivered = self.node.stack.ports.dispatch(inner, arrival)
        if not delivered:
            self.node.monitor.count("routing.undeliverable")
        tracer = self.node.env.tracer
        if tracer.enabled:
            tracer.emit("route.deliver", self.node.env.now,
                        node=self.node.id, packet=self._trace_id(packet),
                        inner_port=inner.port, accepted=delivered,
                        hop_count=packet.hop_count)
        return delivered

    # -- forwarding -----------------------------------------------------------

    def _forward(self, packet: Packet, kind: str) -> bool:
        monitor = self.node.monitor
        if packet.ttl == 0:
            monitor.count("routing.ttl_drops")
            self._trace_drop(packet, "ttl_expired")
            return False
        hop = self.next_hop(packet)
        if hop is None:
            monitor.count("routing.no_route")
            self._trace_drop(packet, "no_route")
            return False
        outgoing = packet.copy()
        outgoing.ttl -= 1
        outgoing.hop_count += 1
        tracer = self.node.env.tracer
        if tracer.enabled:
            tracer.emit("route.forward", self.node.env.now,
                        node=self.node.id, packet=self._trace_id(packet),
                        next_hop=hop, ttl=outgoing.ttl,
                        hop_count=outgoing.hop_count, protocol=self.name)
        return self.node.stack.send(outgoing, hop, kind=kind)

    # -- tracing helpers ------------------------------------------------------

    def _trace_id(self, packet: Packet) -> str:
        """Lifecycle key of a routed packet (enabled-path only)."""
        return packet_trace_id(packet.origin, packet.port, packet.seq)

    def _trace_drop(self, packet: Packet, reason: str,
                    **detail: object) -> None:
        """Emit a routing-layer drop event when tracing is on."""
        tracer = self.node.env.tracer
        if tracer.enabled:
            tracer.emit("route.drop", self.node.env.now, node=self.node.id,
                        packet=self._trace_id(packet), reason=reason,
                        protocol=self.name, **detail)

    def route_next_hop(self, dest: int) -> int | None:
        """Where this protocol would forward a fresh packet for ``dest``.

        Used by traceroute to discover the path one hop at a time without
        the protocol exposing its internals (the probe asks "who's next?"
        and then measures that link itself).
        """
        probe = Packet(port=self.port, origin=self.node.id, dest=dest)
        return self.next_hop(probe)

    @abc.abstractmethod
    def next_hop(self, packet: Packet) -> int | None:
        """The MAC address to forward ``packet`` to, or None if stuck."""
