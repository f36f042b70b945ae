"""The per-node communication stack: serialise, CRC-check, port-dispatch.

This is the receive/send pipeline of Figure 2: outgoing packets get their
header and CRC and go to the MAC; incoming frames are CRC-checked, parsed,
and matched against the port map.  A "localhost" path short-circuits
packets a node sends to itself, mirroring the figure's *Localhost packet*
arrow.

The stack does **not** route.  A packet whose final destination is another
node is still dispatched to its port — which is exactly how multi-hop
forwarding works here: the subscriber on that port *is* the routing
protocol, and forwarding is its job ("this listening thread could be the
routing protocol that will continue to forward the packet along the
path").
"""

from __future__ import annotations


from repro.errors import CrcError, HeaderError, PacketError
from repro.mac.csma import CsmaMac
from repro.mac.frame import BROADCAST, Frame
from repro.net.packet import Packet
from repro.net.ports import PortMap
from repro.obs.trace import packet_trace_id
from repro.radio.medium import FrameArrival
from repro.sim.engine import Environment
from repro.sim.monitor import Monitor

__all__ = ["CommunicationStack"]


class CommunicationStack:
    """One node's packet sender/receiver plus port map."""

    def __init__(self, env: Environment, mac: CsmaMac, monitor: Monitor,
                 node_id: int):
        self.env = env
        self.mac = mac
        self.monitor = monitor
        self.tracer = env.tracer
        self.node_id = node_id
        self.ports = PortMap()
        # Lazily bound handle for the hottest receive counter (created
        # on first increment so it stays out of untouched snapshots).
        self._c_received = None
        mac.set_receive_handler(self._on_frame)

    # -- send path -----------------------------------------------------------

    def send(self, packet: Packet, next_hop: int, kind: str = "data") -> bool:
        """Serialise ``packet`` and hand it to the MAC for ``next_hop``.

        ``next_hop`` is a MAC address (a neighbor id, or
        :data:`~repro.mac.frame.BROADCAST`); the packet's own ``dest``
        field still names the final destination.  Returns False if the
        MAC queue rejected the frame.
        """
        tracer = self.tracer
        trace_id = None
        if tracer.enabled:
            trace_id = packet_trace_id(packet.origin, packet.port, packet.seq)
            tracer.emit("stack.send", self.env.now, node=self.node_id,
                        packet=trace_id, next_hop=next_hop, traffic=kind,
                        dest=packet.dest, ttl=packet.ttl,
                        hop_count=packet.hop_count)
        frame = Frame(
            src=self.node_id, dst=next_hop, payload=packet.to_bytes(),
            kind=kind, port=packet.port, trace_id=trace_id,
        )
        self.monitor.count("stack.sent_packets")
        return self.mac.send(frame)

    def broadcast(self, packet: Packet, kind: str = "data") -> bool:
        """One-hop broadcast of ``packet`` (beacons, adverts, commands)."""
        return self.send(packet, BROADCAST, kind=kind)

    def send_local(self, packet: Packet) -> bool:
        """Loopback: dispatch a packet on this node without radio.

        Mirrors the *Localhost packet* path of Figure 2.  Returns whether
        a subscriber accepted it.
        """
        self.monitor.count("stack.local_packets")
        return self.ports.dispatch(packet, None)

    # -- receive path ------------------------------------------------------------

    def _on_frame(self, arrival: FrameArrival) -> None:
        """CRC-check, parse, and port-match one incoming frame."""
        tracer = self.tracer
        try:
            packet = Packet.from_bytes(arrival.payload)
        except CrcError:
            self.monitor.count("stack.crc_drops")
            if tracer.enabled:
                # The payload is garbage, so the packet id comes from the
                # frame metadata the sender stamped.
                tracer.emit("stack.drop", self.env.now, node=self.node_id,
                            packet=arrival.frame.trace_id,
                            reason="crc_fail", sender=arrival.sender)
            return
        except (HeaderError, PacketError):
            # A frame can be corrupted into a shape whose CRC accidentally
            # re-validates but whose header is impossible; or genuinely
            # malformed senders exist.  Either way: drop and count.
            self.monitor.count("stack.header_drops")
            if tracer.enabled:
                tracer.emit("stack.drop", self.env.now, node=self.node_id,
                            packet=arrival.frame.trace_id,
                            reason="header_invalid", sender=arrival.sender)
            return
        c = self._c_received
        if c is None:
            c = self._c_received = self.monitor.registry.counter(
                "stack.received_packets")
        c.value += 1
        if tracer.enabled:
            tracer.emit("stack.rx", self.env.now, node=self.node_id,
                        packet=packet_trace_id(packet.origin, packet.port,
                                               packet.seq),
                        sender=arrival.sender, port=packet.port)
        if not self.ports.dispatch(packet, arrival):
            self.monitor.count("stack.unmatched_packets")
