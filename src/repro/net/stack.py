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
from repro.radio.medium import FrameBatch, Row
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
        mac.set_receive_handler(CommunicationStack._on_frame, self)

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

    @staticmethod
    def _on_frame(batch: FrameBatch) -> None:
        """CRC-check, parse and port-match one transmission's deliveries.

        One call per batch the radio accepted; each row's stack is
        ``row[0].upper``, and every row shares its world's monitor and
        tracer.  The rows whose payload survived the air share one
        parse; each corrupted copy is parsed on its own.  Rows go to
        their node's port subscriber in id order: a batch subscriber
        (the neighbor service) takes its run of rows in one call, any
        other gets a fresh :class:`Packet` and a
        :class:`~repro.radio.medium.FrameArrival` built for its row.

        Static, and installed from the class, so that a span wrapped
        around the class attribute before the node is built sees every
        batch.
        """
        rows = batch.rows
        lead = rows[0][0].upper
        monitor = lead.monitor
        tracer = lead.tracer
        traced = tracer.enabled
        clean: Packet | str | None = None
        received = crc_drops = header_drops = unmatched = 0
        run_handler = run_packet = None
        owners: list = []
        run_rows: list[Row] = []
        for row in rows:
            if row[2]:
                if clean is None:
                    clean = _parse(row[1])
                packet = clean
            else:
                packet = _parse(row[1])
            stack = row[0].upper
            if type(packet) is str:
                if packet == "crc_fail":
                    crc_drops += 1
                else:
                    # A frame can be corrupted into a shape whose CRC
                    # accidentally re-validates but whose header is
                    # impossible; or genuinely malformed senders exist.
                    header_drops += 1
                if traced:
                    # The payload is garbage, so the packet id comes from
                    # the frame metadata the sender stamped.
                    tracer.emit("stack.drop", batch.time, node=stack.node_id,
                                packet=batch.frame.trace_id, reason=packet,
                                sender=batch.sender)
                continue
            received += 1
            if traced:
                tracer.emit("stack.rx", batch.time, node=stack.node_id,
                            packet=packet_trace_id(packet.origin, packet.port,
                                                   packet.seq),
                            sender=batch.sender, port=packet.port)
            ports = stack.ports
            sub = ports._subs.get(packet.port)
            if sub is None:
                ports.unmatched += 1
                unmatched += 1
            elif sub.owner is not None:
                if sub.handler is not run_handler or packet is not run_packet:
                    if owners:
                        run_handler(run_packet, batch, owners, run_rows)
                    run_handler, run_packet = sub.handler, packet
                    owners, run_rows = [], []
                owners.append(sub.owner)
                run_rows.append(row)
            else:
                if owners:
                    run_handler(run_packet, batch, owners, run_rows)
                    owners, run_rows = [], []
                sub.handler(packet._fast_copy() if packet is clean else packet,
                            batch.arrival(row))
        if owners:
            run_handler(run_packet, batch, owners, run_rows)
        if received:
            monitor.count("stack.received_packets", received)
        if crc_drops:
            monitor.count("stack.crc_drops", crc_drops)
        if header_drops:
            monitor.count("stack.header_drops", header_drops)
        if unmatched:
            monitor.count("stack.unmatched_packets", unmatched)


def _parse(payload: bytes) -> "Packet | str":
    """The packet in ``payload``, or the reason the stack drops it."""
    try:
        return Packet.from_bytes(payload)
    except CrcError:
        return "crc_fail"
    except (HeaderError, PacketError):
        return "header_invalid"
