"""The ping command (Figure 3): one-hop and multi-hop link profiling.

The service side is a thread subscribed to the ping port: every probe is
answered with a reply carrying the *receiver-side* observables of that
probe (LQI, RSSI — "such information is only available after the packet
is received" — plus the MAC queue occupancy the sample output reports).
The client side sends probes, measures RTT against its own clock ("we
only obtain timing information on the same node ... no network level
synchronization service is needed"), and assembles a
:class:`~repro.core.results.PingResult`.

For multi-hop probes (``routing_port != 0``) the probe and the reply both
travel with link-quality padding enabled, so the client learns the
per-hop quality of the forward path (echoed inside the reply payload) and
of the backward path (padded onto the reply itself).
"""

from __future__ import annotations

import typing as _t

from repro.core.results import LinkObservation, PingResult, PingRound
from repro.core.wire import MsgType, PingProbe, PingReply
from repro.errors import HeaderError, KernelError, ParameterError
from repro.kernel.memory import PAPER_FOOTPRINTS
from repro.net.packet import Packet
from repro.net.ports import WellKnownPorts
from repro.radio.medium import FrameArrival
from repro.sim.events import Event
from repro.units import to_ms

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.node import SensorNode

__all__ = ["PingService", "install_ping", "DEFAULT_ROUND_TIMEOUT"]

#: Per-round reply timeout; the paper's one-hop commands budget 500 ms.
DEFAULT_ROUND_TIMEOUT = 0.5
#: Default probe payload length (the paper's examples use length=32).
DEFAULT_LENGTH = 32
#: Pause between one round's outcome and the next round's probe.
ROUND_INTERVAL = 0.05


def install_ping(node: "SensorNode") -> "PingService":
    """Install the ping command on a node (flash/RAM accounted)."""
    flash, ram = PAPER_FOOTPRINTS["ping"]
    node.memory.install("ping", flash, ram)
    service = PingService(node)
    node.services["ping"] = service
    return service


class PingService:
    """Both halves of ping: the responder thread and the client API."""

    def __init__(self, node: "SensorNode"):
        self.node = node
        self._token = 0
        #: Waiting clients: token → Event triggered with the reply tuple.
        self._waiting: dict[int, Event] = {}
        node.stack.ports.subscribe(
            WellKnownPorts.PING, self._on_packet, name="ping"
        )

    # -- responder ----------------------------------------------------------

    def _on_packet(self, packet: Packet, arrival: FrameArrival | None) -> None:
        if arrival is None and packet.origin == self.node.id:
            return  # our own loopback; nothing to measure
        msg_type = packet.payload[0] if packet.payload else None
        try:
            if msg_type == MsgType.PING_PROBE:
                self._answer_probe(packet, arrival)
            elif msg_type == MsgType.PING_REPLY:
                self._accept_reply(packet, arrival)
            else:
                self.node.monitor.count("ping.unknown_messages")
        except HeaderError:
            self.node.monitor.count("ping.malformed_messages")

    def _answer_probe(self, packet: Packet,
                      arrival: FrameArrival | None) -> None:
        if arrival is None:
            return
        probe = PingProbe.from_bytes(packet.payload)
        self.node.monitor.count("ping.probes_answered")
        reply = PingReply(
            token=probe.token,
            lqi=arrival.lqi,
            rssi=arrival.rssi,
            queue=self.node.mac.queue_occupancy,
        )
        if probe.routing_port:
            # Routed probe: reply over the same protocol.  The probe's
            # padding region — the forward path's per-hop record — is
            # "inserted into the reply packet", which then "collects
            # additional link quality information" on its way back: one
            # region accumulating over the whole round trip.
            try:
                protocol = self.node.protocol_on(probe.routing_port)
            except KernelError:
                self.node.monitor.count("ping.no_protocol")
                return
            protocol.send(
                packet.origin, WellKnownPorts.PING, reply.to_bytes(),
                padding=True, kind="ping",
                initial_quality=packet.hop_quality,
            )
        else:
            # seq mirrors the probe's so each round is its own lifecycle
            # in the trace (ids are origin-scoped, so probe and reply
            # still get distinct ids).
            out = Packet(
                port=WellKnownPorts.PING, origin=self.node.id,
                dest=packet.origin, payload=reply.to_bytes(),
                seq=packet.seq,
            )
            self.node.stack.send(out, arrival.sender, kind="ping")

    def _accept_reply(self, packet: Packet,
                      arrival: FrameArrival | None) -> None:
        reply = PingReply.from_bytes(packet.payload)
        waiter = self._waiting.pop(reply.token, None)
        if waiter is None:
            self.node.monitor.count("ping.orphan_replies")
            return
        waiter.succeed((reply, arrival, packet))

    # -- client ------------------------------------------------------------------

    def ping(self, target: int, *, rounds: int = 1,
             length: int = DEFAULT_LENGTH, routing_port: int = 0):
        """Run the ping command; a generator to spawn as a process.

        Returns a :class:`PingResult`.  ``routing_port=0`` probes a
        direct neighbor; any other value routes the probe over that
        protocol (the paper's multi-hop ping).
        """
        if rounds < 1:
            raise ParameterError(f"rounds must be >= 1, got {rounds}")
        if not 0 <= length <= 64:
            raise ParameterError(f"length must be 0..64, got {length}")
        node = self.node
        result = PingResult(
            target_name=node.testbed.namespace.name_of(target)
            if target in node.testbed.namespace else str(target),
            target_id=target,
            requested_rounds=rounds,
            probe_length=length,
            power_level=node.radio.power_level,
            channel=node.radio.channel,
        )
        for seq in range(rounds):
            self._token = (self._token + 1) & 0xFFFF
            token = self._token
            probe = PingProbe(token=token, length=length,
                              routing_port=routing_port)
            # RTT is measured against the node's own clock ("we only
            # obtain timing information on the same node"), so a node
            # with a drifting oscillator reports drifted RTTs — exactly
            # what a real mote would do.
            started = node.local_time()
            sent = self._send_probe(target, probe, routing_port)
            if not sent:
                node.monitor.count("ping.send_failures")
                result.sent += 1
                continue
            result.sent += 1
            waiter = Event(node.env)
            self._waiting[token] = waiter
            outcome = yield node.env.any_of(
                [waiter, node.env.timeout(DEFAULT_ROUND_TIMEOUT,
                                          value="timeout")]
            )
            values = list(outcome.values())
            if values == ["timeout"]:
                self._waiting.pop(token, None)
                node.monitor.count("ping.timeouts")
            else:
                reply, arrival, reply_packet = values[0]
                rtt_ms = to_ms(node.local_time() - started)
                node.monitor.observe("ping.rtt_ms", rtt_ms)
                # The reply's padding region holds the whole round trip:
                # the forward entries it was seeded with, then one entry
                # per backward hop (= the reply's own hop count).
                quality = [(h.lqi, h.rssi)
                           for h in reply_packet.hop_quality]
                split = len(quality) - reply_packet.hop_count
                split = max(0, min(len(quality), split))
                result.rounds.append(PingRound(
                    seq=seq,
                    rtt_ms=rtt_ms,
                    link=LinkObservation(
                        lqi_forward=reply.lqi,
                        lqi_backward=arrival.lqi if arrival else 0,
                        rssi_forward=reply.rssi,
                        rssi_backward=arrival.rssi if arrival else 0,
                        queue_remote=reply.queue,
                        queue_local=node.mac.queue_occupancy,
                    ),
                    forward_path=tuple(quality[:split]),
                    backward_path=tuple(quality[split:]),
                ))
            if seq + 1 < rounds:
                yield node.env.timeout(ROUND_INTERVAL)
        return result

    def _send_probe(self, target: int, probe: PingProbe,
                    routing_port: int) -> bool:
        if routing_port:
            try:
                protocol = self.node.protocol_on(routing_port)
            except KernelError:
                raise ParameterError(
                    f"no routing protocol on port {routing_port}"
                ) from None
            return protocol.send(
                target, WellKnownPorts.PING, probe.to_bytes(),
                padding=True, kind="ping",
            )
        # The token doubles as the packet seq so consecutive probes trace
        # as distinct lifecycles instead of sharing "origin:port:0".
        packet = Packet(
            port=WellKnownPorts.PING, origin=self.node.id, dest=target,
            payload=probe.to_bytes(), seq=probe.token,
        )
        return self.node.stack.send(packet, target, kind="ping")
