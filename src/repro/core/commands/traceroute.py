"""The traceroute command (Figure 4): per-hop path profiling.

Mechanism, following the paper:

1. The source starts a *traceroute task*: it asks the routing protocol
   who the next hop toward the destination is, one-hop-probes that node,
   and measures the hop's RTT and link quality from the reply.
2. The probe itself carries the session state, so its *receiver* — "if
   this node is not the last node" — initiates a new task for the next
   hop.  (The paper describes the runtime controller "initializing the
   network by starting the traceroute process on each node along the
   path"; carrying the initialization inside the probe implements the
   same per-hop hand-off with strictly fewer control packets.)
3. Each prober sends a one-hop **report** back to the source over the
   routing protocol — "this packet contains the details on the link
   quality information for only one hop along the path".  The source
   collects reports as they arrive; their staggered arrival times are
   exactly what Figure 5 plots.

Because every hop reports independently, traceroute never pads packets
and is "fundamentally more scalable compared to the multi-hop ping
command" — the overhead bench (Figure 7) quantifies this.
"""

from __future__ import annotations

import typing as _t
from collections import OrderedDict

from repro.core.results import (
    LinkObservation,
    TracerouteHop,
    TracerouteResult,
)
from repro.core.wire import MsgType, TraceProbe, TraceReply, TraceReport
from repro.errors import HeaderError, KernelError, ParameterError
from repro.kernel.memory import PAPER_FOOTPRINTS
from repro.net.packet import Packet
from repro.net.ports import WellKnownPorts
from repro.radio.medium import FrameArrival
from repro.sim.events import Event
from repro.units import to_ms

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.node import SensorNode

__all__ = ["TracerouteService", "install_traceroute",
           "DEFAULT_ROUND_TIMEOUT"]

#: How long the source waits for the full set of reports each round.
DEFAULT_ROUND_TIMEOUT = 5.0
#: Per-hop probe reply timeout.
PROBE_TIMEOUT = 0.25
#: One-hop probe attempts (a lost reply would otherwise kill the whole
#: downstream tail of the traceroute).
PROBE_ATTEMPTS = 2
#: How long a node remembers a hop it continued: a prober resends a
#: probe only within its attempts' reply windows.
CONTINUED_MEMORY_S = PROBE_ATTEMPTS * PROBE_TIMEOUT
#: Hop budget: a traceroute stops extending beyond this depth.
MAX_HOPS = 32
#: Report hold-back (seconds *per hop of depth*): before a hop's report
#: heads upstream it waits ``hop_index × U(min, max)``.  Two birds: the
#: report avoids both the probe wave still advancing down the path and
#: the other hops' reports (links near the CCA sensing limit make carrier
#: sense blind to most neighbors — the classic hidden-terminal regime of
#: real mote testbeds — so time-domain desynchronisation is the only
#: protection reports get).  Depth scaling keeps the windows of adjacent
#: hops overlapping, which is why some reports still arrive back-to-back
#: at the source, as the paper's Figure 5 shows.
REPORT_JITTER_MIN = 0.03
REPORT_JITTER_MAX = 0.09


def install_traceroute(node: "SensorNode") -> "TracerouteService":
    """Install the traceroute command on a node (flash/RAM accounted)."""
    flash, ram = PAPER_FOOTPRINTS["traceroute"]
    node.memory.install("traceroute", flash, ram)
    service = TracerouteService(node)
    node.services["traceroute"] = service
    return service


class TracerouteService:
    """Node-side traceroute machinery plus the client API."""

    def __init__(self, node: "SensorNode"):
        self.node = node
        self._session = (node.id << 8) & 0xFFFF  # disambiguate per node
        #: Probers waiting for a one-hop reply: session → Event.
        self._reply_waiters: dict[int, Event] = {}
        #: Sources collecting reports: session → callback(report).
        self._collectors: dict[int, _t.Callable[[TraceReport], None]] = {}
        #: Hops continued recently, ``(origin, session, hop_index)`` →
        #: time, to suppress duplicate task initiation if a probe is
        #: retransmitted.  Sessions are unique only per origin, and only
        #: until that origin's 16-bit counter wraps.
        self._continued: OrderedDict[tuple[int, int, int], float] = (
            OrderedDict())
        node.stack.ports.subscribe(
            WellKnownPorts.TRACEROUTE, self._on_packet, name="traceroute"
        )

    # -- dispatch ------------------------------------------------------------

    def _on_packet(self, packet: Packet, arrival: FrameArrival | None) -> None:
        msg_type = packet.payload[0] if packet.payload else None
        try:
            if msg_type == MsgType.TRACE_PROBE and arrival is not None:
                self._handle_probe(packet, arrival)
            elif msg_type == MsgType.TRACE_REPLY:
                self._handle_reply(packet, arrival)
            elif msg_type == MsgType.TRACE_REPORT:
                self._handle_report(packet)
            else:
                self.node.monitor.count("traceroute.unknown_messages")
        except HeaderError:
            self.node.monitor.count("traceroute.malformed_messages")

    def _handle_probe(self, packet: Packet, arrival: FrameArrival) -> None:
        probe = TraceProbe.from_bytes(packet.payload)
        reply = TraceReply(
            session=probe.session, lqi=arrival.lqi, rssi=arrival.rssi,
            queue=self.node.mac.queue_occupancy,
        )
        out = Packet(
            port=WellKnownPorts.TRACEROUTE, origin=self.node.id,
            dest=packet.origin, payload=reply.to_bytes(),
        )
        self.node.stack.send(out, arrival.sender, kind="traceroute")
        # Step 5 of Figure 4: the probed node carries the traceroute on.
        now = self.node.env.now
        continued = self._continued
        while continued and next(iter(continued.values())) < (
                now - CONTINUED_MEMORY_S):
            continued.popitem(last=False)
        key = (probe.origin, probe.session, probe.hop_index)
        if (self.node.id != probe.final_dest
                and probe.hop_index < MAX_HOPS
                and key not in continued):
            continued[key] = now
            self.node.threads.spawn(
                "traceroute-task",
                self._task(
                    session=probe.session, origin=probe.origin,
                    final_dest=probe.final_dest,
                    hop_index=probe.hop_index + 1,
                    routing_port=probe.routing_port, length=probe.length,
                ),
            )

    def _handle_reply(self, packet: Packet,
                      arrival: FrameArrival | None) -> None:
        reply = TraceReply.from_bytes(packet.payload)
        waiter = self._reply_waiters.pop(reply.session, None)
        if waiter is None:
            self.node.monitor.count("traceroute.orphan_replies")
            return
        waiter.succeed((reply, arrival))

    def _handle_report(self, packet: Packet) -> None:
        report = TraceReport.from_bytes(packet.payload)
        collector = self._collectors.get(report.session)
        if collector is None:
            self.node.monitor.count("traceroute.orphan_reports")
            return
        collector(report)

    # -- the per-hop task --------------------------------------------------------

    def _task(self, *, session: int, origin: int, final_dest: int,
              hop_index: int, routing_port: int, length: int):
        """Probe the next hop toward ``final_dest`` and report to
        ``origin``.  Runs on whichever node currently holds the baton."""
        node = self.node
        try:
            protocol = node.protocol_on(routing_port)
        except KernelError:
            node.monitor.count("traceroute.no_protocol")
            return
        next_hop = protocol.route_next_hop(final_dest)
        if next_hop is None:
            node.monitor.count("traceroute.stuck")
            return
        probe = TraceProbe(
            session=session, origin=origin, final_dest=final_dest,
            hop_index=hop_index, routing_port=routing_port, length=length,
        )
        reply = arrival = None
        # Hop RTT is measured on the prober's own clock (no network time
        # synchronization), so local clock drift shows up in the reports.
        started = node.local_time()
        for _attempt in range(PROBE_ATTEMPTS):
            out = Packet(
                port=WellKnownPorts.TRACEROUTE, origin=node.id,
                dest=next_hop, payload=probe.to_bytes(),
            )
            started = node.local_time()
            if not node.stack.send(out, next_hop, kind="traceroute"):
                node.monitor.count("traceroute.send_failures")
                return
            waiter = Event(node.env)
            self._reply_waiters[session] = waiter
            outcome = yield node.env.any_of(
                [waiter, node.env.timeout(PROBE_TIMEOUT, value="timeout")]
            )
            values = list(outcome.values())
            if values == ["timeout"]:
                self._reply_waiters.pop(session, None)
                node.monitor.count("traceroute.probe_timeouts")
                continue
            reply, arrival = values[0]
            break
        if reply is None:
            node.monitor.count("traceroute.hop_failures")
            return
        rtt_us = int(round((node.local_time() - started) * 1e6))
        report = TraceReport(
            session=session, probed_node=next_hop, hop_index=hop_index,
            rtt_us=rtt_us,
            lqi_forward=reply.lqi,
            lqi_backward=arrival.lqi if arrival else 0,
            rssi_forward=reply.rssi,
            rssi_backward=arrival.rssi if arrival else 0,
            queue_remote=reply.queue,
            queue_local=node.mac.queue_occupancy,
        )
        if origin == node.id:
            self._handle_local_report(report)
        else:
            # Random hold-back before the report heads upstream: reports
            # are not latency-critical and would otherwise collide with
            # the probe wave still advancing down the path (the paper's
            # nodes likewise "add random waiting time before sending back
            # replies").  This hold-and-release is also what makes some
            # reports arrive at the source back-to-back (Figure 5).
            # The stream is made at its first draw: most nodes never
            # report a hop.
            jitter = node.rng.stream(f"traceroute.jitter.{node.id}")
            yield node.env.timeout(hop_index * float(
                jitter.uniform(REPORT_JITTER_MIN, REPORT_JITTER_MAX)
            ))
            protocol.send(
                origin, WellKnownPorts.TRACEROUTE, report.to_bytes(),
                kind="traceroute",
            )

    def _handle_local_report(self, report: TraceReport) -> None:
        collector = self._collectors.get(report.session)
        if collector is not None:
            collector(report)

    # -- client ------------------------------------------------------------------

    def traceroute(self, target: int, *, rounds: int = 1, length: int = 32,
                   routing_port: int = WellKnownPorts.GEOGRAPHIC):
        """Run the traceroute command; a generator to spawn as a process.

        Returns a :class:`TracerouteResult` whose hops carry both the
        per-hop RTT/link observables and the report arrival times
        (Figure 5's series).
        """
        if rounds < 1:
            raise ParameterError(f"rounds must be >= 1, got {rounds}")
        if not 0 <= length <= 64:
            raise ParameterError(f"length must be 0..64, got {length}")
        node = self.node
        try:
            protocol = node.protocol_on(routing_port)
        except KernelError:
            raise ParameterError(
                f"no routing protocol on port {routing_port}"
            ) from None
        result = TracerouteResult(
            target_name=node.testbed.namespace.name_of(target)
            if target in node.testbed.namespace else str(target),
            target_id=target,
            requested_rounds=rounds,
            probe_length=length,
            protocol_name=protocol.name,
            routing_port=routing_port,
        )
        namespace = node.testbed.namespace
        for _round in range(rounds):
            self._session = (self._session + 1) & 0xFFFF
            session = self._session
            round_started = node.local_time()
            done = Event(node.env)

            def collect(report: TraceReport, _started=round_started,
                        _done=done) -> None:
                result.hops.append(TracerouteHop(
                    hop_index=report.hop_index,
                    probed_node_id=report.probed_node,
                    probed_node_name=(
                        namespace.name_of(report.probed_node)
                        if report.probed_node in namespace
                        else str(report.probed_node)
                    ),
                    rtt_ms=report.rtt_us / 1000.0,
                    link=LinkObservation(
                        lqi_forward=report.lqi_forward,
                        lqi_backward=report.lqi_backward,
                        rssi_forward=report.rssi_forward,
                        rssi_backward=report.rssi_backward,
                        queue_remote=report.queue_remote,
                        queue_local=report.queue_local,
                    ),
                    arrival_ms=to_ms(node.local_time() - _started),
                ))
                if report.probed_node == result.target_id:
                    if not _done.triggered:
                        _done.succeed("reached")

            self._collectors[session] = collect
            result.sent += 1
            node.threads.spawn(
                "traceroute-task",
                self._task(
                    session=session, origin=node.id, final_dest=target,
                    hop_index=1, routing_port=routing_port, length=length,
                ),
            )
            outcome = yield node.env.any_of(
                [done, node.env.timeout(DEFAULT_ROUND_TIMEOUT,
                                        value="timeout")]
            )
            if "reached" in outcome.values():
                # The final hop reported, but earlier hops' reports may
                # still sit in their random hold-back window — keep the
                # collector open long enough for the stragglers.
                depth = max((h.hop_index for h in result.hops), default=1)
                yield node.env.timeout(depth * REPORT_JITTER_MAX + 0.3)
            del self._collectors[session]
        return result
