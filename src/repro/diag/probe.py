"""The probe pipeline: plan → wire request → decode → typed observation.

Every diagnostic the toolkit offers boils down to the same drive loop —
walk the workstation next to a node, issue one management request over
the reliable protocol, wait out a response window sized to the command,
decode the struct-packed reply.  This module holds the one copy of it.

A :class:`Probe` packages one diagnostic as data:

* :meth:`Probe.request` — the wire plan: which node to stand next to,
  the message type, the packed body, and the response window;
* :meth:`Probe.decode` — reply bytes → the command's structured result
  (``PingResult``, ``TracerouteResult``, neighbor views, scan rows);
* :meth:`Probe.observe` — structured result → the *typed observation*
  the diagnosis layer reasons about (:class:`~repro.diag.observations.
  LinkReport` and friends).

:class:`ProbeExecutor` owns the drive logic once, for everyone: it
attaches the workstation, runs the request to completion, classifies
failures (``unreachable`` — the reliable protocol got no
acknowledgment; ``timeout`` — acknowledged but no reply; ``rejected`` —
the node answered with an error), counts ``diag.*`` metrics and emits
``diag.probe`` trace events.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.core.commands.scan import scan_duration
from repro.core.serialize import (
    decode_neighbor_views,
    decode_ping_result,
    decode_scan_rows,
    decode_trace_result,
)
from repro.core.wire import REQUEST_LAYOUTS, MsgType
from repro.diag.observations import ChannelReading, LinkReport
from repro.errors import CommandTimeout, ReliableTransferError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.workstation import Workstation

__all__ = [
    "ProbeRequest",
    "Probe",
    "LinkProbe",
    "PathProbe",
    "NeighborProbe",
    "ChannelScanProbe",
    "ProbeOutcome",
    "ProbeExecutor",
    "ping_window",
    "traceroute_window",
    "scan_window",
]


# -- response-window arithmetic (the paper's command budgets) -----------------

def ping_window(rounds: int) -> float:
    """Response window for a remote ping run of ``rounds`` rounds."""
    return rounds * 0.6 + 2.5


def traceroute_window(rounds: int) -> float:
    """Response window for a remote traceroute of ``rounds`` rounds."""
    return rounds * 6.5 + 3.0


def scan_window(count: int, samples: int, dwell_ms: int) -> float:
    """Response window for a channel scan (worst-case sampling time +
    margin)."""
    return scan_duration(count, samples, dwell_ms / 1000.0) + 2.5


@dataclass(frozen=True)
class ProbeRequest:
    """One management request, fully planned: where, what, how long."""

    node: int                     # node to stand next to and address
    msg_type: int
    body: bytes
    window: float
    wait_full_window: bool = False


class Probe:
    """Base class: one diagnostic as a plan/decode/observe triple."""

    #: Short label for metrics, traces and reports.
    kind: str = "probe"

    def request(self) -> ProbeRequest:
        """The wire plan for this probe."""
        raise NotImplementedError

    def decode(self, body: bytes, namespace=None):
        """Reply bytes → the command's structured result."""
        raise NotImplementedError

    def observe(self, decoded):
        """Structured result → typed observation (default: identity)."""
        return decoded

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class LinkProbe(Probe):
    """Ping ``src → dst`` and reduce the rounds to a :class:`LinkReport`.

    ``port=0`` probes a direct neighbor (the site-survey primitive);
    a routing port turns it into the multi-hop ping.
    """

    src: int
    dst: int
    rounds: int = 10
    length: int = 32
    port: int = 0
    kind: _t.ClassVar[str] = "link"

    def request(self) -> ProbeRequest:
        return ProbeRequest(
            node=self.src, msg_type=MsgType.RUN_PING,
            body=REQUEST_LAYOUTS[MsgType.RUN_PING].encode(
                target=self.dst, round=self.rounds, length=self.length,
                port=self.port),
            window=ping_window(self.rounds),
        )

    def decode(self, body: bytes, namespace=None):
        return decode_ping_result(body, namespace)

    def observe(self, decoded) -> LinkReport:
        return LinkReport.from_ping_result(self.src, self.dst, decoded)

    def failure_observation(self) -> LinkReport:
        """The report a failed run yields: ``rounds`` sent, no data back."""
        return LinkReport.no_reply(self.src, self.dst, self.rounds)

    def describe(self) -> str:
        return f"link {self.src}->{self.dst}"


@dataclass(frozen=True)
class PathProbe(Probe):
    """Traceroute ``src → dst``: per-hop RTT and link quality."""

    src: int
    dst: int
    rounds: int = 1
    length: int = 32
    port: int = 10
    kind: _t.ClassVar[str] = "path"

    def request(self) -> ProbeRequest:
        return ProbeRequest(
            node=self.src, msg_type=MsgType.RUN_TRACEROUTE,
            body=REQUEST_LAYOUTS[MsgType.RUN_TRACEROUTE].encode(
                target=self.dst, round=self.rounds, length=self.length,
                port=self.port),
            window=traceroute_window(self.rounds),
        )

    def decode(self, body: bytes, namespace=None):
        return decode_trace_result(body, namespace)

    def describe(self) -> str:
        return f"path {self.src}->{self.dst}"


@dataclass(frozen=True)
class NeighborProbe(Probe):
    """Read one node's neighbor table (the neighborhood survey)."""

    node: int
    kind: _t.ClassVar[str] = "neighbors"

    def request(self) -> ProbeRequest:
        return ProbeRequest(
            node=self.node, msg_type=MsgType.NEIGHBOR_LIST,
            body=REQUEST_LAYOUTS[MsgType.NEIGHBOR_LIST].encode(usable=1),
            window=0.5, wait_full_window=True,
        )

    def decode(self, body: bytes, namespace=None):
        return decode_neighbor_views(body)

    def describe(self) -> str:
        return f"neighbors of {self.node}"


@dataclass(frozen=True)
class ChannelScanProbe(Probe):
    """Survey ambient RF energy across channels on one node."""

    node: int
    first: int = 11
    count: int = 16
    samples: int = 4
    dwell_ms: int = 10
    kind: _t.ClassVar[str] = "scan"

    def request(self) -> ProbeRequest:
        return ProbeRequest(
            node=self.node, msg_type=MsgType.SCAN_CHANNELS,
            body=REQUEST_LAYOUTS[MsgType.SCAN_CHANNELS].encode(
                first=self.first, count=self.count, samples=self.samples,
                dwell=self.dwell_ms),
            window=scan_window(self.count, self.samples, self.dwell_ms),
        )

    def decode(self, body: bytes, namespace=None) -> list[tuple[int, int]]:
        return decode_scan_rows(body)

    def observe(self, decoded) -> list[ChannelReading]:
        return [ChannelReading(node=self.node, channel=ch, reading=reading)
                for ch, reading in decoded]

    def describe(self) -> str:
        return f"scan on {self.node}"


# -- execution ----------------------------------------------------------------

@dataclass
class ProbeOutcome:
    """What one probe run produced (success or classified failure)."""

    probe: Probe
    ok: bool
    value: object = None          # the typed observation when ok
    failure: str | None = None    # "unreachable" | "timeout" | "rejected"
    error: str = ""

    @property
    def unreachable(self) -> bool:
        """The reliable protocol never got an acknowledgment — with the
        workstation standing next to the node, that means a dead node,
        not a bad link."""
        return self.failure == "unreachable"


class ProbeExecutor:
    """Drives probes over a deployment; the one copy of the drive loop.

    ``deployment`` is anything with a ``workstation`` attribute (a
    :class:`~repro.core.deploy.LiteViewDeployment`) or a
    :class:`~repro.core.workstation.Workstation` itself.  Each probe
    runs once, after the workstation walks next to the probe's node
    (the paper's site-visit step).
    """

    def __init__(self, deployment):
        self.ws: "Workstation" = getattr(deployment, "workstation",
                                         deployment)
        self.testbed = self.ws.testbed

    def run(self, probe: Probe) -> ProbeOutcome:
        """Run one probe to completion and classify how it ended."""
        monitor = self.testbed.monitor
        tracer = self.testbed.tracer
        request = probe.request()
        self.ws.attach_near(request.node)
        monitor.count("diag.probes")
        if tracer.enabled:
            tracer.emit("diag.probe", self.testbed.env.now,
                        node=request.node, kind_label=probe.kind,
                        target=probe.describe(), attempt=1)
        try:
            reply = self.ws.call(
                request.node, request.msg_type, request.body,
                window=request.window,
                wait_full_window=request.wait_full_window,
            )
        except CommandTimeout as caught:
            failure = ("unreachable"
                       if isinstance(caught.__cause__, ReliableTransferError)
                       else "timeout")
            error = str(caught)
        else:
            if reply.ok:
                decoded = probe.decode(reply.body, self.testbed.namespace)
                return ProbeOutcome(probe=probe, ok=True,
                                    value=probe.observe(decoded))
            failure = "rejected"
            error = reply.body.decode(errors="replace")
        monitor.count("diag.probe_failures")
        if tracer.enabled:
            tracer.emit("diag.probe_failure", self.testbed.env.now,
                        node=request.node, kind_label=probe.kind,
                        failure=failure)
        return ProbeOutcome(probe=probe, ok=False, failure=failure,
                            error=error)

    def run_all(self, probes: _t.Iterable[Probe]) -> list[ProbeOutcome]:
        """Run several probes in order (the site-survey walk)."""
        return [self.run(p) for p in probes]
