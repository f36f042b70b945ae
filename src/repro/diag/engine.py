"""The diagnosis engine: declarative probe plans → named findings.

This is the layer the paper's end user actually wants: point it at a
deployment, tell it which links/paths/channels to examine, and get back
:class:`~repro.diag.findings.Finding` verdicts instead of raw numbers.

The engine is split so every reduction is a pure function over typed
observations (``reduce_*`` below) — unit tests feed synthetic
observations straight in, and the :class:`DiagnosisEngine` itself is
only the orchestration: run the plan's probes through one
:class:`~repro.diag.probe.ProbeExecutor`, pool the observations, apply
the reducers, and wrap everything in a
:class:`~repro.diag.findings.DiagnosisReport`.

Failure classification carries diagnostic weight here: a probe whose
source never *acknowledged* the workstation standing right next to it
(``unreachable``) indicts the node, not any link — it becomes a
``dead_node`` finding, and link verdicts touching a dead node are
suppressed so the report names the root cause once.
"""

from __future__ import annotations

import statistics
import typing as _t
from dataclasses import dataclass, field

from repro.diag.findings import DiagnosisReport, Finding
from repro.diag.observations import ChannelReading, LinkReport
from repro.diag.probe import (
    ChannelScanProbe,
    LinkProbe,
    PathProbe,
    ProbeExecutor,
    ProbeOutcome,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.results import TracerouteResult

__all__ = [
    "ProbePlan",
    "DiagnosisEngine",
    "reduce_link_finding",
    "reduce_dead_node",
    "reduce_hotspot_findings",
    "reduce_interference_findings",
]


# -- the decision thresholds every reducer applies ----------------------------

#: Loss ratio from which a link is ``broken_link`` rather than
#: ``lossy_link``.  The passive detectors (:mod:`repro.diag.online`)
#: upgrade on the same boundary, so both modes name a link alike.
BROKEN_LOSS = 0.9
#: Loss ratio from which a link is ``lossy_link``.
LOSSY_LOSS = 0.25
#: Forward/backward LQI and RSSI differences that make a link
#: ``asymmetric_link``.
ASYM_LQI = 12.0
ASYM_RSSI = 8.0
#: A node's mean hop RTT over the reference, and its reported queue
#: depth, from which it is a ``hotspot``.
HOTSPOT_SCORE = 1.5
HOTSPOT_QUEUE = 2
#: dB(ish) RSSI-reading rise over the scan-wide floor that flags a
#: channel as suffering interference.
INTERFERENCE_MARGIN = 12.0


@dataclass(frozen=True)
class ProbePlan:
    """A declarative description of what to examine.

    * ``links`` — directed neighbor pairs to ping-survey (port 0);
    * ``paths`` — (src, dst) pairs to traceroute for hotspot analysis;
    * ``scans`` — nodes to run channel scans on;
    * ``follow_paths`` — also survey every hop link each traceroute
      traversed, so a path complaint decomposes into link verdicts.
    """

    links: tuple[tuple[int, int], ...] = ()
    paths: tuple[tuple[int, int], ...] = ()
    scans: tuple[int, ...] = ()
    rounds: int = 10
    length: int = 32
    routing_port: int = 10
    path_rounds: int = 1
    baseline_rtt_ms: float | None = None
    follow_paths: bool = False

    def __post_init__(self):
        object.__setattr__(self, "links",
                           tuple((int(a), int(b)) for a, b in self.links))
        object.__setattr__(self, "paths",
                           tuple((int(a), int(b)) for a, b in self.paths))
        object.__setattr__(self, "scans", tuple(int(n) for n in self.scans))

    @classmethod
    def for_path(cls, src: int, dst: int, **kw) -> "ProbePlan":
        """The ``diagnose`` workflow: trace the path, survey its hops."""
        kw.setdefault("follow_paths", True)
        return cls(paths=((src, dst),), **kw)


# -- pure reducers: typed observations → findings -----------------------------

def reduce_link_finding(report: LinkReport) -> Finding | None:
    """One link report → at most one link finding.

    Decision order: broken first, then asymmetry, then lossiness.  A
    report with no data (``sent == 0``) yields *no* finding — absence
    of evidence is not a broken link.
    """
    if not report.has_data:
        return None
    link = (report.src, report.dst)
    loss = report.loss_ratio
    if loss >= BROKEN_LOSS:
        return Finding(
            kind="broken_link", link=link,
            confidence=min(1.0, loss),
            summary=(f"{report.received}/{report.sent} probes returned "
                     f"({loss:.0%} loss)"),
            evidence={"sent": report.sent, "received": report.received,
                      "loss_ratio": loss},
        )
    if report.lqi_forward is not None and report.lqi_backward is not None:
        lqi_delta = abs(report.lqi_forward - report.lqi_backward)
        rssi_delta = (abs(report.rssi_forward - report.rssi_backward)
                      if report.rssi_forward is not None
                      and report.rssi_backward is not None else 0.0)
        ratio = max(lqi_delta / ASYM_LQI, rssi_delta / ASYM_RSSI)
        if ratio >= 1.0:
            return Finding(
                kind="asymmetric_link", link=link,
                confidence=min(1.0, 0.5 * ratio),
                summary=(f"forward/backward quality differs "
                         f"(ΔLQI={lqi_delta:.1f}, ΔRSSI={rssi_delta:.1f})"),
                evidence={"lqi_forward": report.lqi_forward,
                          "lqi_backward": report.lqi_backward,
                          "rssi_forward": report.rssi_forward,
                          "rssi_backward": report.rssi_backward,
                          "lqi_delta": lqi_delta,
                          "rssi_delta": rssi_delta},
            )
    if loss >= LOSSY_LOSS:
        return Finding(
            kind="lossy_link", link=link,
            confidence=min(1.0, loss / BROKEN_LOSS),
            summary=(f"{loss:.0%} probe loss "
                     f"({report.received}/{report.sent} returned)"),
            evidence={"sent": report.sent, "received": report.received,
                      "loss_ratio": loss},
        )
    return None


def reduce_dead_node(node: int, *, error: str = "") -> Finding:
    """An unreachable probe source → a ``dead_node`` finding.

    ``unreachable`` means the reliable protocol exhausted retries with
    the workstation adjacent — near-certain death.
    """
    return Finding(
        kind="dead_node", node=node, confidence=0.95,
        summary="no acknowledgment from an adjacent workstation",
        evidence={"failure": "unreachable", "error": error},
    )


def reduce_hotspot_findings(traces: _t.Iterable["TracerouteResult"], *,
                            baseline_rtt_ms: float | None = None,
                            ) -> list[Finding]:
    """Per-hop RTT + queue evidence from traceroutes → hotspot findings.

    Aggregate each node's inbound hop RTTs and max reported queue,
    score against ``baseline_rtt_ms`` (or the probe-wide median when
    absent), and flag nodes past :data:`HOTSPOT_SCORE` or with queues
    at :data:`HOTSPOT_QUEUE` and above.
    """
    rtts: dict[int, list[float]] = {}
    queues: dict[int, int] = {}
    for result in traces:
        for hop in result.hops:
            rtts.setdefault(hop.probed_node_id, []).append(hop.rtt_ms)
            queues[hop.probed_node_id] = max(
                queues.get(hop.probed_node_id, 0), hop.link.queue_remote
            )
    if not rtts:
        return []
    all_means = {node: statistics.fmean(values)
                 for node, values in rtts.items()}
    baseline = (baseline_rtt_ms if baseline_rtt_ms is not None
                else statistics.median(all_means.values()))
    findings = []
    for node, mean_rtt in all_means.items():
        score = mean_rtt / baseline if baseline > 0 else float("inf")
        queue = queues.get(node, 0)
        hot_by_rtt = score >= HOTSPOT_SCORE
        hot_by_queue = queue >= HOTSPOT_QUEUE
        if not (hot_by_rtt or hot_by_queue):
            continue
        confidence = min(1.0, score / (2.0 * HOTSPOT_SCORE))
        if hot_by_queue:
            confidence = max(confidence, 0.7)
        findings.append(Finding(
            kind="hotspot", node=node, confidence=confidence,
            summary=(f"mean hop RTT {mean_rtt:.1f} ms is {score:.1f}x "
                     f"the {baseline:.1f} ms reference"
                     + (f", queue peaked at {queue}" if queue else "")),
            evidence={"mean_hop_rtt_ms": mean_rtt, "max_queue": queue,
                      "samples": len(rtts[node]), "score": score,
                      "baseline_rtt_ms": baseline},
        ))
    return findings


def reduce_interference_findings(readings: _t.Iterable[ChannelReading],
                                 ) -> list[Finding]:
    """Channel-scan energy readings → interference findings.

    The scan-wide median reading is the ambient floor; any channel
    whose peak reading rises :data:`INTERFERENCE_MARGIN` above it is named,
    attributed to the node that observed the peak.
    """
    readings = list(readings)
    if not readings:
        return []
    floor = statistics.median(r.reading for r in readings)
    peaks: dict[int, ChannelReading] = {}
    for r in readings:
        best = peaks.get(r.channel)
        if best is None or (r.reading, -r.node) > (best.reading, -best.node):
            peaks[r.channel] = r
    findings = []
    for channel in sorted(peaks):
        peak = peaks[channel]
        excess = peak.reading - floor
        if excess < INTERFERENCE_MARGIN:
            continue
        findings.append(Finding(
            kind="interference", channel=channel, node=peak.node,
            confidence=min(1.0, excess / (2.0 * INTERFERENCE_MARGIN)),
            summary=(f"energy {excess:.0f} above the ambient floor "
                     f"({peak.reading} vs median {floor:.0f})"),
            evidence={"reading": peak.reading, "floor": float(floor),
                      "excess": float(excess), "observer": peak.node},
        ))
    return findings


# -- the engine ---------------------------------------------------------------

@dataclass
class _RunState:
    """Scratch produced by the probe phase, consumed by reduction."""

    link_reports: list[LinkReport] = field(default_factory=list)
    #: ((src, dst), TracerouteResult) for every path probe that worked.
    traces: list = field(default_factory=list)
    readings: list[ChannelReading] = field(default_factory=list)
    #: Unreachable probe sources → the executor's error text.
    dead: dict[int, str] = field(default_factory=dict)
    probes_run: int = 0
    probes_failed: int = 0


class DiagnosisEngine:
    """Executes :class:`ProbePlan`s and reduces them to findings.

    ``deployment`` is a ``LiteViewDeployment`` (or bare workstation);
    all network access goes through the probe pipeline, so the engine
    sees exactly what an end user at the workstation could see.
    """

    def __init__(self, deployment):
        self.executor = ProbeExecutor(deployment)
        self.testbed = self.executor.testbed

    # -- probe phase -----------------------------------------------------

    def _run(self, state: _RunState, probe) -> ProbeOutcome:
        outcome = self.executor.run(probe)
        state.probes_run += 1
        if not outcome.ok:
            state.probes_failed += 1
            if outcome.unreachable:
                state.dead.setdefault(probe.request().node, outcome.error)
        return outcome

    def _probe_link(self, state: _RunState, src: int, dst: int,
                     plan: ProbePlan) -> None:
        probe = LinkProbe(src=src, dst=dst, rounds=plan.rounds,
                          length=plan.length, port=0)
        outcome = self._run(state, probe)
        if outcome.ok:
            state.link_reports.append(outcome.value)
        elif outcome.failure == "timeout":
            # The node took the command but probes went unanswered —
            # that is data about the link, not missing data.
            state.link_reports.append(probe.failure_observation())

    def _probe_phase(self, plan: ProbePlan) -> _RunState:
        state = _RunState()
        surveyed = set(plan.links)
        for src, dst in plan.links:
            self._probe_link(state, src, dst, plan)
        for src, dst in plan.paths:
            outcome = self._run(state, PathProbe(
                src=src, dst=dst, rounds=plan.path_rounds,
                length=plan.length, port=plan.routing_port))
            if outcome.ok:
                state.traces.append(((src, dst), outcome.value))
        if plan.follow_paths:
            for (src, dst), trace in list(state.traces):
                hops = [h.probed_node_id for h in
                        sorted(trace.hops, key=lambda h: h.hop_index)]
                for a, b in zip([src] + hops, hops):
                    if a != b and (a, b) not in surveyed:
                        surveyed.add((a, b))
                        self._probe_link(state, a, b, plan)
        for node in plan.scans:
            outcome = self._run(state, ChannelScanProbe(node=node))
            if outcome.ok:
                state.readings.extend(outcome.value)
        return state

    # -- reduction phase -------------------------------------------------

    def _reduce(self, state: _RunState, plan: ProbePlan) -> list[Finding]:
        findings = [reduce_dead_node(node, error=state.dead[node])
                    for node in sorted(state.dead)]
        for report in state.link_reports:
            if report.src in state.dead or report.dst in state.dead:
                continue  # symptom of the dead node, already named
            finding = reduce_link_finding(report)
            if finding is not None:
                findings.append(finding)
        findings.extend(reduce_hotspot_findings(
            [trace for _, trace in state.traces],
            baseline_rtt_ms=plan.baseline_rtt_ms))
        findings.extend(reduce_interference_findings(state.readings))
        return sorted(findings, key=Finding.sort_key)

    @staticmethod
    def _path_story(src: int, dst: int, trace) -> str:
        head = (f"Path {src} -> {dst}: "
                f"{'reached' if trace.reached_target else 'DID NOT reach'} "
                f"the target over {trace.hop_count} hop(s).")
        lines = [head]
        for hop in sorted(trace.hops, key=lambda h: h.hop_index):
            lines.append(
                f"  hop {hop.hop_index}: node {hop.probed_node_id}, "
                f"RTT {hop.rtt_ms:.1f} ms, queue {hop.link.queue_remote}, "
                f"LQI {hop.link.lqi_forward}/{hop.link.lqi_backward}"
            )
        return "\n".join(lines)

    # -- entry points ----------------------------------------------------

    def run(self, plan: ProbePlan) -> DiagnosisReport:
        """Execute ``plan`` and reduce its observations to a report."""
        env = self.testbed.env
        monitor = self.testbed.monitor
        tracer = self.testbed.tracer
        started = env.now
        monitor.count("diag.runs")
        state = self._probe_phase(plan)
        findings = self._reduce(state, plan)
        for finding in findings:
            monitor.count(f"diag.finding.{finding.kind}")
            if tracer.enabled:
                tracer.emit("diag.finding", env.now,
                            node=finding.node, kind_label=finding.kind,
                            subject=finding.subject,
                            confidence=round(finding.confidence, 3))
        return DiagnosisReport(
            findings=findings,
            started_at=started, finished_at=env.now,
            probes_run=state.probes_run,
            probes_failed=state.probes_failed,
            path_stories=[self._path_story(src, dst, trace)
                          for (src, dst), trace in state.traces],
        )

    def diagnose(self, src: int, dst: int, *, rounds: int = 5,
                 length: int = 32, port: int = 10) -> DiagnosisReport:
        """The one-call workflow behind the ``diagnose`` shell command:
        trace ``src → dst``, survey every hop link, name what's wrong."""
        return self.run(ProbePlan.for_path(
            src, dst, rounds=rounds, length=length, routing_port=port))
