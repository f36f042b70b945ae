"""repro.diag — first-class end-user diagnosis.

The subsystem the paper is about, promoted out of ad-hoc helpers:

* :mod:`repro.diag.probe` — the pluggable probe pipeline (plan → wire
  request → decode → typed observation) behind ping, traceroute,
  neighbor surveys and channel scans;
* :mod:`repro.diag.observations` — the typed observations probes yield;
* :mod:`repro.diag.findings` — the unified, canonically-JSON
  ``Finding`` schema and ``DiagnosisReport.explain()``;
* :mod:`repro.diag.engine` — ``DiagnosisEngine`` running declarative
  ``ProbePlan``s and reducing observations to named verdicts;
* :mod:`repro.diag.online` — ``OnlineMonitor`` and its sliding-window
  detectors: the zero-probe, passive path to the same ``Finding``
  vocabulary, fed by the kernel beacon stream;
* :mod:`repro.diag.score` — precision/recall of findings against
  injected ground truth (:mod:`repro.faults`);
* :mod:`repro.diag.render` — operator-facing traffic lights and
  plain-language recommendations (the ``repro.serve`` health view).
"""

from repro.diag.engine import (
    DiagnosisEngine,
    ProbePlan,
    reduce_dead_node,
    reduce_hotspot_findings,
    reduce_interference_findings,
    reduce_link_finding,
)
from repro.diag.findings import (
    FINDING_KINDS,
    DiagnosisReport,
    Finding,
    NewFindings,
)
from repro.diag.observations import ChannelReading, LinkReport
from repro.diag.online import (
    CusumDetector,
    EwmaDetector,
    OnlineMonitor,
    WindowStats,
    merge_findings,
)
from repro.diag.probe import (
    ChannelScanProbe,
    LinkProbe,
    NeighborProbe,
    PathProbe,
    Probe,
    ProbeExecutor,
    ProbeOutcome,
    ProbeRequest,
)
from repro.diag.render import (
    GREEN,
    LIGHT_ORDER,
    RED,
    YELLOW,
    health_view,
    recommendation,
    traffic_light,
    worst_light,
)
from repro.diag.score import active_specs, score_findings, spec_matches_finding

__all__ = [
    "DiagnosisEngine",
    "ProbePlan",
    "reduce_link_finding",
    "reduce_dead_node",
    "reduce_hotspot_findings",
    "reduce_interference_findings",
    "FINDING_KINDS",
    "Finding",
    "NewFindings",
    "DiagnosisReport",
    "OnlineMonitor",
    "EwmaDetector",
    "CusumDetector",
    "WindowStats",
    "merge_findings",
    "LinkReport",
    "ChannelReading",
    "Probe",
    "ProbeRequest",
    "ProbeOutcome",
    "ProbeExecutor",
    "LinkProbe",
    "PathProbe",
    "NeighborProbe",
    "ChannelScanProbe",
    "score_findings",
    "spec_matches_finding",
    "active_specs",
    "GREEN",
    "YELLOW",
    "RED",
    "LIGHT_ORDER",
    "traffic_light",
    "recommendation",
    "worst_light",
    "health_view",
]
