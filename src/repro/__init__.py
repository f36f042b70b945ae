"""LiteView reproduction: end-user diagnosis of communication paths in
sensor network systems (Cao, Wang, Abdelzaher — ICPP 2009).

The package reproduces the LiteView toolkit in simulation:

* :mod:`repro.obs` — observability: packet-lifecycle tracing, metrics
  registry, sim profiler, trace export
* :mod:`repro.sim` — discrete-event engine, seeded RNG streams, monitor
* :mod:`repro.radio` — CC2420 PHY model and shared radio medium
* :mod:`repro.mac` — 802.15.4-style CSMA/CA MAC
* :mod:`repro.net` — port-based stack, link-quality padding, routing
* :mod:`repro.kernel` — LiteOS model: nodes, testbeds, kernel services
* :mod:`repro.core` — LiteView itself: ping, traceroute, neighborhood
  management, radio configuration, reliable control channel, shell
* :mod:`repro.diag` — first-class diagnosis: the pluggable probe
  pipeline, the unified ``Finding`` schema, the ``DiagnosisEngine``
  and precision/recall scoring against injected faults
* :mod:`repro.workloads` — topologies and canned scenarios
* :mod:`repro.faults` — deterministic fault injection: declarative
  plans of crashes, degraded links, interference, corruption
* :mod:`repro.plan` — the codec fault and mobility plans share, and
  its checked decoding of plan input (``PlanError``)
* :mod:`repro.analysis` — metrics aggregation and table rendering

Quickstart::

    from repro import Testbed, deploy_liteview

    tb = Testbed(seed=1)
    for i in range(4):
        tb.add_node(f"192.168.0.{i + 1}", (i * 60.0, 0.0))
    dep = deploy_liteview(tb, warm_up=15.0)
    dep.login("192.168.0.1")
    print(dep.run("ping 192.168.0.2 round=1 length=32"))
"""

from repro.core import (
    CommandInterpreter,
    LiteViewDeployment,
    PingResult,
    TracerouteResult,
    Workstation,
    deploy_liteview,
    install_ping,
    install_traceroute,
)
from repro.diag import (
    DiagnosisEngine,
    DiagnosisReport,
    Finding,
    ProbePlan,
    score_findings,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec, install_faults
from repro.kernel import SensorNode, Testbed
from repro.net import WellKnownPorts
from repro.obs import MetricsRegistry, SimProfiler, Tracer
from repro.sim import Environment, Monitor, RngRegistry

__version__ = "1.0.0"

__all__ = [
    "Testbed",
    "SensorNode",
    "deploy_liteview",
    "LiteViewDeployment",
    "CommandInterpreter",
    "Workstation",
    "PingResult",
    "TracerouteResult",
    "install_ping",
    "install_traceroute",
    "DiagnosisEngine",
    "DiagnosisReport",
    "Finding",
    "ProbePlan",
    "score_findings",
    "WellKnownPorts",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "install_faults",
    "Environment",
    "Monitor",
    "RngRegistry",
    "Tracer",
    "MetricsRegistry",
    "SimProfiler",
    "__version__",
]
