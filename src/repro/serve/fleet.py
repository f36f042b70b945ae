"""The fleet supervisor: one persistent simulated testbed, served live.

A :class:`FleetSupervisor` owns a deployed testbed and advances it on
its own cadence — :meth:`advance` is the **only** mutation path, and it
is a plain synchronous call the server invokes between request handlers
on the asyncio loop.  Everything a client can read (``/metrics``,
``/health``, SSE events) is produced *at the end of an advance*, at an
event-loop-safe point, from snapshot data: the rendered health JSON is
cached as a string, trace events are batched out through the
:class:`~repro.serve.hub.EventHub` and then cleared, and the metrics
registry is only ever read between advances.  The tracer runs only
while the hub has a subscriber to this fleet's events (an unscoped one,
or one scoped to this fleet), so a fleet nobody streams traces nothing.

Determinism contract (asserted by ``tests/serve``): the injured or
healthy world a supervisor produces depends **only** on the scenario,
seed, and the total simulated time advanced — never on how many clients
were being served or streaming, how the advance was sliced into ticks,
or wall-clock anything.  Assessments fire at fixed *simulated* times
(``assess_every``), so a served run and an unserved run of the same
config produce byte-identical packet digests.
"""

from __future__ import annotations

import math
import typing as _t

from repro.core.deploy import deploy_liteview
from repro.diag.findings import NewFindings
from repro.diag.render import recommendation, traffic_light
from repro.faults import FaultPlan, install_faults
from repro.serve.health import HealthAssessor
from repro.serve.hub import EventHub

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.testbed import Testbed

__all__ = ["FleetSupervisor", "build_fleet"]

#: Trace events are published in batches of at most this many per SSE
#: event, so one busy tick cannot blow a subscriber's queue bound with
#: a thousand tiny events (nor one giant megabyte payload).
TRACE_BATCH = 200


def positive_seconds(name: str, value: float) -> float:
    """``value`` as a float, or a ``ValueError`` naming ``name`` unless
    it is a finite number of seconds above zero: a zero or negative
    cadence would never reach its next target."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number of seconds "
                         f"above 0, got {value:g}")
    return value


class FleetSupervisor:
    """One live fleet: deployment + cadence + health + event publishing."""

    def __init__(self, name: str, deployment, assessor: HealthAssessor, *,
                 assess_every: float = 30.0):
        self.assess_every = positive_seconds("assess_every", assess_every)
        self.name = name
        self.deployment = deployment
        self.testbed: "Testbed" = deployment.testbed
        self.env = self.testbed.env
        self.monitor = self.testbed.monitor
        #: Where events go; a :class:`~repro.serve.app.ServeApp` swaps in
        #: its shared hub.
        self.hub = EventHub()
        self.assessor = assessor
        self._next_assess = self.env.now + self.assess_every
        #: The cumulative advance horizon.  Assessments overshoot sim
        #: time (probe traffic runs to completion), so targets must be
        #: computed against this virtual clock, not ``env.now`` —
        #: otherwise slicing one advance into many would change the
        #: world (see :meth:`advance`).
        self._horizon = self.env.now
        self._pending_plans: list[FaultPlan] = []
        self._new_findings = NewFindings()
        self.injected_plans: list[FaultPlan] = []
        self.ticks = 0
        #: Why the fleet stopped ticking (see :meth:`fail`), else None.
        self.error: str | None = None
        #: Rendered at assessment time; ``/health`` serves this string
        #: without touching the sim.
        self.health_payload: dict = self.assessor.health(fleet=self.name)

    # -- client-facing snapshots --------------------------------------------

    @property
    def sim_time(self) -> float:
        return self.env.now

    def describe(self) -> dict:
        """The fleet card for the index endpoint."""
        return {
            "name": self.name,
            "nodes": len(self.testbed),
            "sim_time": round(self.env.now, 6),
            "ticks": self.ticks,
            "assess_every": self.assess_every,
            "assessments": self.assessor.assessments,
            "mode": self.assessor.mode,
            "status": str(self.health_payload.get("status", "pending")),
            "injected_plans": len(self.injected_plans),
            "error": self.error,
        }

    def fail(self, exc: Exception) -> None:
        """Mark the fleet ``failed`` because ``advance`` raised ``exc``.

        The server stops ticking it; the error shows in :meth:`describe`
        and :attr:`health_payload`, and one ``fleet_error`` event is
        published.
        """
        self.error = f"{type(exc).__name__}: {exc}"
        self.health_payload = {**self.health_payload, "status": "failed",
                               "error": self.error}
        self.hub.publish({
            "type": "fleet_error",
            "fleet": self.name,
            "sim_time": round(self.env.now, 6),
            "error": self.error,
        })

    # -- external inputs -----------------------------------------------------

    def queue_fault_plan(self, plan: "FaultPlan | str | _t.Mapping",
                         ) -> FaultPlan:
        """Accept a fault plan for installation at the next safe point.

        Plans are *queued*, not installed inline: installation compiles
        simulator events, which must happen between advances, never
        while a request handler is running mid-heap.  Returns the
        decoded plan, raising :class:`~repro.errors.PlanError` on
        malformed input or a node the fleet lacks, so the HTTP layer
        can reply 400 before anything is queued.
        """
        decoded = FaultPlan.from_param(plan)
        decoded.check_scope(self.testbed)
        self._pending_plans.append(decoded)
        return decoded

    # -- the cadence ---------------------------------------------------------

    def advance(self, sim_seconds: float) -> None:
        """Advance the fleet ``sim_seconds`` of simulated time.

        Traces exactly when the hub has a subscriber to this fleet (an
        unscoped one, or one whose ``?fleet=`` names it), installs
        queued fault plans (the safe point), runs the sim, fires any
        due health assessments at their fixed simulated times, then
        publishes the tick's events.  Slicing a total of T seconds into
        any number of ``advance`` calls yields the same world as one
        call — partitioning is not an input.

        That invariant is why the target is ``_horizon + sim_seconds``
        rather than ``env.now + sim_seconds``: an assessment's probe
        traffic runs to completion and may leave ``env.now`` past the
        tick's target, and anchoring the next target to the overshot
        clock would make the world depend on where the tick boundaries
        fell.
        """
        self.testbed.tracer.enabled = self.hub.listening(self.name)
        self._install_pending()
        self._horizon += float(sim_seconds)
        target = self._horizon
        while self._next_assess <= target:
            if self.env.now < self._next_assess:
                self.testbed.run(until=self._next_assess)
            self._assess()
            self._next_assess += self.assess_every
        if self.env.now < target:
            self.testbed.run(until=target)
        self.ticks += 1
        self._publish_trace()

    def _install_pending(self) -> None:
        plans, self._pending_plans = self._pending_plans, []
        for plan in plans:
            injector = install_faults(self.testbed, plan)
            self.injected_plans.append(plan)
            self.hub.publish({
                "type": "fault",
                "fleet": self.name,
                "sim_time": round(self.env.now, 6),
                "plan": plan.to_dict(),
                "active": injector is not None,
            })

    def _assess(self) -> None:
        report = self.assessor.assess()
        self.health_payload = self.assessor.health(fleet=self.name)
        for finding in self._new_findings.sift(report.findings):
            self.hub.publish({
                "type": "finding",
                "fleet": self.name,
                "sim_time": round(self.env.now, 6),
                "finding": finding.to_dict(),
                "status": traffic_light(finding),
                "recommendation": recommendation(finding),
            })
        self.hub.publish({
            "type": "health",
            "fleet": self.name,
            "sim_time": round(self.env.now, 6),
            "status": self.health_payload["status"],
            "findings": len(report.findings),
            "assessments": self.assessor.assessments,
        })

    def _publish_trace(self) -> None:
        """Batch out and clear what this advance traced.

        Publishing reads (then clears) the tracer — it never touches
        the event heap or any RNG stream, so enabling/serving the
        stream cannot perturb the sim.  Clearing keeps a long-lived
        fleet's memory bounded by one tick's traffic.
        """
        tracer = self.testbed.tracer
        if not tracer.events:
            return
        events = tracer.events
        for start in range(0, len(events), TRACE_BATCH):
            batch = events[start:start + TRACE_BATCH]
            self.hub.publish({
                "type": "trace",
                "fleet": self.name,
                "sim_time": round(self.env.now, 6),
                "events": [
                    {
                        "time": round(event.time, 6),
                        "kind": event.kind,
                        "node": event.node,
                        "packet": event.packet,
                        "detail": dict(event.detail),
                    }
                    for event in batch
                ],
            })
        tracer.clear()


def build_fleet(spec: str = "field", *, seed: int = 3,
                name: str | None = None,
                assess_every: float = 30.0,
                warm_up: float = 15.0,
                fault_plan: "FaultPlan | str | None" = None,
                mode: str = "active",
                ) -> FleetSupervisor:
    """One-call fleet construction from a topology spec.

    ``spec`` is a topology spec (see
    :func:`~repro.workloads.scenarios.testbed_from_spec`).  The testbed
    is deployed with LiteView everywhere and warmed up so neighbor/routing
    state has settled before the first client ever polls.  ``fault_plan``
    pre-injures the world at construction (the chaos-demo path); live
    injuries arrive later via ``POST /fleets/<name>/faults``.

    The ``/health`` watchlist is the nearest-neighbor link graph,
    clamped to :data:`~repro.serve.health.MAX_WATCHLIST` links (an
    even-stride subsample, which leaves the paper-scale fleets
    unclamped).

    ``mode`` selects how assessments gather evidence
    (:data:`~repro.serve.health.ASSESSMENT_MODES`): ``passive``
    assessments read the beacon-stream detectors and inject zero probe
    packets, so a passive fleet's packet digest is byte-identical to an
    unserved run of the same spec/seed/horizon.
    """
    from repro.workloads.scenarios import testbed_from_spec

    testbed = testbed_from_spec(spec, seed=seed)
    deployment = deploy_liteview(testbed, warm_up=warm_up)
    assessor = HealthAssessor(deployment, mode=mode)
    supervisor = FleetSupervisor(name or spec.replace(":", ""), deployment,
                                 assessor, assess_every=assess_every)
    if fault_plan is not None:
        supervisor.queue_fault_plan(fault_plan)
    return supervisor
