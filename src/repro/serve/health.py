"""Continuous health assessment: the DiagnosisEngine on a schedule.

Batch diagnosis (``repro.diag``) answers one question once; a live
fleet wants the question re-asked forever.  :class:`HealthAssessor`
owns a fixed :class:`~repro.diag.engine.ProbePlan` — the *watchlist* —
and re-runs it through a :class:`~repro.diag.engine.DiagnosisEngine`
each time the fleet supervisor reaches an assessment boundary, then
renders the latest report as the traffic-light
:func:`~repro.diag.render.health_view` payload ``/health`` serves.

The watchlist is the fleet's nearest-neighbor link graph
(:func:`nearest_neighbor_links`), clamped to :data:`MAX_WATCHLIST`
links: every node of a paper-scale fleet appears in at least one
probed link, the link count stays O(N), and an injected fault on any
such link turns its light within one assessment period.

The fleet is the nodes that beacon.  The management workstation rides
in the testbed but never beacons, so it is never watched, probed or
heard by the passive detectors.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.diag.engine import DiagnosisEngine, ProbePlan
from repro.diag.findings import DiagnosisReport
from repro.diag.online import OnlineMonitor, merge_findings
from repro.diag.render import health_view

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.testbed import Testbed

__all__ = ["HealthAssessor", "nearest_neighbor_links", "MAX_WATCHLIST",
           "ASSESSMENT_MODES", "WATCHLIST_ROUNDS"]

#: How an assessment gathers its evidence: ``active`` probes the
#: watchlist (the paper's workflow), ``passive`` only reads the online
#: beacon detectors (zero probe packets), ``hybrid`` does both and
#: merges, deduplicating by subject.
ASSESSMENT_MODES = ("active", "passive", "hybrid")

#: Cap on the watchlist.  Nearest-neighbor watchlists grow O(N) with
#: fleet size, and every watched link is probed :data:`WATCHLIST_ROUNDS`
#: times per assessment — on the 1k-node city tier an unclamped list
#: would spend minutes of simulated airtime per assessment.  128 keeps
#: the paper-scale fleets (≤ 100 nodes) unclamped.
MAX_WATCHLIST = 128
#: Probe rounds per watched link per assessment.
WATCHLIST_ROUNDS = 3


def fleet_members(testbed: "Testbed") -> list:
    """The testbed's nodes that beacon, by id: every node but the
    management workstation."""
    return [node for node in testbed.nodes() if node.neighbors.beaconing]


def nearest_neighbor_links(testbed: "Testbed"
                           ) -> tuple[tuple[int, int], ...]:
    """Each fleet member's link to its nearest other member, deduplicated.

    The cheapest watchlist that still covers the whole fleet: O(N)
    directed pairs (lower id first), deterministic for a fixed
    topology, and every node is an endpoint of at least one probed
    link — so a dead node or a broken adjacent link is always visible
    to the assessor.

    Vectorized: one pairwise distance matrix and an ``argmin`` per row,
    so the 1k-node city watchlist builds in milliseconds.  Ties go to
    the lowest node id (``argmin`` returns the first minimum and rows
    are id-sorted), matching the scalar loop this replaced.
    """
    nodes = fleet_members(testbed)
    if len(nodes) < 2:
        return ()
    ids = [n.id for n in nodes]
    pos = np.array([n.position for n in nodes], dtype=float)
    deltas = pos[:, None, :] - pos[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", deltas, deltas)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argmin(d2, axis=1)
    links = {
        (min(a, ids[j]), max(a, ids[j]))
        for a, j in zip(ids, nearest)
    }
    return tuple(sorted(links))


class HealthAssessor:
    """Runs one probe plan repeatedly and keeps the latest verdict.

    The recurring plan probes the watchlist (see the module docstring)
    :data:`WATCHLIST_ROUNDS` times per link; :meth:`assess` executes it
    (advancing the simulation by the probe traffic's own duration —
    assessment is *part of* the simulated world, which is what keeps
    served runs reproducible), and :meth:`health` renders the most
    recent report without touching the sim at all.

    ``mode`` selects the evidence source (:data:`ASSESSMENT_MODES`):
    ``passive`` assessments read the :class:`~repro.diag.online.
    OnlineMonitor`'s beacon detectors instead of probing — they send
    zero packets, consume zero simulated time, and leave the packet
    digest byte-identical to an unserved run; ``hybrid`` runs the probe
    plan *and* merges in passive findings about subjects the probes did
    not already name.
    """

    def __init__(self, deployment, *, mode: str = "active"):
        if mode not in ASSESSMENT_MODES:
            raise ValueError(f"unknown assessment mode {mode!r} "
                             f"(one of {ASSESSMENT_MODES})")
        self.mode = mode
        self.deployment = deployment
        self.testbed = deployment.testbed
        links = nearest_neighbor_links(self.testbed)
        if len(links) > MAX_WATCHLIST:
            # Deterministic even-stride subsample of the sorted list:
            # the clamped watchlist stays geographically spread instead
            # of collapsing onto the lowest-id corner of the fleet.
            step = len(links) / MAX_WATCHLIST
            links = tuple(links[int(i * step)]
                          for i in range(MAX_WATCHLIST))
        self.plan = ProbePlan(links=links, rounds=WATCHLIST_ROUNDS)
        self.engine = DiagnosisEngine(deployment)
        self.online: OnlineMonitor | None = None
        if mode != "active":
            self.online = OnlineMonitor(self.testbed).attach()
        self.last_report: "DiagnosisReport | None" = None
        self.last_assessed_at: float | None = None
        self.assessments = 0

    @property
    def watched_links(self) -> tuple[tuple[int, int], ...]:
        return self.plan.links

    @property
    def watched_nodes(self) -> tuple[int, ...]:
        return tuple(node.id for node in fleet_members(self.testbed))

    def assess(self) -> "DiagnosisReport":
        """Run one assessment now; returns (and stores) the report.

        ``active`` runs the watchlist probe plan (advancing the sim by
        the probe traffic's duration); ``passive`` polls the online
        detectors (no sim advance, no packets); ``hybrid`` does both
        and merges passive findings whose subject the probes missed.
        """
        if self.mode == "passive":
            report = self.online.report()
        else:
            if self.online is not None:
                # Mask the listener while our own probes congest the
                # channel — self-inflicted beacon delays must not read
                # as loss or interference (see OnlineMonitor.pause).
                self.online.pause()
            report = self.engine.run(self.plan)
            if self.online is not None:
                self.online.resume()
                self._merge_passive(report)
        self.last_report = report
        self.last_assessed_at = self.testbed.env.now
        self.assessments += 1
        return report

    def _merge_passive(self, report: "DiagnosisReport") -> None:
        """Fold passive findings into an active report, subject-deduped
        (a passive ``broken_link`` must not double-name a pair the
        probes already called ``lossy_link``)."""
        report.findings[:] = merge_findings(report.findings,
                                            self.online.poll())

    def health(self, **extra: object) -> dict:
        """The traffic-light payload for the *latest* report.

        Before the first assessment this is an explicit ``pending``
        status (all subjects unknown), never a fabricated green.
        """
        if self.last_report is None:
            return {
                "status": "pending",
                "mode": self.mode,
                "assessments": 0,
                "sim_time": round(self.testbed.env.now, 6),
                **extra,
            }
        view = health_view(
            self.last_report,
            nodes=self.watched_nodes,
            links=self.watched_links,
            sim_time=self.testbed.env.now,
            assessed_at=self.last_assessed_at,
        )
        view["mode"] = self.mode
        view["assessments"] = self.assessments
        view.update(extra)
        return view
