"""Chaos round-trip: every FaultSpec kind → the engine names the injury.

One test per fault kind in the PR-4 vocabulary.  Each injects a single
fault, runs a probe plan an operator plausibly would, and asserts the
:func:`~repro.diag.score.score_findings` recall against the plan is 1.0
— i.e. the engine produced a finding that *names* the injected fault's
footprint (the link, the node, the channel), not merely "something".
"""

import statistics

from repro.core.deploy import deploy_liteview
from repro.diag import (
    DiagnosisEngine,
    PathProbe,
    ProbeExecutor,
    ProbePlan,
    score_findings,
)
from repro.faults import FaultPlan, FaultSpec, install_faults
from repro.workloads import Flow, TrafficGenerator, build_chain, corridor_chain
from repro.workloads.scenarios import QUIET_PROPAGATION


def _quiet_chain(spec, *, nodes=4, seed=3, warm_up=17.0):
    testbed = build_chain(nodes, spacing=60.0, seed=seed,
                          propagation_kwargs=QUIET_PROPAGATION)
    plan = FaultPlan(name=f"chaos-{spec.kind}", specs=(spec,))
    install_faults(testbed, plan)
    deployment = deploy_liteview(testbed, warm_up=warm_up)
    return testbed, deployment, plan


def _diagnose(testbed, deployment, plan, probe_plan):
    at = testbed.env.now
    report = DiagnosisEngine(deployment).run(probe_plan)
    return report, score_findings(report.findings, plan, at=at)


def test_node_crash_named_as_dead_node():
    testbed, deployment, plan = _quiet_chain(
        FaultSpec(kind="node_crash", at=16.0, nodes=(3,)))
    report, score = _diagnose(
        testbed, deployment, plan,
        ProbePlan(links=((1, 2), (2, 3), (3, 4)), rounds=4, length=16))
    assert score["recall"] == 1.0
    assert [f.node for f in report.of_kind("dead_node")] == [3]


def test_node_reboot_caught_during_its_downtime():
    testbed, deployment, plan = _quiet_chain(
        FaultSpec(kind="node_reboot", at=16.0, duration=10.0, nodes=(3,)))
    # warm_up=17 lands the survey inside the 16..26 s outage window.
    report, score = _diagnose(
        testbed, deployment, plan,
        ProbePlan(links=((3, 4), (2, 3)), rounds=4, length=16))
    assert score["recall"] == 1.0 and score["precision"] == 1.0
    assert [f.node for f in report.of_kind("dead_node")] == [3]


def test_link_degrade_named_as_broken_link():
    testbed, deployment, plan = _quiet_chain(
        FaultSpec(kind="link_degrade", at=16.0, link=(2, 3), loss_db=80.0))
    report, score = _diagnose(
        testbed, deployment, plan,
        ProbePlan(links=((1, 2), (2, 3), (3, 4)), rounds=6, length=16))
    assert score["recall"] == 1.0 and score["precision"] == 1.0
    assert [f.link for f in report.of_kind("broken_link")] == [(2, 3)]


def test_interference_burst_named_on_its_channel():
    testbed, deployment, plan = _quiet_chain(
        FaultSpec(kind="interference_burst", at=16.0, duration=120.0,
                  channel=20, loss_db=30.0),
        warm_up=18.0)
    report, score = _diagnose(testbed, deployment, plan,
                              ProbePlan(scans=(2,)))
    assert score["recall"] == 1.0
    assert [f.channel for f in report.of_kind("interference")] == [20]


def test_packet_corrupt_surfaces_as_lossy_links_at_the_node():
    testbed, deployment, plan = _quiet_chain(
        FaultSpec(kind="packet_corrupt", at=16.0, probability=0.45,
                  nodes=(3,)))
    report, score = _diagnose(
        testbed, deployment, plan,
        ProbePlan(links=((1, 2), (2, 3), (3, 4)), rounds=10, length=16))
    assert score["recall"] == 1.0
    lossy = (report.of_kind("lossy_link") + report.of_kind("broken_link"))
    assert any(3 in f.link for f in lossy)


def test_queue_saturate_surfaces_as_loss_through_the_node():
    testbed = corridor_chain(5, seed=12)
    plan = FaultPlan(name="chaos-queue", specs=(
        FaultSpec(kind="queue_saturate", at=16.0, nodes=(3,), capacity=1),))
    install_faults(testbed, plan)
    deployment = deploy_liteview(testbed, warm_up=16.5)
    # Crossing flows keep the clamped relay's one queue slot contended.
    generator = TrafficGenerator(testbed, [
        Flow(src=2, dst=5, interval=0.03, payload_bytes=48),
        Flow(src=4, dst=1, interval=0.03, payload_bytes=48),
    ])
    generator.start()
    testbed.warm_up(2.0)
    try:
        report, score = _diagnose(
            testbed, deployment, plan,
            ProbePlan(links=((2, 3), (3, 4)), rounds=8, length=16))
    finally:
        generator.stop()
    assert score["recall"] == 1.0
    lossy = (report.of_kind("lossy_link") + report.of_kind("broken_link"))
    assert any(3 in f.link for f in lossy)


def test_clock_drift_surfaces_as_a_spurious_hotspot():
    # A clock running 3x fast on the probing node triples every RTT it
    # measures; against the pre-drift baseline that reads as congestion.
    testbed, deployment, plan = _quiet_chain(
        FaultSpec(kind="clock_drift", at=20.0, nodes=(2,), drift=2.0),
        warm_up=15.0)
    quiet = ProbeExecutor(deployment).run(
        PathProbe(src=2, dst=4, rounds=3)).value
    baseline = statistics.fmean(h.rtt_ms for h in quiet.hops)
    testbed.warm_up(max(0.0, 25.0 - testbed.env.now))
    report, score = _diagnose(
        testbed, deployment, plan,
        ProbePlan(paths=((2, 4),), path_rounds=3, baseline_rtt_ms=baseline))
    assert score["recall"] == 1.0
    assert report.of_kind("hotspot")
    assert report.of_kind("hotspot")[0].evidence["score"] >= 1.5
