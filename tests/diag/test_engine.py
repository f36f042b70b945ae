"""The DiagnosisEngine over live deployments, and the diagnose command."""

import pytest

from repro.core.deploy import deploy_liteview
from repro.errors import ParameterError
from repro.diag import DiagnosisEngine, ProbePlan
from repro.faults import FaultPlan, FaultSpec, install_faults
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION

ADJACENT = ((1, 2), (2, 3), (3, 4))


def _chain(seed=3, *, specs=(), warm_up=15.0):
    testbed = build_chain(4, spacing=60.0, seed=seed,
                          propagation_kwargs=QUIET_PROPAGATION)
    if specs:
        install_faults(testbed, FaultPlan(name="engine-test", specs=specs))
    deployment = deploy_liteview(testbed, warm_up=warm_up)
    return testbed, deployment


def test_healthy_chain_yields_a_healthy_report():
    testbed, deployment = _chain()
    report = DiagnosisEngine(deployment).run(
        ProbePlan(links=ADJACENT, rounds=6, length=16))
    assert report.healthy
    assert report.probes_run == 3 and report.probes_failed == 0
    assert "No problems diagnosed" in report.explain()
    assert testbed.monitor.counter("diag.runs") == 1


def test_broken_link_is_named():
    _, deployment = _chain(specs=(
        FaultSpec(kind="link_degrade", at=16.0, link=(2, 3), loss_db=80.0),
    ), warm_up=17.0)
    report = DiagnosisEngine(deployment).run(
        ProbePlan(links=ADJACENT, rounds=6, length=16))
    assert [f.link for f in report.of_kind("broken_link")] == [(2, 3)]
    assert not report.of_kind("dead_node")


def test_dead_node_suppresses_its_link_symptoms():
    """A crashed node must be named once, not as N broken links."""
    testbed, deployment = _chain(specs=(
        FaultSpec(kind="node_crash", at=16.0, nodes=(3,)),
    ), warm_up=17.0)
    report = DiagnosisEngine(deployment).run(
        ProbePlan(links=ADJACENT, rounds=4, length=16))
    assert [f.node for f in report.of_kind("dead_node")] == [3]
    assert report.of_kind("dead_node")[0].confidence == 0.95
    # links (2,3) and (3,4) touch the corpse: no separate link verdicts
    assert not report.of_kind("broken_link")
    assert not report.of_kind("lossy_link")
    assert testbed.monitor.counter("diag.finding.dead_node") == 1


def test_findings_arrive_in_severity_order():
    _, deployment = _chain(specs=(
        FaultSpec(kind="node_crash", at=16.0, nodes=(4,)),
        FaultSpec(kind="link_degrade", at=16.0, link=(1, 2), loss_db=80.0),
    ), warm_up=17.0)
    # (4, 3) puts the crashed node in a probe *source* seat, which is
    # what lets the executor classify it unreachable.
    report = DiagnosisEngine(deployment).run(
        ProbePlan(links=ADJACENT + ((4, 3),), rounds=4, length=16))
    kinds = [f.kind for f in report.findings]
    assert kinds == sorted(
        kinds, key=["dead_node", "broken_link", "asymmetric_link",
                    "lossy_link", "hotspot", "interference"].index)
    assert kinds[0] == "dead_node"


def test_partial_loss_is_named_lossy():
    # A few dB off the 60 m hop puts it in the gray region: some probe
    # rounds return, more than a quarter do not.
    _, deployment = _chain(specs=(
        FaultSpec(kind="link_degrade", at=16.0, link=(1, 2), loss_db=5.75),
    ), warm_up=17.0)
    report = DiagnosisEngine(deployment).run(
        ProbePlan(links=((1, 2),), rounds=8, length=16))
    assert [(f.kind, f.link) for f in report.findings] == [
        ("lossy_link", (1, 2))]
    assert 0.25 <= report.findings[0].evidence["loss_ratio"] < 0.9


def test_quiet_network_has_no_strong_hotspots():
    _, deployment = _chain(seed=4)
    report = DiagnosisEngine(deployment).run(ProbePlan(paths=((1, 4),)))
    assert report.probes_failed == 0
    assert all(f.evidence["max_queue"] <= 1
               for f in report.of_kind("hotspot"))


def test_diag_finding_trace_events_are_emitted():
    testbed, deployment = _chain(specs=(
        FaultSpec(kind="link_degrade", at=16.0, link=(2, 3), loss_db=80.0),
    ), warm_up=17.0)
    testbed.tracer.enable()
    DiagnosisEngine(deployment).run(
        ProbePlan(links=ADJACENT, rounds=4, length=16))
    kinds = {e.kind for e in testbed.tracer.events}
    assert "diag.probe" in kinds
    assert "diag.finding" in kinds


# -- the diagnose shell command ----------------------------------------------

def test_diagnose_command_tells_the_path_story():
    _, deployment = _chain()
    deployment.login("192.168.0.1")
    output = deployment.run("diagnose 192.168.0.4")
    assert "Path 1 -> 4:" in output
    assert "reached the target over 3 hop(s)" in output
    report = deployment.interpreter.last_report
    assert report is not None
    assert report.probes_run == 4  # one trace + three hop surveys
    assert not report.of_kind("dead_node")
    assert not report.of_kind("broken_link")


def test_diagnose_command_reports_an_unreachable_target():
    _, deployment = _chain(specs=(
        FaultSpec(kind="link_degrade", at=16.0, link=(2, 3), loss_db=80.0),
    ), warm_up=17.0)
    deployment.login("192.168.0.1")
    output = deployment.run("diagnose 192.168.0.4")
    assert "DID NOT reach the target" in output


def test_diagnose_command_requires_a_target():
    _, deployment = _chain()
    deployment.login("192.168.0.1")
    with pytest.raises(ParameterError, match="usage: diagnose"):
        deployment.run("diagnose")
