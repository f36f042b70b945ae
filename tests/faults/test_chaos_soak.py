"""End-to-end chaos soak: an 8-node chain under a mixed fault plan.

The bar the subsystem has to clear: with crashes, corruption,
interference, queue clamps and a broken link all in one plan, the
toolkit's commands still *return* (possibly with failed results — that
is what they are for), nothing deadlocks, and the diagnosis workflow
names the injured hop.
"""

from repro.core.deploy import deploy_liteview
from repro.diag import DiagnosisEngine, PathProbe, ProbeExecutor, ProbePlan
from repro.faults import FaultPlan, FaultSpec, install_faults
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION

#: The hop the plan injures permanently (survey must name it).
INJURED = (4, 5)

PLAN = FaultPlan(name="soak", specs=(
    # Transient chaos while the first commands run (t = 15..25):
    FaultSpec(kind="packet_corrupt", at=15.0, duration=10.0,
              probability=0.15),
    FaultSpec(kind="interference_burst", at=18.0, duration=1.5,
              channel=17, loss_db=25.0),
    FaultSpec(kind="node_reboot", at=16.0, nodes=(7,)),
    # Standing impairments that must not break the control plane:
    FaultSpec(kind="queue_saturate", at=15.0, nodes=(2,), capacity=2),
    FaultSpec(kind="clock_drift", at=15.0, nodes=(6,), drift=0.05),
    # The injury the diagnosis pass has to localise (t >= 30):
    FaultSpec(kind="link_degrade", at=30.0, link=INJURED, loss_db=80.0),
))


def test_chaos_soak_commands_return_and_diagnosis_names_injured_hop():
    tb = build_chain(8, spacing=60.0, seed=21,
                     propagation_kwargs=QUIET_PROPAGATION)
    injector = install_faults(tb, PLAN)
    dep = deploy_liteview(tb, warm_up=15.0)

    # Phase 1 — commands issued *during* the transient chaos window.
    # They may lose rounds; they must come back.
    dep.login("192.168.0.1")
    dep.run("ping 192.168.0.8 round=3 length=16")
    chaos_ping = dep.interpreter.last_result
    assert chaos_ping is not None
    assert chaos_ping.received + chaos_ping.lost == 3

    # A failed traceroute is a *result* here (value None).
    chaos_trace = ProbeExecutor(dep).run(PathProbe(src=1, dst=8)).value
    if chaos_trace is not None:
        assert len(chaos_trace.hops) <= 7

    # Phase 2 — let the transients expire, then the standing injury
    # lands at t=30 and the path to node 8 dies at hop 4->5.
    if tb.env.now < 35.0:
        tb.warm_up(35.0 - tb.env.now)
    dep.run("ping 192.168.0.8 round=3 length=16")
    broken_ping = dep.interpreter.last_result
    assert broken_ping.received == 0 and broken_ping.lost == 3

    broken_trace = ProbeExecutor(dep).run(PathProbe(src=1, dst=8)).value
    if broken_trace is not None:
        assert not broken_trace.reached_target
        assert all(h.probed_node_id <= INJURED[0] for h in broken_trace.hops)

    # Phase 3 — the diagnosis engine's site-survey walk localises the
    # injury by name.
    report = DiagnosisEngine(dep).run(ProbePlan(
        links=tuple((i, i + 1) for i in range(1, 8)),
        rounds=6, length=16,
    ))
    assert {f.link for f in report.of_kind("broken_link")} == {INJURED}
    assert not report.of_kind("dead_node")  # the reboot expired long ago
    named = next(iter(report.of_kind("broken_link")))
    assert named.evidence["received"] == 0
    assert f"link {INJURED[0]}->{INJURED[1]}" in report.explain()

    # The whole soak ran bounded — nothing hung waiting forever.
    assert tb.env.now < 500.0
    assert injector.activations["link_degrade"] == 1
    assert tb.monitor.counter("faults.activations") >= 6
