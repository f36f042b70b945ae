"""Chaos fault injection: break a live network, then diagnose it.

A declarative `FaultPlan` injures an 8-node chain in two acts:

1. a *transient* storm while commands are running — packet corruption,
   an interference burst on the active channel, one node rebooting —
   through which every command still returns;
2. a *standing* injury — 80 dB of extra path loss on the 4-5 hop —
   which the paper's diagnosis workflow then has to localise.

The plan is pure data: the same seed and plan replay bit-for-bit, and
the plan can be passed as a campaign parameter
(`Campaign(base_params={"fault_plan": PLAN}, ...)`) to sweep chaos
across a whole grid.  See `docs/FAULTS.md`.

Run with::

    python examples/chaos_fault_injection.py [seed]
"""

import sys

from repro.core.deploy import deploy_liteview
from repro.diag import LinkProbe, PathProbe, ProbeExecutor, reduce_link_finding
from repro.faults import FaultPlan, FaultSpec, install_faults
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION

INJURED = (4, 5)

PLAN = FaultPlan(name="two-act-chaos", specs=(
    # Act 1 — transient storm (t = 15..25 s):
    FaultSpec(kind="packet_corrupt", at=15.0, duration=10.0,
              probability=0.15),
    FaultSpec(kind="interference_burst", at=18.0, duration=1.5,
              channel=17, loss_db=25.0),
    FaultSpec(kind="node_reboot", at=16.0, nodes=(7,)),
    # Act 2 — the standing injury (t >= 30 s, never lifted):
    FaultSpec(kind="link_degrade", at=30.0, link=INJURED, loss_db=80.0),
))


def main(seed: int = 21) -> None:
    testbed = build_chain(8, spacing=60.0, seed=seed,
                          propagation_kwargs=QUIET_PROPAGATION)
    injector = install_faults(testbed, PLAN)
    deployment = deploy_liteview(testbed, warm_up=15.0)
    deployment.login("192.168.0.1")

    print("--- act 1: ping through the transient storm ---")
    print(deployment.run("ping 192.168.0.8 round=3 length=16"))

    # Let the transients expire; the standing injury lands at t=30.
    if testbed.env.now < 35.0:
        testbed.warm_up(35.0 - testbed.env.now)

    print("--- act 2: the path to node 8 is now severed at hop "
          f"{INJURED[0]}->{INJURED[1]} ---")
    print(deployment.run("ping 192.168.0.8 round=3 length=16"))
    executor = ProbeExecutor(deployment)
    outcome = executor.run(PathProbe(src=1, dst=8))
    if outcome.ok:
        trace = outcome.value
        last = max(h.probed_node_id for h in trace.hops)
        print(f"traceroute stalls at node {last} "
              f"(reached target: {trace.reached_target})\n")
    else:
        print(f"traceroute failed ({outcome.failure}) before the break\n")

    print("--- diagnosis: survey every hop of the chain ---")
    probes = [LinkProbe(src=i, dst=i + 1, rounds=6, length=16)
              for i in range(1, 8)]
    for probe, outcome in zip(probes, executor.run_all(probes)):
        report = outcome.value if outcome.ok else probe.failure_observation()
        finding = reduce_link_finding(report)
        label = finding.kind if finding else "healthy"
        marker = "  <-- the injury" if label == "broken_link" else ""
        print(f"  link {report.src} -> {report.dst}: "
              f"replies {report.received}/{report.sent}, "
              f"{label}{marker}")

    print(f"\nfault activations: {dict(injector.activations)}")
    print(f"simulated time: {testbed.env.now:.1f} s — every command "
          "returned; nothing hung.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 21)
