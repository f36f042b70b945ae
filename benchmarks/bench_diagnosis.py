"""E7 (abstract) — end-user diagnosis workflows.

The abstract claims the toolkit lets users "identify broken links or
asymmetric links" and "identify traffic hotspots by collecting round-trip
delays of arbitrary pairs of nodes".  This bench injects one broken link,
one asymmetric link, and one congestion hotspot into a testbed, runs the
diagnosis workflows through the full toolkit path, and asserts each fault
is found without false alarms on the healthy control links.
"""

import pytest

from repro.analysis import render_table
from repro.core.deploy import deploy_liteview
from repro.diag import (
    DiagnosisEngine,
    LinkProbe,
    PathProbe,
    ProbeExecutor,
    ProbePlan,
    reduce_link_finding,
)
from repro.workloads import Flow, TrafficGenerator, build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION


@pytest.fixture(scope="module")
def faulty_deployment():
    """A 6-node chain with a broken and an asymmetric link injected."""
    testbed = build_chain(6, spacing=60.0, seed=8,
                          propagation_kwargs=QUIET_PROPAGATION)
    # Fault 1: link 3->4 and 4->3 dead (e.g. a failed antenna).
    testbed.propagation.set_link_shadowing_db(3, 4, 80.0)
    testbed.propagation.set_link_shadowing_db(4, 3, 80.0)
    # Fault 2: link 5->6 degraded in one direction only.
    testbed.propagation.set_link_shadowing_db(6, 5, 5.0)
    return deploy_liteview(testbed, warm_up=15.0)


def run_survey(dep):
    """Ping each chain hop; a failed probe reports no replies."""
    probes = [LinkProbe(src=a, dst=b, rounds=8)
              for a, b in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]]
    outcomes = ProbeExecutor(dep).run_all(probes)
    return [o.value if o.ok else p.failure_observation()
            for p, o in zip(probes, outcomes)]


def verdict(link_report):
    finding = reduce_link_finding(link_report)
    return finding.kind if finding else "healthy"


def test_broken_and_asymmetric_link_detection(benchmark, faulty_deployment,
                                              report):
    reports = benchmark.pedantic(run_survey, args=(faulty_deployment,),
                                 rounds=3, iterations=1)
    labels = {(r.src, r.dst): verdict(r) for r in reports}

    # -- diagnosis assertions ------------------------------------------
    assert labels[(3, 4)] == "broken_link"
    assert labels[(5, 6)] in ("asymmetric_link", "lossy_link")
    for pair in ((1, 2), (2, 3), (4, 5)):
        assert labels[pair] == "healthy", pair

    rows = [
        [f"{r.src}->{r.dst}", f"{r.received}/{r.sent}",
         "-" if r.lqi_forward is None else round(r.lqi_forward, 1),
         "-" if r.lqi_backward is None else round(r.lqi_backward, 1),
         labels[(r.src, r.dst)]]
        for r in reports
    ]
    report("e7_link_diagnosis", render_table(
        ["link", "replies", "lqi_fwd", "lqi_bwd", "diagnosis"], rows,
        title=("E7 — link survey over the toolkit "
               "(injected: broken 3-4, asymmetric 6->5)"),
    ))


def test_hotspot_detection_under_load(benchmark, report):
    """Cross traffic through a shared relay inflates that node's inbound
    per-hop RTT and queue; the traceroute-based detector flags it."""
    import statistics

    from repro.workloads import corridor_chain

    # Dense indoor chain: carrier sense covers adjacent links, so
    # congestion manifests as backoff/queueing delay — the signature the
    # RTT-based detector reads.
    testbed = corridor_chain(5, seed=12)
    dep = deploy_liteview(testbed, warm_up=15.0)

    # The paper's interactive workflow: probe the idle network first to
    # establish the per-hop RTT baseline ...
    quiet = ProbeExecutor(dep).run(PathProbe(src=1, dst=5, rounds=3)).value
    assert quiet is not None and quiet.hops
    baseline = statistics.fmean(h.rtt_ms for h in quiet.hops)

    # ... then load the middle of the chain with cross traffic ...
    generator = TrafficGenerator(testbed, [
        Flow(src=2, dst=5, interval=0.03, payload_bytes=48),
        Flow(src=4, dst=1, interval=0.03, payload_bytes=48),
    ])
    generator.start()
    testbed.warm_up(3.0)

    # ... and probe again, comparing against the baseline.
    engine = DiagnosisEngine(dep)

    def run():
        return engine.run(ProbePlan(
            paths=((1, 5),), path_rounds=4,
            baseline_rtt_ms=baseline)).of_kind("hotspot")

    hotspots = benchmark.pedantic(run, rounds=3, iterations=1)
    generator.stop()

    assert hotspots, "congested relays must be flagged"
    flagged = {h.node for h in hotspots}
    # The hot region is the chain's interior (the nodes relaying the
    # cross traffic).
    assert flagged & {2, 3, 4}

    report("e7_hotspots", render_table(
        ["node", "mean_hop_rtt_ms", "max_queue", "samples", "score"],
        [[h.node, round(h.evidence["mean_hop_rtt_ms"], 1),
          h.evidence["max_queue"], h.evidence["samples"],
          round(h.evidence["score"], 2)] for h in hotspots],
        title="E7 — hotspot detection (cross traffic through node 3)",
    ))
