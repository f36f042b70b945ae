"""Hotspot diagnosis: find the congested relay with traceroute RTTs.

The abstract's claim in action: "identify traffic hotspots by collecting
round-trip delays of arbitrary pairs of nodes".  The workflow is the
interactive one the paper advocates — probe the idle network, start the
application, probe again, and compare:

1. build a dense indoor chain (carrier sense covers adjacent links, so
   congestion shows up as backoff/queueing delay);
2. traceroute the path while the network is idle → per-hop baseline;
3. start two application flows that cross in the middle of the chain;
4. hand the loaded network to the :class:`~repro.diag.DiagnosisEngine`,
   which re-probes the path and reduces the evidence to named
   ``hotspot`` findings with confidences.

Run with::

    python examples/hotspot_diagnosis.py [seed]
"""

import statistics
import sys

from repro.core.deploy import deploy_liteview
from repro.diag import (
    DiagnosisEngine,
    PathProbe,
    ProbeExecutor,
    ProbePlan,
)
from repro.workloads import Flow, TrafficGenerator, corridor_chain


def hop_means(result):
    by_hop = {}
    for hop in result.hops:
        by_hop.setdefault(hop.hop_index, []).append(hop.rtt_ms)
    return {hop: statistics.fmean(values)
            for hop, values in sorted(by_hop.items())}


def diagnose_with_engine(deployment, baseline: float) -> None:
    """The first-class workflow: one plan in, named verdicts out."""
    engine = DiagnosisEngine(deployment)
    report = engine.run(ProbePlan(paths=((1, 5),), path_rounds=4,
                                  baseline_rtt_ms=baseline))
    hotspots = report.of_kind("hotspot")
    if hotspots:
        print("hotspots flagged (RTT vs idle baseline):")
        for finding in hotspots:
            print(f"  {finding.render()}")
    else:
        print("no hotspots above threshold (try a heavier load)")
    print("\nengine report:")
    print(report.explain())


def main(seed: int = 12) -> None:
    testbed = corridor_chain(5, seed=seed)
    deployment = deploy_liteview(testbed, warm_up=15.0)

    # -- step 1: idle baseline ---------------------------------------------
    quiet = ProbeExecutor(deployment).run(
        PathProbe(src=1, dst=5, rounds=3)).value
    baseline = statistics.fmean(h.rtt_ms for h in quiet.hops)
    print("idle network, per-hop RTT (ms):")
    for hop, rtt in hop_means(quiet).items():
        print(f"  hop {hop}: {rtt:6.1f}")
    print(f"  baseline mean: {baseline:.1f} ms\n")

    # -- step 2: the application starts -------------------------------------
    generator = TrafficGenerator(testbed, [
        Flow(src=2, dst=5, interval=0.03, payload_bytes=48),
        Flow(src=4, dst=1, interval=0.03, payload_bytes=48),
    ])
    generator.start()
    testbed.warm_up(3.0)
    print("two application flows started (2->5 and 4->1, ~33 pkt/s "
          "each), crossing in the middle of the chain\n")

    # -- step 3: probe under load and compare -------------------------------
    diagnose_with_engine(deployment, baseline)
    generator.stop()

    print(f"\nbackground flow delivery ratio under load: "
          f"{generator.delivery_ratio:.0%}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
