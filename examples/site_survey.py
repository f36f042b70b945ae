"""Site survey: find broken and asymmetric links, then fix them.

The deployment-phase loop the paper motivates: an engineer walks a
30-node field with the LiteView workstation, pings every chain of
interest, classifies links, and applies a fix — here, raising transmit
power on the nodes at the two ends of a weak link — then re-surveys to
confirm the improvement "and observe their immediate effects".

Faults injected into the (otherwise healthy) field:

* the link between nodes 7 and 8 is dead in both directions
  (a crushed antenna);
* node 13's transmissions are 6 dB weaker than its receptions
  (a detuned antenna → asymmetric links around node 13).

Run with::

    python examples/site_survey.py [seed]
"""

import sys

from repro.core.deploy import deploy_liteview
from repro.diag import LinkProbe, ProbeExecutor, reduce_link_finding
from repro.workloads import thirty_node_field


def neighbor_pairs(testbed, max_distance=60.0):
    """Directed node pairs close enough to be expected neighbors."""
    nodes = testbed.nodes()
    pairs = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            dx = a.position[0] - b.position[0]
            dy = a.position[1] - b.position[1]
            if (dx * dx + dy * dy) ** 0.5 <= max_distance:
                pairs.append((a.id, b.id))
    return pairs


def survey(deployment, pairs, rounds=10):
    """Ping every directed pair; a failed probe reports no replies."""
    probes = [LinkProbe(src=a, dst=b, rounds=rounds) for a, b in pairs]
    outcomes = ProbeExecutor(deployment).run_all(probes)
    return [o.value if o.ok else p.failure_observation()
            for p, o in zip(probes, outcomes)]


def print_survey(tag, reports):
    print(f"--- {tag} ---")
    counts = {}
    for r in reports:
        finding = reduce_link_finding(r)
        label = finding.kind if finding else "healthy"
        counts[label] = counts.get(label, 0) + 1
        if label != "healthy":
            lqi = ("-" if r.lqi_forward is None
                   else f"{r.lqi_forward:.0f}/{r.lqi_backward:.0f}")
            print(f"  link {r.src:>2} -> {r.dst:>2}: {label:<15} "
                  f"(replies {r.received}/{r.sent}, LQI fwd/bwd {lqi})")
    print("  totals:", ", ".join(
        f"{v} {k}" for k, v in sorted(counts.items())))
    print()
    return counts


def main(seed: int = 3) -> None:
    testbed = thirty_node_field(seed=seed, realistic=False)

    # -- inject the deployment faults --------------------------------------
    testbed.propagation.set_link_shadowing_db(7, 8, 80.0)
    testbed.propagation.set_link_shadowing_db(8, 7, 80.0)
    for other in testbed.namespace.ids():
        if other != 13:
            base = testbed.propagation.link_shadowing_db(13, other)
            testbed.propagation.set_link_shadowing_db(13, other, base + 6.0)

    deployment = deploy_liteview(testbed, warm_up=15.0)

    # Survey a manageable subset: links around the faulty region.
    suspects = [(a, b) for a, b in neighbor_pairs(testbed)
                if {a, b} & {7, 8, 13, 12, 14}]
    print(f"surveying {len(suspects)} links around the suspect nodes "
          "(10 pings each)\n")
    before = print_survey(
        "initial survey", survey(deployment, suspects)
    )

    # -- the fix: crank up power around the weak spots ----------------------
    print("fix: raising node 13's transmit power to compensate the "
          "detuned antenna\n")
    deployment.login(13)
    deployment.run("power 31")  # it already is 31 — show the check
    # A weak transmitter cannot be fixed from software alone; the paper's
    # remedy for such links is physical (reposition/antenna).  Model the
    # antenna being reseated:
    for other in testbed.namespace.ids():
        if other != 13:
            base = testbed.propagation.link_shadowing_db(13, other)
            testbed.propagation.set_link_shadowing_db(13, other, base - 6.0)
    print("fix: reseating node 13's antenna (6 dB recovered) and "
          "re-running the survey\n")

    after = print_survey(
        "post-fix survey", survey(deployment, suspects)
    )

    healthy_gain = after.get("healthy", 0) - before.get("healthy", 0)
    print(f"healthy links: {before.get('healthy', 0)} -> "
          f"{after.get('healthy', 0)} (+{healthy_gain}); the 7-8 link "
          "remains broken and needs a site visit.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
