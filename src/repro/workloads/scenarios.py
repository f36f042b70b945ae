"""Canned testbed scenarios matching the paper's evaluation setups.

* :func:`eight_hop_chain` — "a testbed of eight hops in diameter"
  (Figures 5, 6, 7).
* :func:`thirty_node_field` — "a testbed composed of thirty MicaZ nodes"
  (§III-B.3), as a jittered 6×5 grid.
* :func:`hundred_node_field` — a 10×10 jittered grid for the long-duration
  link studies related work runs at scale; opened up by the vectorized
  medium (see docs/PERFORMANCE.md).
* The chains use quiet (deterministic) propagation; the fields and the
  city draw mild seeded shadowing and fading.  Either way a seed fixes
  the world, so benches regenerate identical figures run over run.
"""

from __future__ import annotations

import math

from repro.kernel.testbed import Testbed
from repro.workloads.topologies import build_chain, build_city, build_grid

__all__ = [
    "testbed_from_spec",
    "eight_hop_chain",
    "thirty_node_field",
    "hundred_node_field",
    "thousand_node_city",
    "corridor_chain",
    "QUIET_PROPAGATION",
    "REALISTIC_PROPAGATION",
]

#: Deterministic propagation: no shadowing or fading draws.
QUIET_PROPAGATION = {"shadowing_sigma_db": 0.0, "fading_sigma_db": 0.0}

#: Mild, realistic stochastic propagation for diagnosis scenarios.
REALISTIC_PROPAGATION = {"shadowing_sigma_db": 3.0, "fading_sigma_db": 0.8}


#: Node spacing (metres) of the jittered field grids.
FIELD_SPACING = 45.0

#: The corridor's node spacing (metres), and the wall loss (dB) pinned
#: on every non-adjacent directed pair.
CORRIDOR_SPACING = 22.0
CORRIDOR_WALL_LOSS_DB = 25.0


def eight_hop_chain(seed: int = 1) -> Testbed:
    """Nine nodes in a line, quiet propagation: the paper's
    8-hop-diameter testbed."""
    return build_chain(9, seed=seed, propagation_kwargs=QUIET_PROPAGATION)


def corridor_chain(n_nodes: int = 9, *, seed: int = 1) -> Testbed:
    """A dense indoor chain whose path is pinned to adjacency.

    The paper's Figure 6 probes the *same* 8-hop path at PA levels 10
    and 25.  At low power that needs short links; at high power short
    links would let greedy forwarding skip hops.  Real indoor testbeds
    resolve this with walls: non-adjacent nodes are separated by
    additional obstruction loss.  We model exactly that by pinning
    :data:`CORRIDOR_WALL_LOSS_DB` of extra shadowing on every
    non-adjacent directed pair, while adjacent links keep mild random
    (asymmetric) shadowing.
    """
    testbed = build_chain(
        n_nodes, spacing=CORRIDOR_SPACING, seed=seed,
        propagation_kwargs={
            "shadowing_sigma_db": 2.0,
            "fading_sigma_db": 0.8,
        },
    )
    ids = [node.id for node in testbed.nodes()]
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if a != b and abs(i - j) >= 2:
                base = testbed.propagation.link_shadowing_db(a, b)
                testbed.propagation.set_link_shadowing_db(
                    a, b, base + CORRIDOR_WALL_LOSS_DB
                )
    return testbed


def thirty_node_field(seed: int = 1, *, realistic: bool = True) -> Testbed:
    """Thirty nodes as a jittered 6×5 grid — the §III-B.3 testbed."""
    return build_grid(
        6, 5, spacing=FIELD_SPACING, jitter=FIELD_SPACING * 0.15, seed=seed,
        propagation_kwargs=(REALISTIC_PROPAGATION if realistic
                            else QUIET_PROPAGATION),
    )


def hundred_node_field(seed: int = 1) -> Testbed:
    """One hundred nodes as a jittered 10×10 grid, realistic propagation.

    Larger than anything in the paper itself: this is the scale of the
    WSN-link measurement studies in related work (Fu et al.), and exists
    to exercise — and benchmark — the medium's vectorized hot path on a
    topology where every transmission has ~99 candidate receivers.
    """
    return build_grid(
        10, 10, spacing=FIELD_SPACING, jitter=FIELD_SPACING * 0.15,
        seed=seed, propagation_kwargs=REALISTIC_PROPAGATION,
    )


def thousand_node_city(seed: int = 1, *, districts: int = 5) -> Testbed:
    """A 1k-node city: clustered districts, sparse inter-district bridges.

    The default is 5×5 districts of 40 nodes plus 40 bridge relays —
    1040 nodes, an order of magnitude past :func:`hundred_node_field`.
    Districts sit 1500 m apart, beyond the conservative radio range of
    the realistic propagation model, so every transmission has ~40
    in-range candidates out of >1000 attached radios: the scenario
    exists to exercise — and benchmark — the medium's spatial-index
    pruning (>90% of receivers skipped per transmission).
    """
    return build_city(districts, districts, 40, seed=seed,
                      propagation_kwargs=REALISTIC_PROPAGATION)


def testbed_from_spec(spec: str, *, seed: int) -> Testbed:
    """The testbed a topology spec names, for the shell's ``--nodes`` and
    ``serve SCENARIO`` alike: ``field`` (30 nodes), ``hundred`` (10×10),
    ``city`` (alias ``thousand_node_city``), ``city:K`` (roughly ``K``
    nodes) or ``chain:K``; anything else raises ``ValueError``."""
    if spec == "field":
        return thirty_node_field(seed=seed)
    if spec == "hundred":
        return hundred_node_field(seed=seed)
    if spec in ("city", "thousand_node_city"):
        return thousand_node_city(seed=seed)
    if spec.startswith("city:"):
        # Size the district lattice so districts² × 40 ≈ K nodes.
        target = int(spec.split(":", 1)[1])
        if target < 1:
            raise ValueError(f"city size must be positive, got {target}")
        side = max(1, round(math.sqrt(target / 40)))
        return thousand_node_city(seed=seed, districts=side)
    if spec.startswith("chain:"):
        return build_chain(int(spec.split(":", 1)[1]), seed=seed,
                           propagation_kwargs=QUIET_PROPAGATION)
    raise ValueError(f"unknown topology spec {spec!r} (use 'field', "
                     "'hundred', 'city', 'city:K' or 'chain:K')")
