"""Tests for canned scenarios and the CLI topology builder."""

import pytest

from repro.analysis import prr_matrix
from repro.workloads import corridor_chain, eight_hop_chain, hundred_node_field


def test_corridor_chain_pins_adjacency():
    """Walls make non-adjacent links unusable while adjacent links stay
    strong at both Figure 6 power levels."""
    tb = corridor_chain(5, seed=2)
    prr_full = prr_matrix(tb, frame_bytes=50, power_level=31)
    prr_low = prr_matrix(tb, frame_bytes=50, power_level=10)
    for i in range(4):
        assert prr_full[i, i + 1] > 0.9
        assert prr_low[i, i + 1] > 0.5
    for i in range(3):
        assert prr_full[i, i + 2] < 0.3  # walls kill the shortcut


def test_corridor_chain_has_asymmetric_links():
    tb = corridor_chain(5, seed=2)
    diffs = [
        abs(tb.propagation.link_shadowing_db(i, i + 1)
            - tb.propagation.link_shadowing_db(i + 1, i))
        for i in range(1, 5)
    ]
    assert any(d > 0.5 for d in diffs)


def test_eight_hop_chain_is_genuinely_eight_hops():
    """Greedy routing over the chain takes ~8 hops, not shortcuts."""
    from repro.net import GeographicForwarding
    tb = eight_hop_chain(seed=2)
    tb.install_protocol_everywhere(GeographicForwarding)
    tb.warm_up(12.0)
    hops = 0
    current = 1
    while current != 9 and hops < 12:
        current = tb.node(current).protocol_on(10).route_next_hop(9)
        assert current is not None
        hops += 1
    assert hops == 8


def test_hundred_node_field_shape():
    """The benchmark-scale topology: 100 unique nodes spanning a grid."""
    tb = hundred_node_field(seed=4)
    assert len(tb) == 100
    ids = [node.id for node in tb.nodes()]
    assert len(set(ids)) == 100
    xs = [node.position[0] for node in tb.nodes()]
    ys = [node.position[1] for node in tb.nodes()]
    # A jittered 10x10 grid at 45 m spacing spans ~405 m, not a clump.
    assert max(xs) - min(xs) > 300
    assert max(ys) - min(ys) > 300


def test_cli_topology_builder():
    """The shell and the fleet server share one topology-spec parser."""
    from repro.workloads.scenarios import testbed_from_spec
    assert len(testbed_from_spec("chain:4", seed=1)) == 4
    assert len(testbed_from_spec("field", seed=1)) == 30
    assert len(testbed_from_spec("hundred", seed=1)) == 100
    assert len(testbed_from_spec("city:40", seed=1)) == 40
    for bogus in ("bogus", "grid:3x3", "star:4", "city:0"):
        with pytest.raises(ValueError):
            testbed_from_spec(bogus, seed=1)
    from repro.__main__ import main
    with pytest.raises(SystemExit, match="unknown topology spec"):
        main(["shell", "--nodes", "grid:3x3"])
