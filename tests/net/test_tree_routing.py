"""Tests for ETX collection-tree routing."""

from repro.kernel import Testbed
from repro.net import TREE_PORT, TreeRouting
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION

SINK_PORT = 50


def tree_chain(n=5, spacing=60.0, seed=4, root=1):
    tb = build_chain(n, spacing=spacing, seed=seed,
                     propagation_kwargs=QUIET_PROPAGATION)
    for node in tb.nodes():
        node.install_protocol(TreeRouting, root=root)
    return tb


def sink(node):
    got = []
    node.stack.ports.subscribe(SINK_PORT, lambda p, a: got.append(p),
                               name="sink")
    return got


def test_tree_converges_with_monotone_costs():
    tb = tree_chain(5)
    tb.warm_up(40.0)
    costs = [tb.node(i).protocol_on(TREE_PORT).path_cost10()
             for i in range(1, 6)]
    assert costs[0] == 0  # root
    assert all(b > a for a, b in zip(costs, costs[1:]))
    parents = [tb.node(i).protocol_on(TREE_PORT).parent()
               for i in range(2, 6)]
    assert parents == [1, 2, 3, 4]


def test_collection_delivers_to_root():
    tb = tree_chain(5)
    tb.warm_up(40.0)
    got = sink(tb.node(1))
    assert tb.node(5).protocol_on(TREE_PORT).send(1, SINK_PORT, b"up")
    tb.warm_up(2.0)
    assert len(got) == 1
    assert got[0].origin == 5
    assert got[0].hop_count == 4


def test_non_root_destinations_are_unroutable():
    tb = tree_chain(4)
    tb.warm_up(40.0)
    before = tb.monitor.counter("routing.no_route")
    assert not tb.node(4).protocol_on(TREE_PORT).send(3, SINK_PORT, b"x")
    assert tb.monitor.counter("routing.no_route") == before + 1


def test_detached_node_has_no_parent():
    tb = Testbed(seed=4, propagation_kwargs=QUIET_PROPAGATION)
    tb.add_node("root", (0.0, 0.0))
    tb.add_node("near", (60.0, 0.0))
    tb.add_node("island", (5000.0, 0.0))
    for node in tb.nodes():
        node.install_protocol(TreeRouting, root=1)
    tb.warm_up(40.0)
    island = tb.node(3).protocol_on(TREE_PORT)
    assert island.parent() is None
    assert island.path_cost10() == 0xFFFF


def test_parent_expires_when_it_dies():
    tb = tree_chain(3)
    tb.warm_up(40.0)
    proto = tb.node(3).protocol_on(TREE_PORT)
    assert proto.parent() == 2
    tb.node(2).fail()
    tb.warm_up(40.0)
    assert proto.parent() != 2


def test_etx_prefers_two_good_links_over_one_marginal():
    """The metric contrast: a marginal direct link to the root loses to
    a clean two-hop path — hop-count routing would choose the opposite."""
    tb = Testbed(seed=6, propagation_kwargs=QUIET_PROPAGATION)
    tb.add_node("root", (0.0, 0.0))      # 1
    tb.add_node("relay", (45.0, 10.0))   # 2: two clean ~46/51 m links
    tb.add_node("leaf", (100.0, 0.0))    # 3: 100 m gray direct to root
    for node in tb.nodes():
        node.install_protocol(TreeRouting, root=1)
    tb.warm_up(80.0)  # enough beacons for PRR estimates to separate
    leaf = tb.node(3).protocol_on(TREE_PORT)
    assert leaf.parent() == 2, (
        f"leaf chose parent {leaf.parent()} with cost {leaf.path_cost10()}"
    )


def test_blacklisted_parent_not_used():
    tb = tree_chain(3)
    tb.warm_up(40.0)
    tb.node(3).neighbors.blacklist(2)
    # Forwarding refuses the blacklisted parent even if still recorded.
    assert tb.node(3).protocol_on(TREE_PORT).next_hop(
        __import__("repro.net.packet", fromlist=["Packet"]).Packet(
            port=TREE_PORT, origin=3, dest=1)
    ) is None


def test_stop_halts_adverts():
    tb = tree_chain(2)
    tb.warm_up(20.0)
    tb.node(2).uninstall_protocol(TREE_PORT)
    before = tb.monitor.counter("tree.adverts_sent")
    tb.warm_up(20.0)
    # Only the root keeps advertising.
    assert tb.monitor.counter("tree.adverts_sent") - before <= 6
