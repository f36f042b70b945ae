"""The padding hop budget, live on a 26-hop chain (§IV-C.3, §III-B.4).

Paper: a 16-byte probe "could at most travel 24 hops before the padding
runs out of space", and traceroute, which needs no padding, "is more
scalable compared to the ping command".

Measured through the real stack:

* one-way, a padded 16-byte payload records 23 hops (the routing layer's
  2-byte data header costs one slot against the paper's bare-payload 24);
* the ping *round trip* shares one padding region between the forward
  and backward paths, so padded pings top out near 13-hop paths;
* traceroute reaches the full 26-hop destination.
"""

import pytest

from repro.core.commands.ping import install_ping
from repro.core.commands.traceroute import install_traceroute
from repro.net import GeographicForwarding
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION


@pytest.fixture(scope="module")
def long_chain():
    testbed = build_chain(27, spacing=60.0, seed=5,
                          propagation_kwargs=QUIET_PROPAGATION)
    testbed.install_protocol_everywhere(GeographicForwarding)
    pings = {n.id: install_ping(n) for n in testbed.nodes()}
    traces = {n.id: install_traceroute(n) for n in testbed.nodes()}
    testbed.warm_up(15.0)
    return testbed, pings, traces


def run_ping(testbed, pings, target, attempts=4):
    """Best result over a few attempts (per-hop loss is nonzero on long
    paths; the padding limit must dominate, not chance loss)."""
    result = None
    for _ in range(attempts):
        proc = testbed.env.process(
            pings[1].ping(target, rounds=1, length=16, routing_port=10)
        )
        result = testbed.env.run(until=proc)
        if result.received:
            return result
    return result


def test_one_way_padding_records_23_hops(long_chain):
    """A padded 16-byte payload delivered 23 hops out arrives with every
    hop recorded; at 24 hops the region overflows and the packet dies."""
    testbed, _pings, _traces = long_chain
    got = []
    for node in testbed.nodes():
        node.stack.ports.subscribe(99, lambda p, a: got.append(p),
                                   name="sink")
    protocol = testbed.node(1).protocol_on(10)

    def send_to(target, attempts=4):
        got.clear()
        for _ in range(attempts):
            protocol.send(target, 99, b"p" * 16, padding=True, ttl=40)
            testbed.warm_up(3.0)
            if got:
                return got[0]
        return None

    delivered = send_to(24)  # 23 hops
    assert delivered is not None
    assert len(delivered.hop_quality) == 23

    before = testbed.monitor.counter("routing.padding_drops")
    assert send_to(25) is None  # 24 hops: one slot short
    assert testbed.monitor.counter("routing.padding_drops") > before


def test_ping_round_trip_within_shared_budget(long_chain):
    """A 13-hop path round-trips with the full forward+backward record
    in one padding region."""
    testbed, pings, _traces = long_chain
    result = run_ping(testbed, pings, 14)  # 13 hops out
    assert result.received == 1
    [r] = result.rounds
    assert len(r.forward_path) == 13
    assert len(r.backward_path) == 13


def test_ping_dies_beyond_the_round_trip_budget(long_chain):
    testbed, pings, _traces = long_chain
    before = testbed.monitor.counter("routing.padding_drops")
    result = run_ping(testbed, pings, 16, attempts=3)  # 15 hops out
    assert result.received == 0
    assert testbed.monitor.counter("routing.padding_drops") > before


def test_traceroute_covers_what_ping_cannot(long_chain):
    """Traceroute needs no padding, so the full 26-hop destination is
    reachable — the scalability argument of §III-B.4."""
    testbed, _pings, traces = long_chain
    result = None
    for _ in range(4):
        proc = testbed.env.process(
            traces[1].traceroute(27, rounds=1, length=32, routing_port=10)
        )
        result = testbed.env.run(until=proc)
        if result.reached_target:
            break
    assert result.reached_target
    assert result.hop_count == 26
