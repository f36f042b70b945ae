"""Tests for the traceroute command (Figure 4)."""

import pytest

from repro.errors import ParameterError


def run_traceroute(dep, src, target, **kwargs):
    tb = dep.testbed
    service = dep.traceroute_services[tb.namespace.resolve(src)]
    proc = tb.env.process(
        service.traceroute(tb.namespace.resolve(target), **kwargs)
    )
    return tb.env.run(until=proc)


def test_single_hop_traceroute(chain_deployment):
    dep = chain_deployment(2)
    result = run_traceroute(dep, 1, 2)
    assert result.reached_target
    assert result.hop_count == 1
    [hop] = result.hops
    assert hop.probed_node_id == 2
    assert 0 < hop.rtt_ms < 50


def test_multi_hop_reports_per_hop(chain_deployment):
    dep = chain_deployment(5, seed=4)
    result = run_traceroute(dep, 1, 5)
    assert result.reached_target
    hops = {h.hop_index: h.probed_node_id for h in result.hops}
    # Hop k probes node k+1 along the chain.
    for hop_index, probed in hops.items():
        assert probed == hop_index + 1
    assert result.hop_count == 4


def test_rtt_is_per_hop_not_cumulative(chain_deployment):
    """'the RTT values reported here are for individual hops rather than
    for end-to-end paths'."""
    dep = chain_deployment(5, seed=4)
    result = run_traceroute(dep, 1, 5)
    assert result.reached_target
    # Every hop's RTT is a one-hop exchange: small and similar, not
    # growing with the hop index.
    for hop in result.hops:
        assert hop.rtt_ms < 50


def test_sessions_are_told_apart_by_origin(chain_deployment):
    """Every node numbers its sessions from ``id << 8`` in one 16-bit
    space, so node 1's 1025th round uses the session node 5's first
    round used.  A node that carried node 5's traceroute on must still
    carry node 1's."""
    dep = chain_deployment(5, seed=3)
    assert run_traceroute(dep, 5, 1).reached_target
    # Stand in for node 1's first 1024 rounds: its next session is the
    # one node 5 just used.
    dep.traceroute_services[1]._session = 5 << 8
    result = run_traceroute(dep, 1, 5)
    assert result.reached_target
    assert sorted(h.probed_node_id for h in result.hops) == [2, 3, 4, 5]


def test_a_wrapped_session_traces_again(chain_deployment):
    """After an origin's session counter wraps, a session it used long
    ago is a new traceroute: the hops continue it again."""
    dep = chain_deployment(5, seed=3)
    service = dep.traceroute_services[1]
    before = service._session
    assert run_traceroute(dep, 1, 5).reached_target
    service._session = before  # the counter came round to it again
    result = run_traceroute(dep, 1, 5)
    assert result.reached_target
    assert sorted(h.probed_node_id for h in result.hops) == [2, 3, 4, 5]


def test_arrival_times_grow_with_depth(chain_deployment):
    """Figure 5's qualitative shape: deeper hops' reports arrive later
    on the whole (report jitter allows local inversions)."""
    dep = chain_deployment(6, seed=4)
    result = run_traceroute(dep, 1, 6)
    series = result.arrival_series_ms()
    assert len(series) >= 4
    first_hop = series[0]
    last_hop = series[-1]
    assert first_hop[1] < last_hop[1]


def test_report_arrival_carries_link_pairs(chain_deployment):
    dep = chain_deployment(3)
    result = run_traceroute(dep, 1, 3)
    for hop in result.hops:
        assert 50 <= hop.link.lqi_forward <= 110
        assert 50 <= hop.link.lqi_backward <= 110
        assert -128 <= hop.link.rssi_forward <= 127


def test_unreachable_target(chain_deployment):
    dep = chain_deployment(3)
    tb = dep.testbed
    island = tb.add_node("island", (9000.0, 0.0))
    result = run_traceroute(dep, 1, island.id)
    assert not result.reached_target
    assert result.lost == 1


def test_stuck_greedy_counts(chain_deployment):
    dep = chain_deployment(3)
    tb = dep.testbed
    # Blacklist every next hop at node 1: the task is stuck immediately.
    tb.node(1).neighbors.blacklist(2)
    tb.node(1).neighbors.blacklist(3)
    result = run_traceroute(dep, 1, 3)
    assert not result.reached_target
    assert tb.monitor.counter("traceroute.stuck") >= 1


def test_multiple_rounds_accumulate(chain_deployment):
    dep = chain_deployment(3, seed=6)
    result = run_traceroute(dep, 1, 3, rounds=3)
    assert result.sent == 3
    assert result.received >= 2
    # Several rounds produce several reports per hop index.
    hop1 = [h for h in result.hops if h.hop_index == 1]
    assert len(hop1) >= 2


def test_parameter_validation(chain_deployment):
    dep = chain_deployment(2)
    service = dep.traceroute_services[1]
    with pytest.raises(ParameterError):
        next(service.traceroute(2, rounds=0))
    with pytest.raises(ParameterError):
        next(service.traceroute(2, length=100))
    with pytest.raises(ParameterError):
        next(service.traceroute(2, routing_port=77))


def test_traceroute_more_scalable_than_multihop_ping(chain_deployment):
    """§III-B.4: traceroute never pads, so its packets stay small while
    multi-hop ping packets grow per hop."""
    dep = chain_deployment(6, seed=4)
    tb = dep.testbed
    n0 = len(tb.monitor.packets)
    run_traceroute(dep, 1, 6)
    probe_sizes = sorted({r.size_bytes for r in tb.monitor.packets[n0:]
                          if r.kind == "traceroute" and r.size_bytes > 50})
    # All traceroute probes are the same fixed size: no padding growth.
    assert len(probe_sizes) == 1
    n1 = len(tb.monitor.packets)
    service = dep.ping_services[1]
    proc = tb.env.process(service.ping(6, routing_port=10, length=16))
    tb.env.run(until=proc)
    # The padded ping probe grows 2 bytes per hop as it travels
    # (first hop is labelled 'ping', forwarded hops 'geographic').
    ping_sizes = [r.size_bytes for r in tb.monitor.packets[n1:]
                  if r.kind in ("ping", "geographic")]
    assert ping_sizes, "multi-hop ping must transmit"
    assert max(ping_sizes) - min(ping_sizes) >= 2 * 3
