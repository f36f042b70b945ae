"""Tests for the ping command (Figure 3) through the node-side API."""

import pytest

from repro.errors import ParameterError


def run_ping(dep, src, **kwargs):
    tb = dep.testbed
    service = dep.ping_services[tb.namespace.resolve(src)]
    target = kwargs.pop("target")
    proc = tb.env.process(
        service.ping(tb.namespace.resolve(target), **kwargs)
    )
    return tb.env.run(until=proc)


def test_one_hop_ping_succeeds(chain_deployment):
    dep = chain_deployment(3)
    result = run_ping(dep, 1, target=2, rounds=1, length=32)
    assert result.sent == 1 and result.received == 1
    [r] = result.rounds
    assert 0 < r.rtt_ms < 100
    assert 50 <= r.link.lqi_forward <= 110
    assert 50 <= r.link.lqi_backward <= 110


def test_ping_reports_power_and_channel(chain_deployment):
    dep = chain_deployment(2)
    node = dep.testbed.node(1)
    node.radio.set_power_level(25)
    result = run_ping(dep, 1, target=2, rounds=1)
    assert result.power_level == 25
    assert result.channel == 17


def test_multiple_rounds(chain_deployment):
    dep = chain_deployment(2)
    result = run_ping(dep, 1, target=2, rounds=5, length=16)
    assert result.sent == 5
    assert result.received >= 4  # clean link; allow one unlucky draw
    assert len({r.seq for r in result.rounds}) == result.received


def test_ping_unreachable_target_times_out(chain_deployment):
    dep = chain_deployment(2)
    tb = dep.testbed
    ghost = tb.add_node("ghost", (5000.0, 0.0))
    from repro.core.commands.ping import install_ping
    install_ping(ghost)
    result = run_ping(dep, 1, target=ghost.id, rounds=2)
    assert result.sent == 2
    assert result.received == 0
    assert result.lost == 2
    assert tb.monitor.counter("ping.timeouts") == 2


def test_multi_hop_ping_collects_both_paths(chain_deployment):
    dep = chain_deployment(4)
    result = run_ping(dep, 1, target=4, rounds=1, length=16,
                      routing_port=10)
    assert result.received == 1
    [r] = result.rounds
    # Forward path (from the probe's padding, echoed in the reply) and
    # backward path (the reply's own padding) both cover every hop.
    assert len(r.forward_path) >= 2
    assert len(r.backward_path) >= 2
    assert all(50 <= lqi <= 110 for lqi, _ in r.forward_path)
    assert all(-128 <= rssi <= 127 for _, rssi in r.backward_path)


def test_multi_hop_rtt_exceeds_one_hop(chain_deployment):
    dep = chain_deployment(5)
    one = run_ping(dep, 1, target=2, rounds=3)
    multi = run_ping(dep, 1, target=5, rounds=3, routing_port=10)
    assert multi.received >= 1 and one.received >= 1
    assert multi.mean_rtt_ms > one.mean_rtt_ms


def test_ping_parameter_validation(chain_deployment):
    dep = chain_deployment(2)
    service = dep.ping_services[1]
    with pytest.raises(ParameterError):
        next(service.ping(2, rounds=0))
    with pytest.raises(ParameterError):
        next(service.ping(2, length=65))
    with pytest.raises(ParameterError):
        proc = dep.testbed.env.process(service.ping(2, routing_port=99))
        dep.testbed.env.run(until=proc)


def test_ping_reply_reports_queue_occupancy(chain_deployment):
    """White-box: a probe answered while the MAC queue is backed up must
    report the occupancy (the paper's ``Queue = n/m`` value)."""
    from repro.core.wire import PingProbe, PingReply
    from repro.net.packet import Packet
    from repro.net.ports import WellKnownPorts

    dep = chain_deployment(2)
    tb = dep.testbed
    target = tb.node(2)
    # Back up the target's transmit queue (without airing anything: the
    # MAC's consumer only runs when the simulation advances).
    from repro.mac.frame import BROADCAST, Frame
    for _ in range(4):
        target.mac.queue.put(Frame(src=2, dst=BROADCAST,
                                   payload=bytes(50), kind="app"))
    backlog = target.mac.queue_occupancy
    assert backlog >= 3

    # Deliver a probe synthetically, as a one-row batch through the
    # target's stack, and catch the reply in the queue.
    from repro.net.stack import CommunicationStack
    from repro.radio.medium import FrameBatch
    probe = PingProbe(token=9, length=16)
    packet = Packet(port=WellKnownPorts.PING, origin=1, dest=2,
                    payload=probe.to_bytes())
    wire = packet.to_bytes()
    CommunicationStack._on_frame(FrameBatch(
        Frame(src=1, dst=2, payload=wire, kind="ping"), 1, 17, tb.env.now,
        [(target.xcvr, wire, True, -15, 108, 20.0, -60.0)]))
    reply_frame = target.mac.queue._items[-1]
    reply_packet = Packet.from_bytes(reply_frame.payload)
    reply = PingReply.from_bytes(reply_packet.payload)
    assert reply.token == 9
    assert reply.queue >= backlog
    assert reply.lqi == 108 and reply.rssi == -15


def test_probe_length_affects_airtime(chain_deployment):
    """Longer probes must take measurably longer on the air."""
    dep = chain_deployment(2)
    short = run_ping(dep, 1, target=2, rounds=3, length=8)
    long = run_ping(dep, 1, target=2, rounds=3, length=64)
    assert short.received and long.received
    assert long.mean_rtt_ms > short.mean_rtt_ms
