"""Unit tests for the shared radio medium."""

import pytest

from repro.errors import RadioError
from repro.mac.frame import BROADCAST, Frame
from repro.radio import RadioConfig


def attach_pair(world, distance=5.0, **cfg):
    a = world.medium.attach(1, (0.0, 0.0), RadioConfig(**cfg))
    b = world.medium.attach(2, (distance, 0.0), RadioConfig(**cfg))
    return a, b


def collect(xcvr):
    arrivals = []
    xcvr.set_receive_handler(
        lambda batch: arrivals.extend(map(batch.arrival, batch.rows)))
    return arrivals


def test_attach_and_lookup(world):
    a, _b = attach_pair(world)
    assert world.medium.transceiver(1) is a
    assert world.medium.node_ids() == [1, 2]


def test_double_attach_rejected(world):
    world.medium.attach(1, (0, 0))
    with pytest.raises(RadioError):
        world.medium.attach(1, (1, 1))


def test_attach_rejects_ids_outside_sixteen_bits(world):
    """Ids must fit a packet header's 16 bits, the link tables keying each
    directed link by both ids packed into one int, and no node may own
    the broadcast address."""
    for node_id in (0x10000, BROADCAST, -1):
        with pytest.raises(RadioError, match="outside 0..65534"):
            world.medium.attach(node_id, (0, 0))
    world.medium.attach(BROADCAST - 1, (0, 0))
    world.medium.attach(0, (1, 1))
    assert world.medium.node_ids() == [0, BROADCAST - 1]


def test_lookup_missing_raises(world):
    with pytest.raises(RadioError):
        world.medium.transceiver(99)


def test_distance(world):
    attach_pair(world, distance=5.0)
    assert world.medium.distance(1, 2) == pytest.approx(5.0)


def test_close_nodes_hear_each_other(quiet_world):
    a, b = attach_pair(quiet_world, distance=5.0)
    arrivals = collect(b)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert len(arrivals) == 1
    assert arrivals[0].crc_ok
    assert arrivals[0].sender == 1


def _send_one(world, xcvr, payload=b"hello", dst=BROADCAST, kind="data"):
    yield world.medium.transmit(
        xcvr, Frame(src=xcvr.node_id, dst=dst, payload=payload, kind=kind)
    )


def test_far_nodes_hear_nothing(quiet_world):
    a, b = attach_pair(quiet_world, distance=2000.0)
    arrivals = collect(b)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert arrivals == []


def test_arrival_carries_phy_observables(quiet_world):
    a, b = attach_pair(quiet_world, distance=5.0)
    arrivals = collect(b)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    arr = arrivals[0]
    assert -128 <= arr.rssi <= 127
    assert 50 <= arr.lqi <= 110
    assert arr.rx_power_dbm > -95.0
    assert arr.sinr_db > 0


def test_lower_power_lowers_rssi(quiet_world):
    a, b = attach_pair(quiet_world, distance=5.0)
    arrivals = collect(b)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    high = arrivals[-1].rx_power_dbm
    a.config.set_power_level(10)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    low = arrivals[-1].rx_power_dbm
    from repro.radio import power_level_to_dbm
    expected = power_level_to_dbm(31) - power_level_to_dbm(10)
    assert high - low == pytest.approx(expected, abs=0.5)


def test_different_channels_do_not_communicate(quiet_world):
    a = quiet_world.medium.attach(1, (0, 0), RadioConfig(channel=11))
    b = quiet_world.medium.attach(2, (5, 0), RadioConfig(channel=26))
    arrivals = collect(b)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert arrivals == []


def test_unicast_delivery_flag_logged(quiet_world):
    a, b = attach_pair(quiet_world, distance=5.0)
    collect(b)
    quiet_world.env.process(_send_one(quiet_world, a, dst=2))
    quiet_world.env.run()
    [record] = quiet_world.monitor.packets
    assert record.delivered
    assert record.receiver == 2
    assert record.kind == "data"


def test_disabled_radio_does_not_receive(quiet_world):
    a, b = attach_pair(quiet_world, distance=5.0)
    arrivals = collect(b)
    b.enabled = False
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert arrivals == []


def test_disabled_radio_cannot_transmit(quiet_world):
    a, _b = attach_pair(quiet_world)
    a.enabled = False
    with pytest.raises(RadioError):
        quiet_world.medium.transmit(
            a, Frame(src=1, dst=BROADCAST, payload=b"x")
        )


def test_transmitter_marked_busy_during_airtime(quiet_world):
    a, _b = attach_pair(quiet_world)
    seen = []

    def sender():
        done = quiet_world.medium.transmit(
            a, Frame(src=1, dst=BROADCAST, payload=b"0" * 50)
        )
        seen.append(a.is_transmitting)
        yield done
        seen.append(a.is_transmitting)

    quiet_world.env.process(sender())
    quiet_world.env.run()
    assert seen == [True, False]


def test_cca_sees_nearby_transmission(quiet_world):
    a, b = attach_pair(quiet_world, distance=5.0)
    busy = []

    def sender():
        yield quiet_world.medium.transmit(
            a, Frame(src=1, dst=BROADCAST, payload=b"0" * 50)
        )

    def sensor():
        yield quiet_world.env.timeout(0.0005)  # mid-frame
        busy.append(quiet_world.medium.cca_busy(b))

    quiet_world.env.process(sender())
    quiet_world.env.process(sensor())
    quiet_world.env.run()
    assert busy == [True]


def test_cca_clear_when_idle(quiet_world):
    _a, b = attach_pair(quiet_world)
    assert not quiet_world.medium.cca_busy(b)


def test_half_duplex_collision(quiet_world):
    """Two nodes transmitting simultaneously cannot hear each other."""
    a, b = attach_pair(quiet_world, distance=5.0)
    a_heard = collect(a)
    b_heard = collect(b)

    def tx(xcvr):
        yield quiet_world.medium.transmit(
            xcvr, Frame(src=xcvr.node_id, dst=BROADCAST, payload=b"0" * 50)
        )

    quiet_world.env.process(tx(a))
    quiet_world.env.process(tx(b))
    quiet_world.env.run()
    assert a_heard == [] and b_heard == []
    assert quiet_world.monitor.counter("medium.halfduplex_loss") == 2


def test_interference_degrades_third_party_reception(quiet_world):
    """A receiver between two simultaneous senders sees a collision."""
    a = quiet_world.medium.attach(1, (0.0, 0.0))
    b = quiet_world.medium.attach(2, (10.0, 0.0))
    c = quiet_world.medium.attach(3, (5.0, 0.0))
    arrivals = collect(c)

    def tx(xcvr):
        yield quiet_world.medium.transmit(
            xcvr, Frame(src=xcvr.node_id, dst=BROADCAST, payload=b"0" * 50)
        )

    quiet_world.env.process(tx(a))
    quiet_world.env.process(tx(b))
    quiet_world.env.run()
    # Equal powers at the midpoint: SINR ~ 0 dB, reception must fail.
    good = [arr for arr in arrivals if arr.crc_ok]
    assert good == []
    assert quiet_world.monitor.counter("medium.interfered_receptions") >= 1


def test_marginal_link_sometimes_corrupts_but_flags_crc(make_world):
    """Failed receptions delivered as corrupted bytes carry crc_ok=False
    and a payload that differs from the original."""
    world = make_world(seed=7, shadowing_sigma_db=0.0, fading_sigma_db=0.0)
    a = world.medium.attach(1, (0.0, 0.0))
    b = world.medium.attach(2, (93.0, 0.0))  # in the gray region at full power
    arrivals = collect(b)

    def tx():
        for _ in range(300):
            yield world.medium.transmit(
                a, Frame(src=1, dst=BROADCAST, payload=b"payload-bytes")
            )
            yield world.env.timeout(0.01)

    world.env.process(tx())
    world.env.run()
    bad = [arr for arr in arrivals if not arr.crc_ok]
    good = [arr for arr in arrivals if arr.crc_ok]
    assert good, "expected some successes on a marginal link"
    assert bad, "expected some corrupted deliveries on a marginal link"
    assert all(arr.payload != b"payload-bytes" for arr in bad)
    assert all(arr.payload == b"payload-bytes" for arr in good)


def test_monitor_counts_every_transmission(quiet_world):
    a, _b = attach_pair(quiet_world)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert quiet_world.monitor.counter("medium.transmissions") == 2
    assert len(quiet_world.monitor.packets) == 2
