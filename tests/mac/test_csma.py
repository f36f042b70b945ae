"""Unit tests for the CSMA/CA MAC."""

from repro.mac import BROADCAST, CsmaMac, Frame
from repro.radio import RadioConfig


def build_macs(world, positions):
    macs = {}
    for node_id, pos in positions.items():
        xcvr = world.medium.attach(node_id, pos, RadioConfig())
        macs[node_id] = CsmaMac(
            world.env, world.medium, xcvr, world.rng, world.monitor
        )
    return macs


def test_send_delivers_to_neighbor(quiet_world):
    macs = build_macs(quiet_world, {1: (0, 0), 2: (5, 0)})
    heard = []
    macs[2].set_receive_handler(
        lambda batch: heard.extend(map(batch.arrival, batch.rows)))
    macs[1].send(Frame(src=1, dst=2, payload=b"ping"))
    quiet_world.env.run(until=0.1)
    assert len(heard) == 1
    assert heard[0].payload == b"ping"


def test_broadcast_reaches_all_neighbors(quiet_world):
    macs = build_macs(quiet_world, {1: (0, 0), 2: (5, 0), 3: (0, 5)})
    heard2, heard3 = [], []
    macs[2].set_receive_handler(
        lambda batch: heard2.extend(map(batch.arrival, batch.rows)))
    macs[3].set_receive_handler(
        lambda batch: heard3.extend(map(batch.arrival, batch.rows)))
    macs[1].send(Frame(src=1, dst=BROADCAST, payload=b"hi"))
    quiet_world.env.run(until=0.1)
    assert len(heard2) == 1 and len(heard3) == 1


def test_unicast_filtered_at_non_destination(quiet_world):
    macs = build_macs(quiet_world, {1: (0, 0), 2: (5, 0), 3: (0, 5)})
    heard3 = []
    macs[3].set_receive_handler(
        lambda batch: heard3.extend(map(batch.arrival, batch.rows)))
    macs[1].send(Frame(src=1, dst=2, payload=b"private"))
    quiet_world.env.run(until=0.1)
    assert heard3 == []
    assert quiet_world.monitor.counter("mac.filtered_frames") == 1


def test_queue_drains_in_order(quiet_world):
    macs = build_macs(quiet_world, {1: (0, 0), 2: (5, 0)})
    heard = []
    macs[2].set_receive_handler(
        lambda batch: heard.extend(row[1] for row in batch.rows))
    for i in range(5):
        assert macs[1].send(Frame(src=1, dst=2, payload=bytes([i])))
    quiet_world.env.run(until=0.5)
    assert heard == [bytes([i]) for i in range(5)]


def test_queue_overflow_drops(quiet_world):
    macs = build_macs(quiet_world, {1: (0, 0), 2: (5, 0)})
    results = [
        macs[1].send(Frame(src=1, dst=2, payload=b"x")) for _ in range(20)
    ]
    assert not all(results)
    assert quiet_world.monitor.counter("mac.queue_drops") > 0


def test_queue_occupancy_visible(quiet_world):
    macs = build_macs(quiet_world, {1: (0, 0), 2: (5, 0)})
    for _ in range(4):
        macs[1].send(Frame(src=1, dst=2, payload=b"x"))
    assert macs[1].queue_occupancy >= 3  # first frame may be in CSMA already
    quiet_world.env.run(until=1.0)
    assert macs[1].queue_occupancy == 0


def test_backoff_separates_contending_senders(quiet_world):
    """Two nodes handed frames at the same instant should usually both
    succeed thanks to random initial backoff."""
    macs = build_macs(quiet_world, {1: (0, 0), 2: (5, 0), 3: (2.5, 2.5)})
    heard = []
    macs[3].set_receive_handler(
        lambda batch: heard.extend(batch.sender for _ in batch.rows))
    delivered = 0
    trials = 20
    for _ in range(trials):
        heard.clear()
        macs[1].send(Frame(src=1, dst=BROADCAST, payload=b"a" * 30))
        macs[2].send(Frame(src=2, dst=BROADCAST, payload=b"b" * 30))
        quiet_world.env.run(until=quiet_world.env.now + 0.1)
        if sorted(heard) == [1, 2]:
            delivered += 1
    assert delivered >= trials // 2


def test_sent_counter_increments(quiet_world):
    macs = build_macs(quiet_world, {1: (0, 0), 2: (5, 0)})
    macs[1].send(Frame(src=1, dst=2, payload=b"x"))
    quiet_world.env.run(until=0.1)
    assert quiet_world.monitor.counter("mac.sent_frames") == 1
    assert quiet_world.monitor.counter("mac.received_frames") == 1
