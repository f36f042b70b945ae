"""Edge-case tests for the CSMA MAC."""

from repro.mac import CsmaMac, Frame
from repro.mac.queue import QUEUE_CAPACITY
from repro.radio import RadioConfig


def build_pair(world):
    a = world.medium.attach(1, (0.0, 0.0), RadioConfig())
    b = world.medium.attach(2, (5.0, 0.0), RadioConfig())
    mac_a = CsmaMac(world.env, world.medium, a, world.rng, world.monitor)
    mac_b = CsmaMac(world.env, world.medium, b, world.rng, world.monitor)
    return (a, mac_a), (b, mac_b)


def test_radio_off_drops_queued_frames(quiet_world):
    (a, mac_a), (b, mac_b) = build_pair(quiet_world)
    heard = []
    mac_b.set_receive_handler(
        lambda batch: heard.extend(map(batch.arrival, batch.rows)))
    a.enabled = False
    mac_a.send(Frame(src=1, dst=2, payload=b"doomed"))
    quiet_world.env.run(until=1.0)
    assert heard == []
    assert quiet_world.monitor.counter("mac.radio_off_drops") == 1


def test_radio_reenabled_resumes_transmission(quiet_world):
    (a, mac_a), (b, mac_b) = build_pair(quiet_world)
    heard = []
    mac_b.set_receive_handler(
        lambda batch: heard.extend(map(batch.arrival, batch.rows)))
    a.enabled = False
    mac_a.send(Frame(src=1, dst=2, payload=b"lost"))
    quiet_world.env.run(until=0.5)
    a.enabled = True
    mac_a.send(Frame(src=1, dst=2, payload=b"fine"))
    quiet_world.env.run(until=1.0)
    assert [arr.payload for arr in heard] == [b"fine"]


def test_cca_failure_after_max_backoffs(quiet_world):
    """A channel jammed by a long transmission forces channel-access
    failure after macMaxCSMABackoffs."""
    (a, mac_a), (b, mac_b) = build_pair(quiet_world)
    jammer = quiet_world.medium.attach(3, (2.0, 0.0), RadioConfig())

    def jam():
        # Back-to-back max-size frames for ~80 ms.
        for _ in range(20):
            yield quiet_world.medium.transmit(
                jammer, Frame(src=3, dst=0xFFFF, payload=bytes(110))
            )

    quiet_world.env.process(jam())
    mac_a.send(Frame(src=1, dst=2, payload=b"squeezed"))
    quiet_world.env.run(until=0.05)
    assert quiet_world.monitor.counter("mac.busy_assessments") >= 4
    # Either the frame eventually aired after the jam or CCA gave up —
    # both are valid CSMA outcomes; what must not happen is a transmit
    # *during* the jam.
    sent_times = [r.time for r in quiet_world.monitor.packets
                  if r.sender == 1]
    for t in sent_times:
        overlapping = [r for r in quiet_world.monitor.packets
                       if r.sender == 3 and r.time <= t < r.time + 0.004]
        assert not overlapping


def test_queue_capacity_parameter(quiet_world):
    """A burst one frame past the queue's bound loses a frame at once."""
    a = quiet_world.medium.attach(1, (0.0, 0.0), RadioConfig())
    mac = CsmaMac(quiet_world.env, quiet_world.medium, a,
                  quiet_world.rng, quiet_world.monitor)
    results = [mac.send(Frame(src=1, dst=0xFFFF, payload=b"x"))
               for _ in range(QUEUE_CAPACITY + 1)]
    assert results.count(False) == 1
    assert quiet_world.monitor.counter("mac.queue_drops") == 1
