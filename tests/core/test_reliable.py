"""Tests for the reliable one-hop exchange protocol (§IV-B)."""

import pytest

from repro.core.reliable import (
    ACK_TIMEOUT,
    BACKOFF_CAP,
    CHUNK_BYTES,
    MAX_ATTEMPTS,
    MAX_CHUNKS,
    ReliableEndpoint,
)
from repro.errors import ReliableTransferError
from repro.kernel import Testbed
from repro.mac.frame import FRAME_OVERHEAD_BYTES
from repro.net.crc import CRC_BYTES
from repro.net.packet import HEADER_BYTES
from repro.radio.cc2420 import NOISE_FLOOR_DBM, power_level_to_dbm
from repro.radio.modulation import snr_db_for_prr

QUIET = {"shadowing_sigma_db": 0.0, "fading_sigma_db": 0.0}


def make_pair(distance=10.0, seed=5, **prop):
    kwargs = dict(QUIET)
    kwargs.update(prop)
    tb = Testbed(seed=seed, propagation_kwargs=kwargs)
    a = tb.add_node("a", (0.0, 0.0))
    b = tb.add_node("b", (distance, 0.0))
    inbox_a, inbox_b = [], []
    ep_a = ReliableEndpoint(a, lambda o, m: inbox_a.append((o, m)))
    ep_b = ReliableEndpoint(b, lambda o, m: inbox_b.append((o, m)))
    return tb, (a, ep_a, inbox_a), (b, ep_b, inbox_b)


def deliver(tb, ep, dest, payload):
    proc = tb.env.process(ep.send(dest, payload))
    return tb.env.run(until=proc)


def test_single_packet_message(capfd=None):
    tb, (a, ep_a, _), (b, _, inbox_b) = make_pair()
    assert deliver(tb, ep_a, b.id, b"hello")
    assert inbox_b == [(a.id, b"hello")]


def test_multi_chunk_message():
    tb, (a, ep_a, _), (b, _, inbox_b) = make_pair()
    payload = bytes(range(256)) * 3  # 768 B -> 14 chunks
    assert deliver(tb, ep_a, b.id, payload)
    assert inbox_b == [(a.id, payload)]


def test_chunking_boundary_exact_multiple():
    tb, (a, ep_a, _), (b, _, inbox_b) = make_pair()
    payload = b"z" * (CHUNK_BYTES * 3)
    assert deliver(tb, ep_a, b.id, payload)
    assert inbox_b[0][1] == payload


def test_bidirectional_conversation():
    tb, (a, ep_a, inbox_a), (b, ep_b, inbox_b) = make_pair()
    assert deliver(tb, ep_a, b.id, b"request")
    assert deliver(tb, ep_b, a.id, b"response")
    assert inbox_b == [(a.id, b"request")]
    assert inbox_a == [(b.id, b"response")]


def test_empty_message_rejected():
    tb, (_a, ep_a, _), (b, _, _) = make_pair()
    with pytest.raises(ValueError):
        list(ep_a.send(b.id, b""))


def test_oversize_message_rejected():
    tb, (_a, ep_a, _), (b, _, _) = make_pair()
    with pytest.raises(ValueError):
        list(ep_a.send(b.id, b"x" * (MAX_CHUNKS * CHUNK_BYTES + 1)))


def test_send_to_unreachable_peer_fails_cleanly():
    tb = Testbed(seed=5, propagation_kwargs=QUIET)
    a = tb.add_node("a", (0.0, 0.0))
    b = tb.add_node("b", (5000.0, 0.0))  # far out of range
    ep_a = ReliableEndpoint(a, lambda o, m: None)
    ReliableEndpoint(b, lambda o, m: None)
    proc = tb.env.process(ep_a.send(b.id, b"void"))
    with pytest.raises(ReliableTransferError) as excinfo:
        tb.env.run(until=proc)
    assert excinfo.value.dest == b.id
    assert excinfo.value.attempts == MAX_ATTEMPTS
    assert excinfo.value.pending == excinfo.value.total == 1
    assert tb.monitor.counter("reliable.aborts") == 1


def test_lossy_link_still_delivers():
    """Retransmissions push a full-size message through a gray link
    within the retry budget.

    The link is placed where a full data chunk's PRR is 0.8, with no
    shadowing or fading: each of the 32 chunks is lost one time in
    five, so the transfer needs retransmissions, while an attempt
    without progress is rare enough that ten in a row do not occur.
    (A link whose chunks get through half the time can abort within
    the budget, by design: the budget is what bounds a dead-peer wait.)
    """
    chunk_frame = (FRAME_OVERHEAD_BYTES + HEADER_BYTES + 64 + CRC_BYTES)
    rx_dbm = NOISE_FLOOR_DBM + snr_db_for_prr(0.8, chunk_frame)
    distance = Testbed(propagation_kwargs=QUIET).propagation.range_for_budget_m(
        power_level_to_dbm(31) - rx_dbm)
    tb, (a, ep_a, _), (b, _, inbox_b) = make_pair(distance=distance, seed=3)
    payload = bytes(MAX_CHUNKS * CHUNK_BYTES)
    assert deliver(tb, ep_a, b.id, payload)
    assert inbox_b == [(a.id, payload)]
    # The link was genuinely lossy: retransmissions happened.
    assert (tb.monitor.counter("reliable.data_sent")
            > -(-len(payload) // CHUNK_BYTES))


def test_total_loss_mid_transfer_raises_within_budget():
    """100% loss mid-transfer ends in ReliableTransferError, not a hang."""
    tb, (a, ep_a, _), (b, _, inbox_b) = make_pair()
    payload = bytes(800)  # multi-chunk: the transfer is in flight a while
    tb.env.call_at(0.01, b.fail)  # link goes totally dark mid-transfer
    proc = tb.env.process(ep_a.send(b.id, payload))
    with pytest.raises(ReliableTransferError) as excinfo:
        tb.env.run(until=proc)
    err = excinfo.value
    assert err.attempts == MAX_ATTEMPTS
    assert 0 < err.pending <= err.total
    assert inbox_b == []  # never completed, never delivered
    # The wait is bounded: every attempt's deadline is capped, so the
    # whole abort happens within budget * (capped deadline) plus slack.
    worst = ACK_TIMEOUT + 0.003 * ep_a.max_batch
    assert tb.env.now <= 0.01 + MAX_ATTEMPTS * worst * (
        BACKOFF_CAP * 1.25) + 1.0


def test_backoff_delays_monotone_and_capped():
    """Consecutive stall deadlines never shrink and respect the cap."""
    tb = Testbed(seed=11, propagation_kwargs=QUIET)
    a = tb.add_node("a", (0.0, 0.0))
    b = tb.add_node("b", (5000.0, 0.0))  # unreachable: every attempt stalls
    ep_a = ReliableEndpoint(a, lambda o, m: None)
    ReliableEndpoint(b, lambda o, m: None)
    proc = tb.env.process(ep_a.send(b.id, b"probe"))
    with pytest.raises(ReliableTransferError) as excinfo:
        tb.env.run(until=proc)
    delays = excinfo.value.backoff_delays
    assert len(delays) == MAX_ATTEMPTS
    base = ACK_TIMEOUT + 0.003  # single-chunk first batch
    assert delays[0] == pytest.approx(base)
    for earlier, later in zip(delays, delays[1:]):
        assert later >= earlier
    assert max(delays) <= base * BACKOFF_CAP * 1.25


def test_backoff_engages_only_after_a_timeout():
    """A clean transfer never consults the jitter stream (golden safety)."""
    tb, (a, ep_a, _), (b, _, inbox_b) = make_pair()
    assert deliver(tb, ep_a, b.id, b"clean")
    assert inbox_b == [(a.id, b"clean")]
    assert ep_a._backoff_rng is None
    assert tb.monitor.counter("reliable.ack_timeouts") == 0


def test_batch_size_shrinks_on_loss_and_grows_when_clean():
    tb, (a, ep_a, _), (b, _, _) = make_pair(distance=92.0, seed=3)
    start = ep_a.batch_size(b.id)
    deliver(tb, ep_a, b.id, bytes(800))
    lossy_batch = ep_a.batch_size(b.id)
    # On a gray link the steady-state batch should not exceed the start.
    assert lossy_batch <= start

    tb2, (a2, ep2, _), (b2, _, _) = make_pair(distance=5.0)
    deliver(tb2, ep2, b2.id, bytes(800))
    assert ep2.batch_size(b2.id) > ep2.min_batch


def test_duplicate_suppression():
    """A retransmitted completed transfer must not deliver twice."""
    tb, (a, ep_a, _), (b, _, inbox_b) = make_pair(distance=80.0, seed=9)
    for i in range(5):
        deliver(tb, ep_a, b.id, bytes([i]) * 10)
    messages = [m for _o, m in inbox_b]
    assert len(messages) == len(set(messages)) == 5


def test_constructor_validation():
    tb = Testbed(seed=1)
    node = tb.add_node("a", (0, 0))
    with pytest.raises(ValueError):
        ReliableEndpoint(node, lambda o, m: None, min_batch=0)
    with pytest.raises(ValueError):
        ReliableEndpoint(node, lambda o, m: None, initial_batch=99)


def test_concurrent_transfers_to_two_peers():
    tb = Testbed(seed=5, propagation_kwargs=QUIET)
    hub = tb.add_node("hub", (0.0, 0.0))
    left = tb.add_node("left", (10.0, 0.0))
    right = tb.add_node("right", (0.0, 10.0))
    inbox_l, inbox_r = [], []
    ep_hub = ReliableEndpoint(hub, lambda o, m: None)
    ReliableEndpoint(left, lambda o, m: inbox_l.append(m))
    ReliableEndpoint(right, lambda o, m: inbox_r.append(m))
    p1 = tb.env.process(ep_hub.send(left.id, b"L" * 150))
    p2 = tb.env.process(ep_hub.send(right.id, b"R" * 150))
    tb.env.run(until=p1)
    tb.env.run(until=p2)
    assert inbox_l == [b"L" * 150]
    assert inbox_r == [b"R" * 150]
