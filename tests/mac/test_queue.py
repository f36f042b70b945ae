"""Unit tests for the bounded MAC transmit queue."""

import pytest

from repro.mac import TxQueue
from repro.mac.queue import QUEUE_CAPACITY
from repro.sim import Environment


def test_put_then_get_fifo():
    env = Environment()
    q = TxQueue(env)
    q.put("a")
    q.put("b")
    got = []

    def consumer():
        got.append((yield q.get()))
        got.append((yield q.get()))

    env.run(until=env.process(consumer()))
    assert got == ["a", "b"]


def test_get_blocks_until_put():
    env = Environment()
    q = TxQueue(env)
    got = []

    def consumer():
        got.append((yield q.get()))
        return env.now

    def producer():
        yield env.timeout(2.0)
        q.put("late")

    proc = env.process(consumer())
    env.process(producer())
    assert env.run(until=proc) == 2.0
    assert got == ["late"]


def test_overflow_counts_drop_and_returns_false():
    env = Environment()
    q = TxQueue(env)
    assert all(q.put(i) for i in range(QUEUE_CAPACITY))
    assert not q.put("one too many")
    assert q.drops == 1
    assert q.occupancy == QUEUE_CAPACITY
    assert q.is_full


def test_occupancy_and_peak():
    env = Environment()
    q = TxQueue(env)
    for i in range(5):
        q.put(i)
    assert q.occupancy == 5
    assert q.peak_occupancy == 5

    def consumer():
        yield q.get()

    env.run(until=env.process(consumer()))
    assert q.occupancy == 4
    assert q.peak_occupancy == 5


def test_direct_handoff_to_waiting_getter():
    env = Environment()
    q = TxQueue(env)
    q.set_capacity(1)
    got = []

    def consumer():
        got.append((yield q.get()))
        got.append((yield q.get()))

    env.process(consumer())
    env.run()
    # Consumer waits; both puts hand off directly even with capacity 1.
    q.put("x")
    q.put("y")
    env.run()
    assert got == ["x", "y"]
    assert q.drops == 0


def test_clear_returns_dropped_items():
    env = Environment()
    q = TxQueue(env)
    q.put("a")
    q.put("b")
    assert q.clear() == ["a", "b"]
    assert q.occupancy == 0


def test_snapshot_counters():
    env = Environment()
    q = TxQueue(env)
    for i in range(QUEUE_CAPACITY + 1):
        q.put(i)
    snap = q.snapshot()
    assert snap == {
        "occupancy": QUEUE_CAPACITY, "capacity": QUEUE_CAPACITY,
        "enqueued": QUEUE_CAPACITY, "drops": 1,
        "peak_occupancy": QUEUE_CAPACITY,
    }


def test_capacity_validation():
    q = TxQueue(Environment())
    with pytest.raises(ValueError):
        q.set_capacity(0)
    assert q.capacity == QUEUE_CAPACITY
