"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Event


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(1.5)
    env.run()
    assert env.now == 1.5


def test_run_until_number_lands_exactly():
    env = Environment()
    env.timeout(1.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_number_processes_only_due_events():
    env = Environment()
    fired = []
    env.timeout(1.0).add_callback(lambda e: fired.append(1.0))
    env.timeout(3.0).add_callback(lambda e: fired.append(3.0))
    env.run(until=2.0)
    assert fired == [1.0]


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_events_process_in_time_order():
    env = Environment()
    order = []
    for delay in (3.0, 1.0, 2.0):
        env.timeout(delay, value=delay).add_callback(
            lambda e: order.append(e.value)
        )
    env.run()
    assert order == [1.0, 2.0, 3.0]


def test_equal_time_events_process_in_insertion_order():
    env = Environment()
    order = []
    for i in range(5):
        env.timeout(1.0, value=i).add_callback(lambda e: order.append(e.value))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_into_past_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.schedule(Event(env), delay=-1.0)


def test_run_until_event_returns_value():
    env = Environment()
    t = env.timeout(2.0, value="done")
    assert env.run(until=t) == "done"
    assert env.now == 2.0


def test_run_until_event_already_processed():
    env = Environment()
    t = env.timeout(1.0, value=42)
    env.run()
    assert env.run(until=t) == 42


def test_run_until_event_never_triggered_raises():
    env = Environment()
    pending = Event(env)
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=pending)


def test_unhandled_failure_crashes_run():
    env = Environment()
    ev = Event(env)
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_defused_failure_does_not_crash():
    env = Environment()
    ev = Event(env)
    ev.fail(ValueError("boom"))
    ev.defused = True
    env.run()  # should not raise


def test_succeed_twice_raises():
    env = Environment()
    ev = Event(env)
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimulationError):
        Event(env).fail("not an exception")  # type: ignore[arg-type]


def test_negative_timeout_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-0.5)


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = Event(env).value


def test_event_ok_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = Event(env).ok


def test_callback_after_processed_fires_immediately():
    env = Environment()
    ev = env.timeout(0.0, value=7)
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == [7]


def test_pooled_timeout_advances_clock_and_delivers_value():
    env = Environment()
    seen = []

    def proc():
        value = yield env.pooled_timeout(1.5, value="tick")
        seen.append((env.now, value))

    env.process(proc())
    env.run()
    assert seen == [(1.5, "tick")]


def test_pooled_timeout_reuses_instances():
    env = Environment()
    first = env.pooled_timeout(0.1)
    env.run()
    # ``first`` went back to the pool after its callbacks ran; the next
    # request must hand out the same object, fully reset.
    second = env.pooled_timeout(0.2)
    assert second is first
    assert second.delay == 0.2
    assert second.callbacks == []
    assert not second.processed
    fired = []
    second.add_callback(lambda e: fired.append(env.now))
    env.run()
    assert fired == [0.1 + 0.2]


def test_pooled_timeout_negative_delay_raises_and_keeps_pool():
    env = Environment()
    env.pooled_timeout(0.0)
    env.run()
    size = len(env._timeout_pool)
    assert size >= 1
    with pytest.raises(SimulationError):
        env.pooled_timeout(-1.0)
    assert len(env._timeout_pool) == size  # instance returned, not lost


def test_pooled_and_plain_timeouts_interleave_in_order():
    env = Environment()
    order = []
    env.timeout(1.0, value="plain").add_callback(
        lambda e: order.append(e.value)
    )
    env.pooled_timeout(1.0, value="pooled").add_callback(
        lambda e: order.append(e.value)
    )
    env.run()
    assert order == ["plain", "pooled"]  # insertion order at equal time
