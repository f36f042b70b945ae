"""Unit tests for the AnyOf condition and event composition."""

import pytest

from repro.sim import Environment, Event


def test_any_of_fires_on_first():
    env = Environment()

    def worker():
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(10.0, value="slow")
        result = yield env.any_of([fast, slow])
        return (env.now, list(result.values()))

    assert env.run(until=env.process(worker())) == (1.0, ["fast"])


def test_any_of_as_timeout_pattern():
    """The receive-with-timeout idiom used throughout the LiteView stack."""
    env = Environment()

    def worker():
        data = Event(env)  # never triggered: models a lost reply
        deadline = env.timeout(0.5, value="timeout")
        result = yield env.any_of([data, deadline])
        return list(result.values())

    assert env.run(until=env.process(worker())) == ["timeout"]


def test_empty_any_of_succeeds_immediately():
    env = Environment()

    def worker():
        result = yield env.any_of([])
        return result

    assert env.run(until=env.process(worker())) == {}


def test_condition_over_already_processed_event():
    env = Environment()
    t = env.timeout(1.0, value="early")
    env.run()

    def worker():
        result = yield env.any_of([t])
        return list(result.values())

    assert env.run(until=env.process(worker())) == ["early"]


def test_condition_fails_when_member_fails():
    env = Environment()

    def failing_child():
        yield env.timeout(1.0)
        raise ValueError("nope")

    def worker():
        try:
            yield env.any_of([env.process(failing_child()), env.timeout(5.0)])
        except ValueError:
            return "propagated"

    assert env.run(until=env.process(worker())) == "propagated"


def test_condition_rejects_foreign_events():
    env = Environment()
    other = Environment()
    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        env.any_of([other.timeout(1.0)])


def test_any_of_processes_losers_without_crash():
    """The slower branch of an AnyOf must not crash the run afterwards."""
    env = Environment()

    def worker():
        yield env.any_of([env.timeout(1.0), env.timeout(2.0)])
        return "ok"

    proc = env.process(worker())
    env.run()  # drains everything including the slow timeout
    assert proc.value == "ok"
    assert env.now == 2.0
