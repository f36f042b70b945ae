"""Unit tests for generator-coroutine processes."""

import pytest

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim import Environment


def test_process_runs_and_returns_value():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        return "result"

    proc = env.process(worker())
    assert env.run(until=proc) == "result"
    assert env.now == 1.0


def test_process_receives_timeout_value():
    env = Environment()
    got = []

    def worker():
        value = yield env.timeout(1.0, value="hello")
        got.append(value)

    env.run(until=env.process(worker()))
    assert got == ["hello"]


def test_process_is_alive_until_done():
    env = Environment()

    def worker():
        yield env.timeout(2.0)

    proc = env.process(worker())
    assert proc.is_alive
    env.run()
    assert not proc.is_alive


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return 99

    def parent():
        value = yield env.process(child())
        return value + 1

    assert env.run(until=env.process(parent())) == 100


def test_sequential_timeouts_accumulate():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        yield env.timeout(2.0)
        return env.now

    assert env.run(until=env.process(worker())) == 3.0


def test_exception_in_process_fails_process_event():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        raise RuntimeError("bad")

    proc = env.process(worker())
    with pytest.raises(RuntimeError, match="bad"):
        env.run()
    assert proc.triggered and not proc.ok


def test_parent_catches_child_failure():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise RuntimeError("child died")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as exc:
            return f"caught: {exc}"

    assert env.run(until=env.process(parent())) == "caught: child died"


def test_yielding_non_event_fails_process():
    env = Environment()

    def worker():
        yield 42  # type: ignore[misc]

    proc = env.process(worker())
    with pytest.raises(SimulationError):
        env.run()
    assert not proc.ok


def test_yielding_foreign_event_fails_process():
    env = Environment()
    other = Environment()

    def worker():
        yield other.timeout(1.0)

    env.process(worker())
    with pytest.raises(SimulationError):
        env.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_interrupt_delivers_cause():
    env = Environment()
    seen = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except ProcessInterrupt as intr:
            seen.append(intr.cause)
            return "interrupted"

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(1.0)
        proc.interrupt("wake up")

    env.process(interrupter())
    assert env.run(until=proc) == "interrupted"
    assert seen == ["wake up"]
    assert env.now == 1.0


def test_interrupt_finished_process_is_noop():
    env = Environment()

    def quick():
        yield env.timeout(0.5)

    proc = env.process(quick())
    env.run()
    proc.interrupt("too late")  # must not raise
    env.run()


def test_uncaught_interrupt_fails_process():
    env = Environment()

    def sleeper():
        yield env.timeout(100.0)

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(1.0)
        proc.interrupt()

    env.process(interrupter())
    with pytest.raises(ProcessInterrupt):
        env.run()


def test_interrupted_process_can_keep_working():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100.0)
        except ProcessInterrupt:
            pass
        yield env.timeout(2.0)
        return env.now

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(1.0)
        proc.interrupt()

    env.process(interrupter())
    assert env.run(until=proc) == 3.0


def test_process_name_defaults_to_generator_name():
    env = Environment()

    def my_worker():
        yield env.timeout(0.0)

    proc = env.process(my_worker())
    assert proc.name == "my_worker"
    env.run()


def test_two_processes_interleave():
    env = Environment()
    order = []

    def ticker(name, period):
        for _ in range(3):
            yield env.timeout(period)
            order.append((name, env.now))

    env.process(ticker("a", 1.0))
    env.process(ticker("b", 1.5))
    env.run()
    # At t=3.0 both fire; b's timeout was scheduled first (at t=1.5, vs.
    # a's at t=2.0), so insertion order puts b ahead deterministically.
    assert order == [
        ("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0), ("a", 3.0), ("b", 4.5),
    ]
