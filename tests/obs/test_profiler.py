"""Sim profiler: engine hook, attribution labels, report shape."""

from repro.obs import ProfileEntry, SimProfiler
from repro.sim import Environment


def ticker(env, period, rounds):
    for _ in range(rounds):
        yield env.timeout(period)


def test_environment_carries_no_profiler_by_default():
    env = Environment()
    assert env.profiler is None


def test_attach_measures_and_detach_stops():
    env = Environment()
    profiler = SimProfiler().attach(env)
    assert env.profiler is profiler

    env.process(ticker(env, 1.0, 3), name="tick")
    env.run()
    assert profiler.calls > 0
    assert profiler.total_s >= 0.0

    SimProfiler.detach(env)
    assert env.profiler is None
    calls_before = profiler.calls
    env.process(ticker(env, 1.0, 2), name="tock")
    env.run()
    assert profiler.calls == calls_before  # detached: nothing measured


def test_costs_attributed_to_process_names():
    env = Environment()
    profiler = SimProfiler().attach(env)
    env.process(ticker(env, 1.0, 4), name="mac-tx-1")
    env.run()
    labels = {entry.label for entry in profiler.entries()}
    assert "process:mac-tx-1" in labels


def test_bare_event_attributed_to_event_class():
    env = Environment()
    profiler = SimProfiler().attach(env)
    env.timeout(1.0)  # nobody waits on it
    env.run()
    labels = {entry.label for entry in profiler.entries()}
    assert "event:Timeout" in labels


def test_entries_sorted_hottest_first_and_mean_is_consistent():
    profiler = SimProfiler()
    profiler._stats["a"] = [2, 0.004, 0.003]
    profiler._stats["b"] = [1, 0.010, 0.010]
    first, second = profiler.entries()
    assert (first.label, second.label) == ("b", "a")
    assert second.mean_us == 2000.0
    assert ProfileEntry("z", 0, 0.0, 0.0).mean_us == 0.0


def test_report_lists_hotspots_and_truncates():
    env = Environment()
    profiler = SimProfiler().attach(env)
    assert "no events dispatched" in profiler.report()
    for i in range(4):
        env.process(ticker(env, 1.0, 2), name=f"p{i}")
    env.run()
    text = profiler.report(top=2)
    assert "dispatches" in text.splitlines()[0]
    assert "more labels" in text.splitlines()[-1]


def test_reset_zeroes_everything():
    env = Environment()
    profiler = SimProfiler().attach(env)
    env.process(ticker(env, 1.0, 2), name="x")
    env.run()
    profiler.reset()
    assert profiler.calls == 0
    assert profiler.total_s == 0.0
    assert profiler.entries() == []


def test_profiling_does_not_change_sim_results():
    """The profiler reads wall time but must not alter sim behavior."""

    def run(with_profiler):
        env = Environment()
        if with_profiler:
            SimProfiler().attach(env)
        ticks = []
        def recorder(env):
            for _ in range(5):
                yield env.timeout(0.25)
                ticks.append(env.now)
        env.process(recorder(env), name="rec")
        env.run()
        return ticks, env.now

    assert run(with_profiler=False) == run(with_profiler=True)


def test_run_measures_every_dispatch_in_all_three_forms():
    """``run(until=<time>)``, ``run(until=<event>)`` and ``run()`` share
    one dispatch loop, and each hands every event to the profiler: split
    three ways, the run measures as many dispatches as one unsplit
    ``run()``."""

    def world():
        env = Environment()
        env.process(ticker(env, 1.0, 6), name="tick")
        return env, env.timeout(4.5)

    env, _ = world()
    whole = SimProfiler().attach(env)
    env.run()
    dispatched = whole.calls

    env, done = world()
    profiler = SimProfiler().attach(env)
    env.run(until=1.5)
    by_time = profiler.calls
    env.run(until=done)
    by_event = profiler.calls
    env.run()
    assert 0 < by_time < by_event < profiler.calls == dispatched
    assert env.now == 6.0
