"""Runner behaviour: sharding, caching, failures, timeouts, progress.

The expensive bit-for-bit sharded-vs-serial campaign assertion lives
with the golden determinism suite
(``tests/integration/test_golden_determinism.py``); these tests cover
the runner's mechanics on campaigns small enough to stay fast.
"""

import json
import pickle
import sys
import threading

import pytest

from repro.campaign import (
    MAX_RETRIES,
    MAX_WORKERS,
    Campaign,
    ResultCache,
    RunResult,
    RunSpec,
    check_run_options,
    default_workers,
    execute_spec,
    run_campaign,
    scenario_names,
)
from repro.campaign.cache import code_fingerprint

TINY = Campaign(
    name="tiny", scenario="chain_beacons", seed=5,
    base_params={"seconds": 5.0}, grid={"nodes": [3, 4]}, repeats=1,
)


def test_execute_spec_returns_plain_picklable_result():
    spec = TINY.expand()[0]
    result = execute_spec(spec)
    assert result.ok
    assert result.counters["medium.transmissions"] > 0
    assert result.packet_sha256 and result.n_packets > 0
    assert result.sim_time > 0
    assert result.metrics["counters"] == result.counters
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result


def test_result_keeps_its_counters_once():
    """``counters`` is a read-only view of ``metrics["counters"]``: the
    map is written, pickled and cached once, and a round trip through
    ``to_dict`` keeps it and the run's digest line."""
    result = execute_spec(TINY.expand()[0])
    data = result.to_dict()
    assert "counters" not in data
    assert data["metrics"]["counters"] == result.counters
    with pytest.raises(TypeError):
        result.counters["medium.transmissions"] = 0
    clone = RunResult.from_dict(json.loads(json.dumps(data)))
    assert clone.counters == result.counters
    assert clone.digest_line() == result.digest_line()


def test_serial_campaign_results_in_expansion_order():
    out = run_campaign(TINY, workers=1)
    assert [r.spec for r in out.runs] == TINY.expand()
    assert out.failures == []
    assert out.wall_s > 0 and out.workers == 1


def test_run_twice_is_identical():
    assert run_campaign(TINY, workers=1).digest() == \
        run_campaign(TINY, workers=1).digest()


def test_cache_hits_skip_execution_and_preserve_results(tmp_path):
    first = run_campaign(TINY, workers=1, cache=tmp_path)
    assert first.n_cached == 0
    second = run_campaign(TINY, workers=1, cache=tmp_path)
    assert second.n_cached == len(second.runs)
    assert second.digest() == first.digest()
    for a, b in zip(first.runs, second.runs):
        assert b.cached and b.as_cached() == b
        assert (a.counters, a.packet_sha256, a.values, a.sim_time) == \
            (b.counters, b.packet_sha256, b.values, b.sim_time)


def test_cache_key_includes_code_fingerprint(tmp_path):
    run_campaign(TINY, workers=1, cache=tmp_path)
    stale = ResultCache(tmp_path, code_hash="different-code")
    assert run_campaign(TINY, workers=1, cache=stale).n_cached == 0
    fresh = ResultCache(tmp_path, code_hash=code_fingerprint())
    assert run_campaign(TINY, workers=1,
                        cache=fresh).n_cached == len(TINY.expand())


def test_cache_ignores_corrupt_entries(tmp_path):
    run_campaign(TINY, workers=1, cache=tmp_path)
    for path in tmp_path.rglob("*.json"):
        path.write_text("{not json")
    again = run_campaign(TINY, workers=1, cache=tmp_path)
    assert again.n_cached == 0 and again.failures == []


def test_failed_runs_are_reported_not_fatal():
    bad = Campaign(name="bad", scenario="beacon_field", seed=1,
                   grid={"nodes": [3, 7]})  # both unsupported sizes
    out = run_campaign(bad, workers=1, retries=2)
    assert len(out.failures) == 2 and out.ok == []
    for run in out.failures:
        assert run.attempts == 3          # 1 try + 2 retries, then settle
        assert "beacon_field supports" in run.error
    # Failures are never written to a cache.
    assert not out.runs[0].cached


def test_per_run_timeout_becomes_an_error_result():
    slow = Campaign(name="slow", scenario="beacon_field", seed=1,
                    base_params={"nodes": 30, "minutes": 60.0})
    out = run_campaign(slow, workers=1, timeout_s=0.2, retries=0)
    assert len(out.failures) == 1
    assert "timeout" in out.failures[0].error


def test_timeout_holds_for_a_campaign_run_from_a_thread():
    """SIGALRM needs a main thread, so a campaign with a deadline runs
    in the warm pool even at ``workers=1``, where a worker arms it."""
    sleepy = Campaign(name="sleepy",
                      scenario="tests.campaign._pool_scenarios:sleepy",
                      seed=1, base_params={"duration": 2.0})
    box = {}
    thread = threading.Thread(target=lambda: box.update(out=run_campaign(
        sleepy, workers=1, timeout_s=0.5, retries=0)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    (run,) = box["out"].failures
    assert run.error == "timeout after 0.5s"


def test_timeout_covers_the_cell_module_import():
    """The deadline is armed before the worker imports the module a
    ``module:function`` cell lives in, so a slow import is a timeout."""
    # Registers the cell here; only a worker's import of it is slow.
    import tests.campaign._slow_import_scenarios  # noqa: F401
    out = run_campaign(Campaign(
        name="slow-import", seed=1,
        scenario="tests.campaign._slow_import_scenarios:quick"),
        workers=2, timeout_s=0.5, retries=0)
    (run,) = out.failures
    assert run.error == "timeout after 0.5s"


def test_resolving_a_reference_runs_no_module_code(capsys):
    # `this` prints the Zen of Python when imported; resolving a
    # reference into it must neither import it nor print.
    with pytest.raises(ValueError, match="not a registered scenario"):
        Campaign(name="c", scenario="this:x")
    assert capsys.readouterr().out == ""
    assert "this" not in sys.modules


@pytest.mark.parametrize("timeout_s", [-1.0, float("nan"), float("inf"),
                                       1e10])
def test_timeout_beyond_the_alarm_range_rejected_up_front(timeout_s):
    # setitimer overflows past threading.TIMEOUT_MAX (~9.2e9 s), which
    # would fail every pooled cell; refuse before anything runs.
    seen = []
    with pytest.raises(ValueError, match="timeout_s"):
        run_campaign(TINY, workers=1, timeout_s=timeout_s,
                     progress=lambda *a: seen.append(a))
    assert seen == []


@pytest.mark.parametrize("options", [
    {"retries": MAX_RETRIES + 1}, {"retries": -1}, {"retries": True},
    {"retries": 1.0}, {"workers": 2.0}, {"workers": False},
    {"timeout_s": "5"},
])
def test_run_options_out_of_bounds_rejected_up_front(options):
    seen = []
    with pytest.raises(ValueError):
        run_campaign(TINY, **{"workers": 1, **options},
                     progress=lambda *a: seen.append(a))
    assert seen == []


def test_workers_clamp():
    """The check alone (no pool starts): None and 0 mean the default,
    and any count lands in 1..MAX_WORKERS."""
    assert check_run_options(None)[0] == check_run_options(0)[0] == \
        min(MAX_WORKERS, default_workers())
    assert check_run_options(-3)[0] == 1
    assert check_run_options(10 ** 6)[0] == MAX_WORKERS
    assert check_run_options(2, 5, MAX_RETRIES) == (2, 5.0, MAX_RETRIES)


@pytest.mark.parametrize("workers", [1, 2])
def test_cell_raising_system_exit_is_a_failed_run(workers):
    out = run_campaign(Campaign(
        name="exits", scenario="tests.campaign._pool_scenarios:exits",
        seed=1), workers=workers, retries=0)
    (run,) = out.failures
    assert "SystemExit: 56" in run.error


@pytest.mark.parametrize("argv, message", [
    (["--retries", "9"], "--retries"),
    (["--scenario", "sys:exit"], "not a registered scenario"),
    (["--grid", "nodes=3", "--grid", "seconds=x", "--repeats", "100000"],
     "at most"),
])
def test_cli_campaign_input_errors_are_usage_errors(argv, message, capsys,
                                                    monkeypatch):
    import repro.campaign
    from repro.__main__ import main

    def never(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(repro.campaign, "run_campaign", never)
    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "--scenario", "chain_beacons", *argv])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_timeout_beyond_the_alarm_range_is_a_usage_error(capsys):
    from repro.__main__ import main
    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "--scenario", "chain_beacons",
              "--timeout", "1e10"])
    assert exit_info.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_progress_callback_sees_every_run(tmp_path):
    seen = []
    run_campaign(TINY, workers=1, cache=tmp_path,
                 progress=lambda done, total, r: seen.append((done, total,
                                                              r.cached)))
    assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
    assert all(not cached for _, _, cached in seen)
    seen.clear()
    run_campaign(TINY, workers=1, cache=tmp_path,
                 progress=lambda done, total, r: seen.append((done, total,
                                                              r.cached)))
    assert all(cached for _, _, cached in seen)


def test_unknown_scenario_is_a_per_run_error():
    # Campaign refuses an unknown scenario up front (test_spec.py); a
    # spec that reaches a worker anyway still settles as a failed run.
    result = execute_spec(RunSpec(scenario="nope"))
    assert not result.ok
    assert "unknown scenario" in result.error


def test_builtin_scenarios_registered():
    names = scenario_names()
    for expected in ("beacon_field", "chain_beacons", "fig5_traceroute",
                     "fig6_rssi_sweep", "fig7_overhead", "protocol_ping",
                     "lqi_ablation"):
        assert expected in names


def test_result_value_lookup_prefers_scenario_values():
    result = RunResult(spec=TINY.expand()[0],
                       metrics={"counters": {"x": 1, "only_counter": 7}},
                       values={"x": 2.5})
    assert result.value("x") == 2.5
    assert result.value("only_counter") == 7
    assert result.value("missing", -1) == -1


def _flaky(name, seed, marker_dir, cells=2):
    return Campaign(
        name=name, scenario="tests.campaign._pool_scenarios:flaky_once",
        seed=seed, grid={"cell": list(range(cells))},
        base_params={"marker_dir": str(marker_dir)},
    )


def test_cached_rereads_report_true_attempt_counts(tmp_path):
    """Regression: ``attempts`` must be threaded onto the result before
    the cache put, so a run that failed once and succeeded on retry
    reads back from the cache as ``attempts=2``, not ``attempts=1``."""
    cache, markers = tmp_path / "cache", tmp_path / "markers"
    markers.mkdir()
    first = run_campaign(_flaky("flaky", 3, markers), workers=1,
                         cache=cache, retries=1)
    assert first.failures == []
    assert all(r.attempts == 2 for r in first.runs)
    again = run_campaign(_flaky("flaky", 3, markers), workers=1,
                         cache=cache, retries=1)
    assert again.n_cached == len(again.runs)
    assert all(r.attempts == 2 for r in again.runs)  # the regression


def test_cached_attempt_counts_survive_the_pool_path(tmp_path):
    """Same property when the retries and cache puts happen inside warm
    pool workers rather than the parent."""
    cache, markers = tmp_path / "cache", tmp_path / "markers"
    markers.mkdir()
    first = run_campaign(_flaky("flaky-pool", 4, markers, cells=4),
                         workers=2, cache=cache, retries=1)
    assert first.failures == []
    assert all(r.attempts == 2 for r in first.runs)
    again = run_campaign(_flaky("flaky-pool", 4, markers, cells=4),
                         workers=2, cache=cache, retries=1)
    assert again.n_cached == len(again.runs)
    assert all(r.attempts == 2 for r in again.runs)


def test_cache_get_many_prefetches_in_spec_order(tmp_path):
    cache = ResultCache(tmp_path)
    specs = TINY.expand()
    assert cache.get_many(specs) == [None] * len(specs)
    out = run_campaign(TINY, workers=1, cache=cache)
    hits = cache.get_many(specs)
    assert [h.spec for h in hits] == specs
    assert all(h.cached for h in hits)
    assert [h.counters for h in hits] == [r.counters for r in out.runs]
    # A miss in the middle stays a None, in place.
    stranger = Campaign(name="t", scenario="chain_beacons", seed=404,
                        base_params={"seconds": 4.0}).expand()[0]
    mixed = cache.get_many([specs[0], stranger, specs[1]])
    assert mixed[0] is not None and mixed[2] is not None
    assert mixed[1] is None


@pytest.mark.slow
def test_sharded_spawn_pool_matches_serial():
    """Two spawn workers produce byte-identical results to in-process
    serial execution (the cheap version of the golden assertion)."""
    serial = run_campaign(TINY, workers=1)
    sharded = run_campaign(TINY, workers=2, mp_context="spawn")
    assert sharded.digest() == serial.digest()
