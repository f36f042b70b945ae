"""Online-detector overhead on the 100-node minute bench.

Not a paper experiment — the perf gate for the passive detection path
(``repro.diag.online``), in two honestly-separated numbers recorded in
``BENCH_simulator.json``:

``online_detector_overhead`` (asserted ≤ 2%)
    What shipping the subsystem costs runs that do NOT use it — i.e.
    the default/active-mode fleet, and every existing bench.  The only
    hot-path change is the tap guard in the neighbor service
    (``taps = monitor.beacon_taps`` + a truth test), run once per beacon
    batch, so the overhead is that guard's cost times the scenario's
    beacons sent (an upper bound on its batches), over the scenario
    runtime — the same methodology as ``bench_trace_overhead`` uses for
    the disabled-tracing guard, and far more stable than differencing
    two noisy end-to-end timings.

``online_listener_attached_overhead`` (recorded, report-only)
    What a fleet that *opts into* passive mode pays: within one attached
    100-node minute, the time spent inside :meth:`OnlineMonitor._tap`
    (one call per beacon batch) and :meth:`OnlineMonitor.poll` (the
    serve layer's assessment cadence), over the rest of that same
    minute — timed by a wrapper around the two methods, as perfbench's
    ``online.tap`` span times them; the median of five minutes.  Both
    parts come from one run, so host-speed drift between runs cannot
    move the ratio (a ratio of two separate attached and detached
    minutes spread from 38% to 92% over five pairs).  Every reception
    still runs two EWMA detectors, a CUSUM and ring pushes in pure
    Python, so this lands in the tens of percent; the budget passive
    mode actually buys is *network* overhead — zero probe packets —
    which the determinism suite asserts byte-exactly.
"""

import time
import timeit
from unittest import mock

from repro.core.deploy import deploy_liteview
from repro.diag import OnlineMonitor
from repro.sim.monitor import Monitor
from repro.workloads import hundred_node_field

#: Acceptance bar: the subsystem may slow non-users by at most this.
MAX_GUARD_OVERHEAD = 0.02
#: Sanity ceiling on the opt-in listener (report-only metric; single
#: shared-hardware samples of this ratio swing tens of percent, so the
#: ceiling only catches order-of-magnitude regressions).
MAX_ATTACHED_OVERHEAD = 1.0

#: The serve layer's default assessment cadence (build_fleet).
POLL_EVERY = 30.0
MINUTE = 60.0


def run_minute(attached):
    """The 100-node minute, optionally with the passive listener on."""
    testbed = hundred_node_field(seed=3)
    online = OnlineMonitor(testbed).attach() if attached else None
    deploy_liteview(testbed, warm_up=0.0)
    t = 0.0
    while t < MINUTE:
        t += POLL_EVERY
        testbed.run(until=t)
        if online is not None:
            online.poll()
    return testbed, online


def cpu_minute(attached):
    start = time.process_time()
    run_minute(attached)
    return time.process_time() - start


def listener_share_of_minute():
    """One attached minute: the seconds spent in the tap and the poll
    over the seconds spent in everything else."""
    inside = [0.0]
    clock = time.perf_counter

    def timed(fn):
        def span(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] += clock() - start
        return span

    # Patched on the class before the world is built: ``attach`` binds
    # the wrapped ``_tap``.
    with mock.patch.object(OnlineMonitor, "_tap", timed(OnlineMonitor._tap)), \
            mock.patch.object(OnlineMonitor, "poll", timed(OnlineMonitor.poll)):
        start = clock()
        run_minute(attached=True)
        total = clock() - start
    return inside[0] / (total - inside[0])


def test_tap_guard_overhead_under_two_percent(benchmark, record_metric,
                                              report):
    """The default path: no listener attached, only the guard runs."""
    testbed, _ = run_minute(attached=False)
    receptions = testbed.monitor.counter("neighbors.beacons_received")
    assert receptions > 20_000
    batches = testbed.monitor.counter("neighbors.beacons_sent")

    monitor = Monitor()  # beacon_taps == () — the default-mode state
    n = 200_000
    guard_cost = timeit.timeit(
        "monitor.beacon_taps and None",
        globals={"monitor": monitor}, number=n) / n

    # The three detached minutes run through the fixture, so they are
    # this bench's timing record; the fastest one's CPU time is the
    # scenario runtime.
    t_off = min(benchmark.pedantic(
        lambda: [cpu_minute(attached=False) for _ in range(3)],
        rounds=1, iterations=1))
    fraction = batches * guard_cost / t_off
    if not getattr(benchmark, "disabled", False):
        # Measuring mode only: a CI smoke run asserts the bound below
        # but writes no timing table.
        record_metric("online_detector_overhead", fraction,
                      budget=MAX_GUARD_OVERHEAD, receptions=receptions,
                      batches=batches, guard_ns=guard_cost * 1e9)
        report(
            "online_overhead_guard",
            "\n".join([
                "online-detector guard overhead (100-node minute, detached)",
                f"  beacon receptions        {receptions}",
                f"  guard runs (<= beacons)  {batches}",
                f"  per-guard cost           {guard_cost * 1e9:8.1f} ns",
                f"  scenario runtime         {t_off * 1e3:8.1f} ms",
                f"  implied overhead         {fraction * 100:8.4f} %",
                f"  budget                   "
                f"{MAX_GUARD_OVERHEAD * 100:8.1f} %",
            ]),
        )
    assert fraction < MAX_GUARD_OVERHEAD, (
        f"tap guard overhead {fraction:.2%} exceeds "
        f"{MAX_GUARD_OVERHEAD:.0%}")


def test_attached_listener_cost(benchmark, record_metric, report):
    """The opt-in path: every beacon reception feeds the detectors."""
    testbed, online = run_minute(attached=True)
    assert online.beacons_seen > 20_000       # the tap really ran
    assert online.links_tracked > 100
    assert testbed.monitor.counter("diag.online.polls") == 2

    if getattr(benchmark, "disabled", False):
        # CI smoke mode: correctness above, no timing below.
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return

    # Tap and poll time over the rest of the same minute, per minute.
    ratios = [listener_share_of_minute() for _ in range(5)]
    overhead = sorted(ratios)[len(ratios) // 2]

    benchmark.pedantic(lambda: run_minute(attached=True),
                       rounds=5, iterations=1)
    record_metric("online_listener_attached_overhead", overhead,
                  ceiling=MAX_ATTACHED_OVERHEAD, minutes=len(ratios),
                  samples=ratios, beacons=online.beacons_seen,
                  links=online.links_tracked)
    report(
        "online_overhead_attached",
        "\n".join([
            "passive listener attached overhead (100-node minute)",
            f"  beacons tapped          {online.beacons_seen}",
            f"  links tracked           {online.links_tracked}",
            "  measure                 tap + poll time / rest of the",
            "                          same attached minute",
            f"  median overhead         {overhead * 100:8.2f} %",
            "  samples (run order)     "
            + ", ".join(f"{r * 100:.1f}%" for r in ratios),
            f"  sanity ceiling          {MAX_ATTACHED_OVERHEAD * 100:8.0f} %",
            "  network overhead        0 probe packets (asserted in",
            "                          tests/serve/test_passive_mode.py)",
        ]),
    )
    assert overhead < MAX_ATTACHED_OVERHEAD, (
        f"attached listener overhead {overhead:.2%} exceeds the "
        f"{MAX_ATTACHED_OVERHEAD:.0%} sanity ceiling")
