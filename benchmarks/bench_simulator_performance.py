"""Simulator throughput: how fast the substrate itself runs.

Not a paper experiment — housekeeping for the reproduction: the figure
benches re-run whole testbeds, so the event loop and the vectorised
link model must stay fast enough to keep the whole suite interactive.
These benches give regressions a place to show up.
"""

import numpy as np

from repro.core.deploy import deploy_liteview
from repro.radio import packet_reception_ratio
from repro.sim import Environment
from repro.workloads import (
    hundred_node_field,
    thirty_node_field,
    thousand_node_city,
)


def test_event_loop_throughput(benchmark):
    """A ping-pong of pure timer events (no radio)."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(20_000):
                yield env.timeout(0.001)

        env.process(ticker())
        env.run()
        return env.now

    now = benchmark(run)
    assert abs(now - 20.0) < 1e-6  # float accumulation over 20k ticks


def test_thirty_node_minute_of_beacons(benchmark):
    """One simulated minute of the full 30-node testbed."""

    def run():
        testbed = thirty_node_field(seed=2)
        deploy_liteview(testbed, warm_up=60.0)
        return testbed.monitor.counter("medium.transmissions")

    transmissions = benchmark.pedantic(run, rounds=5, iterations=1)
    assert transmissions > 500  # ~30 nodes x 30 beacons


def test_hundred_node_minute_of_beacons(benchmark):
    """One simulated minute at 10x the paper's node count.

    The scale the vectorized medium exists for: ~100 candidate receivers
    per transmission, thousands of transmissions.  Runs to completion in
    CI smoke mode (``--benchmark-disable``) as the interactivity gate.
    """

    def run():
        testbed = hundred_node_field(seed=3)
        deploy_liteview(testbed, warm_up=60.0)
        return testbed.monitor.counter("medium.transmissions")

    transmissions = benchmark.pedantic(run, rounds=5, iterations=1)
    assert transmissions > 2000  # ~100 nodes x 30 beacons


def test_thousand_node_city_minute_of_beacons(benchmark):
    """One simulated minute of the ~1040-node city tier.

    The scale the spatial index exists for: districts sit beyond radio
    range of each other, so each transmission has ~40 in-range
    candidates out of >1000 attached radios.  Sub-quadratic scaling is
    the point — the minute lands near 10x the 100-node minute (naive
    dense scaling would be ~100x); the bench asserts >90% of receivers
    pruned per transmission and records the time.
    """

    def run():
        testbed = thousand_node_city(seed=5)
        deploy_liteview(testbed, warm_up=60.0)
        medium = testbed.medium
        total = medium.candidates_considered + medium.candidates_pruned
        return (testbed.monitor.counter("medium.transmissions"),
                medium.candidates_pruned / total)

    transmissions, pruned_fraction = benchmark.pedantic(
        run, rounds=5, iterations=1)
    assert transmissions > 20_000  # ~1040 nodes x 30 beacons
    assert pruned_fraction > 0.90  # the spatial index is actually on


def test_vectorised_prr_batch(benchmark):
    """The link model over 100k SINR samples in one call."""
    sinrs = np.linspace(-10.0, 20.0, 100_000)

    def run():
        return packet_reception_ratio(sinrs, 64)

    prr = benchmark(run)
    assert prr.shape == sinrs.shape
    assert prr[0] < 0.01 and prr[-1] > 0.999
