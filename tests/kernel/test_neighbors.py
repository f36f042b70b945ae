"""Unit tests for the kernel neighbor table and beaconing."""

import pytest

from repro.kernel import Testbed
from repro.kernel.neighbors import NEIGHBOR_CAPACITY

QUIET = {"shadowing_sigma_db": 0.0, "fading_sigma_db": 0.0}


def small_testbed(n=3, spacing=30.0, seed=9, **node_kw):
    tb = Testbed(seed=seed, propagation_kwargs=QUIET)
    for i in range(n):
        tb.add_node(f"192.168.0.{i + 1}", (i * spacing, 0.0), **node_kw)
    return tb


def test_beacons_populate_tables():
    tb = small_testbed(3)
    tb.warm_up(10.0)
    entries = tb.node(1).neighbors.entries()
    assert [e.node_id for e in entries] == [2, 3]


def test_entries_carry_names_and_positions():
    tb = small_testbed(2)
    tb.warm_up(10.0)
    [entry] = tb.node(1).neighbors.entries()
    assert entry.name == "192.168.0.2"
    assert entry.position == pytest.approx((30.0, 0.0))


def test_link_quality_estimates_reasonable():
    tb = small_testbed(2)
    tb.warm_up(20.0)
    [entry] = tb.node(1).neighbors.entries()
    assert 90 <= entry.lqi <= 110       # clean 30 m link
    assert -80 <= entry.rssi <= 0       # register-reading range
    assert entry.prr_estimate > 0.8


def test_far_node_never_appears():
    tb = Testbed(seed=9, propagation_kwargs=QUIET)
    tb.add_node("a", (0.0, 0.0))
    tb.add_node("b", (1000.0, 0.0))
    tb.warm_up(20.0)
    assert tb.node("a").neighbors.entries() == []


def test_silent_neighbor_expires():
    tb = small_testbed(2)
    tb.warm_up(10.0)
    assert tb.node(1).neighbors.lookup(2) is not None
    tb.node(2).xcvr.enabled = False
    tb.warm_up(30.0)
    assert tb.node(1).neighbors.lookup(2) is None
    assert tb.monitor.counter("neighbors.expired") >= 1


def test_blacklist_flag_and_usable_filter():
    tb = small_testbed(3)
    tb.warm_up(10.0)
    table = tb.node(1).neighbors
    table.blacklist(2)
    assert table.is_blacklisted(2)
    assert 2 not in table.usable_ids()
    assert 2 in [e.node_id for e in table.entries()]  # still listed
    entry = table.lookup(2)
    assert entry is not None and not entry.enabled


def test_unblacklist_restores():
    tb = small_testbed(2)
    tb.warm_up(10.0)
    table = tb.node(1).neighbors
    table.blacklist(2)
    table.unblacklist(2)
    assert not table.is_blacklisted(2)
    assert 2 in table.usable_ids()
    assert table.lookup(2).enabled


def test_blacklist_survives_entry_churn():
    """A blacklist set before the neighbor is ever heard still applies."""
    tb = small_testbed(2)
    tb.node(1).neighbors.blacklist(2)
    tb.warm_up(10.0)
    entry = tb.node(1).neighbors.lookup(2)
    assert entry is not None
    assert not entry.enabled


def test_beacon_interval_update_changes_rate():
    tb = small_testbed(2)
    tb.warm_up(20.0)
    slow_before = tb.monitor.counter("neighbors.beacons_sent")
    for node in tb.nodes():
        node.neighbors.set_beacon_interval(0.5)
    tb.warm_up(20.0)
    fast_count = tb.monitor.counter("neighbors.beacons_sent") - slow_before
    # 2 nodes, 20 s at ~0.5 s → ~80 beacons vs ~20 at the 2 s default.
    assert fast_count > 2 * slow_before


def test_beacon_interval_validation():
    tb = small_testbed(1)
    with pytest.raises(ValueError):
        tb.node(1).neighbors.set_beacon_interval(0.0)


def test_capacity_evicts_oldest():
    tb = Testbed(seed=9, propagation_kwargs=QUIET)
    center = tb.add_node("center", (0.0, 0.0))
    for i in range(NEIGHBOR_CAPACITY + 2):
        tb.add_node(f"n{i}", (10.0 + i, 0.0))
    tb.warm_up(15.0)
    entries = center.neighbors.entries()
    assert len(entries) <= NEIGHBOR_CAPACITY
    assert tb.monitor.counter("neighbors.evicted") >= 1


def test_prr_estimate_tracks_gap_losses():
    """On a marginal link the PRR estimate must sit strictly inside
    (0, 1) — the gray region the diagnosis tools exist to find."""
    tb = Testbed(seed=12, propagation_kwargs=QUIET)
    tb.add_node("a", (0.0, 0.0))
    tb.add_node("b", (92.0, 0.0))
    tb.warm_up(120.0)
    entry = tb.node("a").neighbors.lookup(2)
    assert entry is not None
    assert 0.05 < entry.prr_estimate < 0.995
