"""City-tier fleet specs and the /health watchlist clamp."""

import pytest

from repro.serve import MAX_WATCHLIST, HealthAssessor, build_fleet
from repro.serve.health import nearest_neighbor_links


def test_city_spec_builds_a_sized_city_fleet():
    # city:40 → a single 40-node district (plus the workstation).
    fleet = build_fleet("city:40", seed=7, warm_up=5.0)
    assert fleet.name == "city40"
    assert len(fleet.testbed) >= 40
    # The watchlist came out clamped (trivially, here — the district's
    # nearest-neighbor list is already below the cap).
    assert len(fleet.assessor.watched_links) <= MAX_WATCHLIST


def test_unknown_spec_message_names_city():
    with pytest.raises(ValueError, match="city"):
        build_fleet("metropolis", seed=7, warm_up=0.0)
    with pytest.raises(ValueError, match="positive"):
        build_fleet("city:0", seed=7, warm_up=0.0)


def test_watchlist_clamp_is_deterministic_even_stride():
    fleet = build_fleet("chain:8", seed=7, warm_up=5.0)
    deployment = fleet.deployment
    full = nearest_neighbor_links(fleet.testbed)
    # The workstation does not beacon, so it is no fleet member.
    assert deployment.workstation.node.id not in {n for l in full for n in l}
    assert len(full) > 3
    clamped = HealthAssessor(deployment, max_links=3)
    assert len(clamped.watched_links) == 3
    # A subsample of the full sorted list, in order, spread by stride.
    assert set(clamped.watched_links) <= set(full)
    assert list(clamped.watched_links) == sorted(clamped.watched_links)
    assert clamped.watched_links[0] == full[0]
    # Unclamped and over-sized caps leave the list alone.
    assert HealthAssessor(deployment).watched_links == full
    assert HealthAssessor(deployment, max_links=999).watched_links == full
