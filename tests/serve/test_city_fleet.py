"""City-tier fleet specs and the /health watchlist clamp."""

import pytest

from repro.serve import MAX_WATCHLIST, build_fleet
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
    small = build_fleet("chain:8", seed=7, warm_up=5.0)
    full = nearest_neighbor_links(small.testbed)
    # The workstation does not beacon, so it is no fleet member.
    assert small.deployment.workstation.node.id not in {
        n for l in full for n in l}
    # Under the cap the watchlist is the whole nearest-neighbor list.
    assert small.assessor.watched_links == full

    city = build_fleet("city:300", seed=7, warm_up=0.0)
    full = nearest_neighbor_links(city.testbed)
    assert len(full) > MAX_WATCHLIST
    watched = city.assessor.watched_links
    assert len(watched) == MAX_WATCHLIST
    # A subsample of the full sorted list, in order, spread by an even
    # stride from its first link to its last stride.
    picks = [full.index(link) for link in watched]
    step = len(full) / MAX_WATCHLIST
    assert picks[0] == 0 and picks == sorted(set(picks))
    assert all(b - a <= step + 1 for a, b in zip(picks, picks[1:]))
    assert picks[-1] >= len(full) - step - 1
    assert build_fleet("city:300", seed=7, warm_up=0.0
                       ).assessor.watched_links == watched
