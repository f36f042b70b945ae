"""Shard-out determinism: any partition, any merge order, same digest.

The property the scale-out story rests on: ``Campaign.shard(k, of)``
cuts a campaign into deterministic slices whose independently-computed
results, merged in **any** order, are byte-identical (digest and all)
to the single-machine serial run — including when a fault plan is a
campaign dimension.
"""

import random

import pytest

from repro.campaign import Campaign, merge_shards, run_campaign
from repro.faults import FaultPlan, FaultSpec

#: 3 x 3 grid x 2 repeats = 18 cells, the partition property's subject.
GRID33 = Campaign(
    name="grid33", scenario="chain_beacons", seed=11,
    grid={"nodes": [3, 4, 5], "seconds": [4.0, 5.0, 6.0]}, repeats=2,
)

CHAOS = Campaign(
    name="chaos-shard", scenario="chain_beacons", seed=7,
    base_params={"seconds": 5.0, "fault_plan": FaultPlan(
        name="shard-chaos", specs=(
            FaultSpec(kind="link_degrade", at=2.0, duration=6.0,
                      link=(1, 2), loss_db=40.0),
        ))},
    grid={"nodes": [3, 4]}, repeats=2,
)


def _run_all_shards(campaign, of):
    """Every shard, serially, returned in shuffled (arrival) order."""
    results = [run_campaign(campaign.shard(k, of), workers=1)
               for k in range(of)]
    random.Random(of).shuffle(results)
    return results


# -- the partition itself ----------------------------------------------------


def test_shards_partition_the_expansion():
    specs = GRID33.expand()
    assert len(specs) == len(GRID33) == 18
    for of in (1, 2, 3, 5, 18, 19):
        shards = [GRID33.shard(k, of) for k in range(of)]
        pieces = [s.expand() for s in shards]
        # Disjoint cover of the full expansion, sizes as advertised.
        flat = [spec for piece in pieces for spec in piece]
        assert sorted(flat, key=specs.index) == specs
        assert len(set(flat)) == len(specs)
        assert [len(p) for p in pieces] == [len(s) for s in shards]
    # Round-robin: shard k takes positions k, k+of, k+2*of, ...
    assert GRID33.shard(1, 4).expand() == specs[1::4]


def test_shard_validation():
    with pytest.raises(ValueError):
        GRID33.shard(0, 0)
    with pytest.raises(ValueError):
        GRID33.shard(-1, 3)
    with pytest.raises(ValueError):
        GRID33.shard(3, 3)


def test_shard_identity_travels_on_the_result():
    out = run_campaign(GRID33.shard(2, 9), workers=1)
    assert out.shard == (2, 9)
    assert out.name == GRID33.name
    assert run_campaign(
        Campaign(name="t", scenario="chain_beacons", seed=1,
                 base_params={"seconds": 4.0})).shard is None


# -- merged == serial, bit for bit -------------------------------------------


@pytest.mark.parametrize("of", [1, 2, 3, 5])
def test_any_partition_merges_to_the_serial_digest(of):
    serial = run_campaign(GRID33, workers=1)
    merged = merge_shards(GRID33, _run_all_shards(GRID33, of))
    assert merged.digest() == serial.digest()
    assert [r.spec for r in merged.runs] == GRID33.expand()
    assert merged.shard is None
    assert merged.workers >= 1 and merged.wall_s > 0


def test_merge_handles_list_valued_params():
    """Grid values may be lists (``canonical_params`` allows JSON
    scalars *and* lists), which makes ``RunSpec`` unhashable — the
    merge keys cells canonically, so such campaigns still reassemble."""
    listy = Campaign(
        name="listy", scenario="tests.campaign._pool_scenarios:echo_pid",
        seed=13, grid={"weights": [[1, 2], [3, 4], [5, 6]]}, repeats=2,
    )
    serial = run_campaign(listy, workers=1)
    assert serial.failures == []
    merged = merge_shards(listy, _run_all_shards(listy, 2))
    assert merged.digest() == serial.digest()


def test_sharding_with_a_fault_plan_stays_deterministic():
    serial = run_campaign(CHAOS, workers=1)
    merged = merge_shards(CHAOS, _run_all_shards(CHAOS, 3))
    assert merged.digest() == serial.digest()


def test_sharded_warm_pool_matches_serial_digest():
    """Shard + warm pool compose: each shard may use any worker count."""
    serial = run_campaign(GRID33, workers=1)
    results = [run_campaign(GRID33.shard(k, 2), workers=2)
               for k in range(2)]
    merged = merge_shards(GRID33, results)
    assert merged.digest() == serial.digest()
    assert merged.workers == 2


# -- strictness of the merge -------------------------------------------------


def test_merge_rejects_missing_shard():
    results = _run_all_shards(GRID33, 3)[:-1]
    with pytest.raises(ValueError, match="covered by no shard"):
        merge_shards(GRID33, results)


def test_merge_rejects_duplicate_coverage():
    results = _run_all_shards(GRID33, 3)
    with pytest.raises(ValueError, match="more than one shard"):
        merge_shards(GRID33, results + [results[0]])


def test_merge_rejects_foreign_runs():
    other = Campaign(
        name="grid33", scenario="chain_beacons", seed=99,  # other seeds
        grid={"nodes": [3, 4, 5], "seconds": [4.0, 5.0, 6.0]}, repeats=2,
    )
    foreign = run_campaign(other.shard(0, 9), workers=1)
    with pytest.raises(ValueError, match="belongs to no cell"):
        merge_shards(GRID33, [foreign])
