"""Fault plans as first-class campaign parameters."""

import json

import pytest

from repro.campaign import Campaign, run_campaign
from repro.campaign.spec import derive_seed
from repro.faults import FaultPlan, FaultSpec

CHAOS_PLAN = FaultPlan(name="campaign-chaos", specs=(
    FaultSpec(kind="link_degrade", at=5.0, duration=8.0, link=(1, 2),
              loss_db=45.0),
    FaultSpec(kind="packet_corrupt", at=2.0, duration=10.0,
              probability=0.4),
))

CHAOS = Campaign(
    name="chaos-tiny", scenario="chain_beacons", seed=5,
    base_params={"seconds": 5.0, "fault_plan": CHAOS_PLAN},
    grid={"nodes": [3, 4]}, repeats=1,
)

PLAIN = Campaign(
    name="chaos-tiny", scenario="chain_beacons", seed=5,
    base_params={"seconds": 5.0}, grid={"nodes": [3, 4]}, repeats=1,
)


def test_fault_plan_becomes_a_cell_parameter():
    for cell in CHAOS.cells():
        assert cell["fault_plan"] == CHAOS_PLAN.to_param()
    for cell in PLAIN.cells():
        assert "fault_plan" not in cell


def test_fault_plan_perturbs_derived_seeds():
    chaos_seeds = [s.seed for s in CHAOS.expand()]
    plain_seeds = [s.seed for s in PLAIN.expand()]
    assert set(chaos_seeds).isdisjoint(plain_seeds)
    # No-plan campaigns keep their historical seeds exactly.
    assert plain_seeds[0] == derive_seed(
        5, "chain_beacons", {"seconds": 5.0, "nodes": 3}, 0)


@pytest.mark.parametrize("form", [
    CHAOS_PLAN, CHAOS_PLAN.to_dict(), CHAOS_PLAN.to_param(),
    json.dumps(CHAOS_PLAN.to_dict(), indent=2),
])
def test_every_plan_form_derives_the_same_seeds(form):
    """A plan object, a mapping and any JSON spelling decode to one
    canonical parameter and so derive one set of seeds.  The pinned
    seed is the one this campaign derived when the plan was a separate
    ``Campaign`` field, so caches and fixtures keyed by it stay valid."""
    campaign = Campaign(
        name="chaos-tiny", scenario="chain_beacons", seed=5,
        base_params={"seconds": 5.0, "fault_plan": form},
        grid={"nodes": [3, 4]}, repeats=1)
    assert [s.seed for s in campaign.expand()] == \
        [s.seed for s in CHAOS.expand()]
    assert campaign.expand()[0].seed == 8262613346839898385


def test_chaos_campaign_is_reproducible_serially():
    first = run_campaign(CHAOS, workers=1)
    second = run_campaign(CHAOS, workers=1)
    assert first.failures == []
    assert first.digest() == second.digest()
    # The plan visibly changed every run relative to the plain campaign.
    plain = run_campaign(PLAIN, workers=1)
    chaos_shas = [r.packet_sha256 for r in first.runs]
    plain_shas = [r.packet_sha256 for r in plain.runs]
    assert set(chaos_shas).isdisjoint(plain_shas)


def test_chaos_campaign_caches_like_any_other(tmp_path):
    first = run_campaign(CHAOS, workers=1, cache=tmp_path)
    assert first.n_cached == 0
    again = run_campaign(CHAOS, workers=1, cache=tmp_path)
    assert again.n_cached == len(again.runs)
    assert again.digest() == first.digest()
    # A different plan is a different cache key.
    other = Campaign(
        name="chaos-tiny", scenario="chain_beacons", seed=5,
        base_params={"seconds": 5.0, "fault_plan": FaultPlan(
            name="other", specs=(
                FaultSpec(kind="node_crash", at=1.0, nodes=(2,)),))},
        grid={"nodes": [3, 4]}, repeats=1,
    )
    assert run_campaign(other, workers=1, cache=tmp_path).n_cached == 0


def test_chaos_scenario_reports_fault_observables():
    fast = Campaign(
        name="chaos-cell", scenario="chaos_chain", seed=3,
        base_params={"nodes": 4, "rounds": 2, "fault_plan": FaultPlan(
            name="mid-break", specs=(
                FaultSpec(kind="link_degrade", at=15.0, link=(2, 3),
                          loss_db=80.0),))},
    )
    out = run_campaign(fast, workers=1)
    assert out.failures == []
    run = out.runs[0]
    assert run.values["ping_received"] == 0      # path severed pre-command
    assert run.values["ping_rounds"] == 2
    assert not run.values["reached_target"]
    assert run.values["activations"] == {"link_degrade": 1}


@pytest.mark.slow
def test_sharded_chaos_campaign_matches_serial():
    serial = run_campaign(CHAOS, workers=1)
    sharded = run_campaign(CHAOS, workers=2, mp_context="spawn")
    assert sharded.digest() == serial.digest()
