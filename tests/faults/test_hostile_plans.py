"""Hostile plan input: every malformed plan is a ``PlanError``, up front.

Fault and mobility plans arrive from outside the program — HTTP bodies,
campaign parameters, CLI flags — and decode through one checked
boundary (:mod:`repro.plan`).  These tests pin each defect that
boundary closes (NaN and infinite numbers, strings posing as node
lists, truthy strings posing as bools, out-of-range channels,
fractional capacities, unknown keys, non-object plans, unbounded
motion, nodes the world lacks), the served fleet's 400s, and the one
fault injector per world that lets plans accumulate.
"""

import asyncio
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.faults import FAULT_KINDS, FaultPlan, install_faults
from repro.radio import MOBILITY_KINDS, MobilityPlan, install_mobility
from repro.radio.mobility import MAX_POSITION_UPDATES
from repro.serve import ServeApp, build_fleet
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION

from tests.serve.conftest import fetch_json

NAN, INF = float("nan"), float("inf")


def fault(**spec):
    return {"enabled": True, "specs": [spec]}


def drift(**overrides):
    spec = {"kind": "linear_drift", "at": 1.0, "duration": 4.0,
            "nodes": [2], "velocity": [5.0, 0.0]}
    spec.update(overrides)
    return {"enabled": True, "specs": [spec]}


def both_forms(plan):
    """The plan as a mapping and as the JSON text a client would send."""
    return [plan, json.dumps(plan)]


def assert_rejected(cls, plan):
    for form in both_forms(plan):
        with pytest.raises(PlanError):
            cls.from_param(form)


# -- one regression test per defect -------------------------------------------


@pytest.mark.parametrize("plan", [
    fault(kind="node_crash", at=NAN, nodes=[1]),
    fault(kind="node_crash", at=INF, nodes=[1]),
    fault(kind="link_degrade", link=[1, 2], loss_db=NAN),
    fault(kind="clock_drift", nodes=[1], drift=NAN),
])
def test_non_finite_fault_numbers_rejected(plan):
    assert_rejected(FaultPlan, plan)


@pytest.mark.parametrize("plan", [
    drift(velocity=[NAN, 0.0]),
    drift(duration=INF),
    drift(duration=NAN),
    drift(update_every=NAN),
    drift(update_every=INF),
    {"specs": [{"kind": "random_waypoint", "nodes": [2], "duration": INF,
                "area": [0, 0, 100, 100], "speed": [1, 2]}]},
])
def test_non_finite_mobility_numbers_rejected(plan):
    assert_rejected(MobilityPlan, plan)


def test_node_string_is_not_a_node_list():
    assert_rejected(FaultPlan, fault(kind="node_crash", nodes="12"))
    assert_rejected(MobilityPlan, drift(nodes="12"))


@pytest.mark.parametrize("plan", [
    {"enabled": "no", "specs": []},
    {"enabled": 0, "specs": []},
    {"enabled": 1, "specs": []},
    {"enabled": None, "specs": []},
    {"name": 7, "specs": []},
])
def test_enabled_must_be_a_bool_and_name_a_string(plan):
    assert_rejected(FaultPlan, plan)
    assert_rejected(MobilityPlan, plan)


@pytest.mark.parametrize("spec", [
    dict(kind="interference_burst", channel="abc", loss_db=30.0),
    dict(kind="interference_burst", channel=99, loss_db=30.0),
    dict(kind="interference_burst", channel=10, loss_db=30.0),
    dict(kind="interference_burst", channel=17.0, loss_db=30.0),
    dict(kind="interference_burst", channel=True, loss_db=30.0),
    dict(kind="queue_saturate", nodes=[1], capacity=1.5),
    dict(kind="queue_saturate", nodes=[1], capacity="2"),
    dict(kind="node_crash", nodes=[1.5]),
    dict(kind="node_crash", nodes=[True]),
    dict(kind="link_degrade", link=["1", 2], loss_db=10.0),
    dict(kind="link_degrade", link=[1, 2, 3], loss_db=10.0),
])
def test_integer_fields_take_only_integers(spec):
    assert_rejected(FaultPlan, fault(**spec))


def test_channel_bounds_are_the_radio_band():
    for channel in (11, 26):
        plan = FaultPlan.from_param(fault(kind="interference_burst",
                                          channel=channel, loss_db=3.0))
        assert plan.specs[0].channel == channel


@pytest.mark.parametrize("plan", [
    fault(kind="node_crash", nodes=[1], when=3.0),          # unknown key
    {"enabled": True, "specs": [], "spec": []},            # typo'd key
    {"specs": 5},
    {"specs": [{"at": 1.0, "nodes": [1]}]},                # no kind
    {"specs": [7]},
    [{"kind": "node_crash", "nodes": [1]}],                # JSON array
    "not json",
    5,
])
def test_malformed_shapes_rejected(plan):
    assert_rejected(FaultPlan, plan)
    assert_rejected(MobilityPlan, plan)


def test_plan_of_the_other_type_rejected():
    with pytest.raises(PlanError):
        MobilityPlan.from_param(FaultPlan())


# -- the bound on motion work ---------------------------------------------------


def test_long_drift_exceeds_the_update_bound():
    # One node for 1e6 s at the 1 s cadence: a million updates.
    assert_rejected(MobilityPlan, drift(duration=1e6))


def test_update_bound_counts_nodes_and_cadence():
    span = MAX_POSITION_UPDATES / 4
    MobilityPlan.from_param(drift(nodes=[1, 2, 3, 4], duration=span))
    assert_rejected(MobilityPlan, drift(nodes=[1, 2, 3, 4, 5],
                                        duration=span))
    assert_rejected(MobilityPlan, drift(nodes=[1, 2, 3, 4], duration=span,
                                        update_every=0.5))


def test_update_bound_covers_every_kind():
    tour = {"kind": "waypoint", "nodes": [1],
            "waypoints": [[MAX_POSITION_UPDATES * 2.0, 0.0, 0.0]]}
    assert_rejected(MobilityPlan, {"specs": [tour]})
    wander = {"kind": "random_waypoint", "nodes": [1, 2],
              "duration": MAX_POSITION_UPDATES * 1.0,
              "area": [0, 0, 100, 100], "speed": [1, 2]}
    assert_rejected(MobilityPlan, {"specs": [wander]})


# -- world scope at install -----------------------------------------------------


def chain4():
    return build_chain(4, spacing=60.0, seed=7,
                       propagation_kwargs=QUIET_PROPAGATION)


@pytest.mark.parametrize("spec", [
    dict(kind="node_crash", nodes=[999]),
    dict(kind="clock_drift", nodes=[2, 999], drift=0.02),
    dict(kind="link_degrade", link=[2, 999], loss_db=40.0),
    dict(kind="packet_corrupt", nodes=[999], probability=0.5),
])
def test_fault_naming_a_missing_node_schedules_nothing(spec):
    testbed = chain4()
    pending, streams = len(testbed.env._heap), testbed.rng.names()
    with pytest.raises(PlanError, match="999"):
        install_faults(testbed, fault(**spec))
    assert len(testbed.env._heap) == pending
    assert testbed.rng.names() == streams
    assert testbed.medium.faults is None


def test_mobility_naming_a_missing_node_schedules_nothing():
    testbed = chain4()
    pending, streams = len(testbed.env._heap), testbed.rng.names()
    with pytest.raises(PlanError, match="999"):
        install_mobility(testbed, drift(nodes=[999]))
    assert len(testbed.env._heap) == pending
    assert testbed.rng.names() == streams


@pytest.mark.parametrize("duration", [0.01, 1000.0])
def test_random_waypoint_legs_stop_at_the_node_share(duration):
    """Every leg yields an update however short it is: a 1 mm area
    crossed at 1000 m/s packs some 19k legs into 0.01 s, which the bound
    counts as 0.01 updates, and 1000 s of it would be some 2e9.  No leg
    is drawn once the node holds its share of the bound, so the spec
    activates and plays out in bounded time, within the bound."""
    testbed = chain4()
    driver = install_mobility(testbed, {"specs": [{
        "kind": "random_waypoint", "at": 1.0, "duration": duration,
        "nodes": [1], "area": [0, 0, 0.001, 0.001], "speed": [1000, 1000],
    }]})
    testbed.run(until=2.0)  # every leg is microseconds long
    assert driver.activations == {"random_waypoint": 1}
    assert 0 < driver.updates[1] <= MAX_POSITION_UPDATES


# -- one injector per world -------------------------------------------------------


NOISY = fault(kind="interference_burst", channel=17, loss_db=30.0)
CORRUPT = fault(kind="packet_corrupt", probability=0.5)
DEGRADE = fault(kind="link_degrade", link=[2, 3], loss_db=80.0)


def test_plans_on_one_world_accumulate():
    testbed = chain4()
    first = install_faults(testbed, NOISY)
    assert install_faults(testbed, CORRUPT) is first
    assert install_faults(testbed, DEGRADE) is first
    assert testbed.medium.faults is first
    testbed.run(until=1.0)
    assert first.noise_offset_dbm(17) == 30.0
    assert first.corrupt_active
    assert testbed.propagation.link_penalty_db(2, 3) == 80.0
    assert first.activations == {"interference_burst": 1,
                                 "packet_corrupt": 1, "link_degrade": 1}
    assert len(first.plans) == 3


# -- the served fleet -------------------------------------------------------------


def make_app():
    fleet = build_fleet("chain:4", seed=7, assess_every=20.0, warm_up=10.0)
    return ServeApp([fleet]), fleet


def test_served_fleet_answers_400_to_hostile_plans():
    bodies = [
        fault(kind="link_degrade", link=[2, 3], loss_db=NAN),
        [{"kind": "link_degrade", "link": [2, 3], "loss_db": 80.0}],
        fault(kind="interference_burst", channel="abc", loss_db=30.0),
        fault(kind="node_crash", nodes=[999]),
    ]

    async def main():
        app, fleet = make_app()
        await app.start(auto_tick=False)
        try:
            for body in bodies:
                status, reply = await fetch_json(
                    app.port, f"/fleets/{fleet.name}/faults", "POST", body)
                assert status == 400, (body, reply)
                assert "invalid fault plan" in reply["error"]
            fleet.advance(5.0)  # the fleet keeps ticking, uninjured
            status, audit = await fetch_json(
                app.port, f"/fleets/{fleet.name}/faults")
            assert audit["plans"] == []
            assert fleet.testbed.medium.faults is None
        finally:
            await app.stop()

    asyncio.run(main())


def test_second_served_plan_keeps_the_first_plans_hooks():
    async def main():
        app, fleet = make_app()
        await app.start(auto_tick=False)
        try:
            first = {"enabled": True, "specs": [
                NOISY["specs"][0], CORRUPT["specs"][0]]}
            for body in (first, DEGRADE):
                status, reply = await fetch_json(
                    app.port, f"/fleets/{fleet.name}/faults", "POST", body)
                assert status == 202, reply
                fleet.advance(5.0)
            injector = fleet.testbed.medium.faults
            assert injector.noise_offset_dbm(17) == 30.0
            assert injector.corrupt_active
            assert len(fleet.injected_plans) == 2
        finally:
            await app.stop()

    asyncio.run(main())


def test_campaign_decodes_its_fault_plan_once():
    from repro.campaign import Campaign

    for bad in ("[1]", {"specs": 7}, fault(kind="node_crash", nodes=[1],
                                            when=3.0)):
        with pytest.raises(PlanError, match="base_params.fault_plan"):
            Campaign(name="c", scenario="chain_beacons",
                     base_params={"fault_plan": bad})
        with pytest.raises(PlanError, match="mobility_plan"):
            Campaign(name="c", scenario="mobile_city_survey",
                     grid={"mobility_plan": [None, bad]})
    plan = FaultPlan.from_param(DEGRADE)
    for form in (plan, DEGRADE, plan.to_param()):
        campaign = Campaign(name="c", scenario="chain_beacons",
                            base_params={"fault_plan": form},
                            grid={"nodes": [3, 4]})
        assert campaign.base_params["fault_plan"] == plan.to_param()
        assert [cell["fault_plan"] for cell in campaign.cells()] == [
            plan.to_param()] * 2
        swept = Campaign(name="c", scenario="chain_beacons",
                         grid={"fault_plan": [None, form]})
        assert [cell["fault_plan"] for cell in swept.cells()] == [
            None, plan.to_param()]


def test_campaign_with_a_malformed_fault_plan_answers_400():
    base = {"scenario": "chain_beacons", "seed": 9, "workers": 1,
            "base_params": {"seconds": 5.0, "nodes": 3}}
    plans = [
        fault(kind="node_crash", nodes=[1], when=3.0),
        [{"kind": "node_crash", "nodes": [1]}],
        {"specs": 7},
    ]

    async def main():
        app, _ = make_app()
        await app.start(auto_tick=False)
        try:
            for plan in plans:
                body = dict(base, base_params=dict(base["base_params"],
                                                   fault_plan=plan))
                status, reply = await fetch_json(
                    app.port, "/campaigns", "POST", body)
                assert status == 400, (plan, reply)
                assert "base_params.fault_plan" in reply["error"], reply
            assert app.campaigns == {}
        finally:
            await app.stop()

    asyncio.run(main())


# -- property: hostile JSON decodes to a plan or a PlanError, nothing else -------

_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=5))
_json = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)

# Hostile inputs that reach deep into decoding start from objects that
# would decode (every field any kind needs, each valid), then mutate:
# override a few keys (real field names or junk) with arbitrary JSON and
# drop a few.  A third of the draws keep their object intact.
_small = st.integers(1, 3)
_at = st.floats(0.0, 50.0)
_FAULT_FIELDS = {
    "kind": st.sampled_from(FAULT_KINDS), "at": _at,
    "duration": st.none() | st.floats(0.1, 20.0),
    "nodes": st.lists(_small, min_size=1, max_size=3),
    "link": st.lists(_small, min_size=2, max_size=2),
    "channel": st.integers(11, 26), "loss_db": st.floats(0.5, 80.0),
    "ramp_s": st.floats(0.0, 10.0), "probability": st.floats(0.01, 1.0),
    "capacity": st.integers(1, 8), "drift": st.floats(-0.5, 1.0),
    "directed": st.booleans(),
}
_offsets = st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3).map(
    lambda gaps: [sum(gaps[:i + 1]) for i in range(len(gaps))])
_MOBILITY_FIELDS = {
    "kind": st.sampled_from(MOBILITY_KINDS), "at": _at,
    "duration": st.floats(0.5, 100.0),
    "nodes": st.lists(_small, min_size=1, max_size=3),
    "velocity": st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2),
    "waypoints": _offsets.map(lambda ts: [[t, 3.0 * t, -t] for t in ts]),
    "area": st.just([0.0, 0.0, 200.0, 150.0]),
    "speed": st.floats(0.1, 5.0).map(lambda lo: [lo, lo * 2.0]),
    "pause_s": st.floats(0.0, 5.0), "update_every": st.floats(0.1, 5.0),
}
_JUNK_KEYS = ["junk", "", "Kind"]


def _mutate(objects, keys):
    keys = st.sampled_from(sorted(keys) + _JUNK_KEYS)
    return st.tuples(
        objects, st.dictionaries(keys, _json, max_size=2),
        st.sets(keys, max_size=2), st.integers(0, 2),
    ).map(lambda t: t[0] if t[3] == 0 else {
        k: v for k, v in {**t[0], **t[1]}.items() if k not in t[2]})


def _plan(fields):
    spec = _mutate(st.fixed_dictionaries(fields), fields)
    return _mutate(st.fixed_dictionaries({
        "name": st.text(max_size=4), "enabled": st.booleans(),
        "specs": st.lists(spec, min_size=1, max_size=3)}),
        ["name", "enabled", "specs"])


hostile = st.one_of(_plan(_FAULT_FIELDS), _plan(_MOBILITY_FIELDS), _json)


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=hostile)
def test_hostile_json_decodes_to_a_plan_or_a_plan_error(value):
    for cls in (FaultPlan, MobilityPlan):
        for form in both_forms(value):
            try:
                plan = cls.from_param(form)
            except PlanError:
                continue
            encoded = plan.to_param()
            assert cls.from_param(encoded) == plan
            assert cls.from_param(encoded).to_param() == encoded
            assert all(math.isfinite(n)
                       for n in _numbers(json.loads(encoded)))
