"""Campaign expansion, the seed-derivation contract, and the checks
construction owns for every caller (API, CLI and ``POST /campaigns``)."""

import pytest

from repro.campaign import MAX_RUNS, Campaign, RunSpec, derive_seed

ECHO = "tests.campaign._pool_scenarios:echo_pid"


def test_grid_times_repeats_expansion_order():
    camp = Campaign(
        name="c", scenario="chain_beacons", seed=3,
        base_params={"seconds": 5.0},
        grid={"nodes": [3, 4], "spacing": [50.0, 60.0]}, repeats=2,
    )
    specs = camp.expand()
    assert len(specs) == len(camp) == 2 * 2 * 2
    # Cells iterate in sorted-parameter-name, given-value order; within a
    # cell, replicates count up.
    cells = [(s.params, s.replicate) for s in specs]
    assert cells[0] == ((("nodes", 3), ("seconds", 5.0), ("spacing", 50.0)), 0)
    assert cells[1] == ((("nodes", 3), ("seconds", 5.0), ("spacing", 50.0)), 1)
    assert cells[2] == ((("nodes", 3), ("seconds", 5.0), ("spacing", 60.0)), 0)
    assert specs[-1].params == (("nodes", 4), ("seconds", 5.0),
                                ("spacing", 60.0))


def test_seed_depends_only_on_identity_not_order():
    """The seed of a cell is the same whatever else the campaign sweeps —
    so shard order and worker count can never change any run's world."""
    small = Campaign(name="a", scenario=ECHO, seed=9, grid={"p": [1]},
                     repeats=1)
    large = Campaign(name="b", scenario=ECHO, seed=9,
                     grid={"p": [5, 3, 1, 2]}, repeats=4)
    seed_small = small.expand()[0].seed
    matching = [s for s in large.expand()
                if s.params == (("p", 1),) and s.replicate == 0]
    assert len(matching) == 1
    assert matching[0].seed == seed_small


def test_seed_components_all_matter():
    base = derive_seed(1, "s", {"p": 1}, 0)
    assert derive_seed(2, "s", {"p": 1}, 0) != base      # campaign seed
    assert derive_seed(1, "t", {"p": 1}, 0) != base      # scenario
    assert derive_seed(1, "s", {"p": 2}, 0) != base      # params
    assert derive_seed(1, "s", {"p": 1}, 1) != base      # replicate
    # Param *order* must not matter — the encoding is canonical.
    assert derive_seed(1, "s", {"a": 1, "b": 2}, 0) == \
        derive_seed(1, "s", {"b": 2, "a": 1}, 0)


def test_seed_values_pinned():
    """Regression-pin a few derived seeds: any change to the derivation
    breaks every cache entry and golden campaign fixture, so it must be
    deliberate."""
    assert derive_seed(0, "chain_beacons", {}, 0) == \
        2525379836886945390
    assert derive_seed(7, "chain_beacons", {"nodes": 3, "seconds": 10.0},
                       0) == 8966165095890916921
    assert derive_seed(7, "chain_beacons", {"nodes": 3, "seconds": 10.0},
                       1) == 563282250921262799


def test_seeds_are_valid_and_distinct():
    camp = Campaign(name="c", scenario=ECHO, seed=123,
                    grid={"x": list(range(8))}, repeats=8)
    seeds = [s.seed for s in camp.expand()]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < 2 ** 63 for s in seeds)


def test_base_and_grid_params_must_not_overlap():
    with pytest.raises(ValueError, match="both"):
        Campaign(name="c", scenario=ECHO, base_params={"x": 1},
                 grid={"x": [1, 2]})


def test_runspec_roundtrips_through_dict():
    spec = Campaign(name="c", scenario=ECHO, seed=2,
                    grid={"x": [1]}, repeats=1).expand()[0]
    assert RunSpec.from_dict(spec.to_dict()) == spec


# -- the checks construction owns ----------------------------------------------


@pytest.mark.parametrize("scenario", [
    "nope",                                    # not registered
    "sys:exit",                                # a callable, not a scenario
    "tests.campaign._pool_scenarios:os",       # not even a callable
    "no_such_module:cell",                     # nothing to import
    ":cell",
])
def test_scenario_must_be_a_registered_cell(scenario):
    with pytest.raises(ValueError, match="scenario"):
        Campaign(name="c", scenario=scenario)


def test_module_function_refs_resolve_to_registered_cells():
    # Registry name and module:function reference both name one cell.
    Campaign(name="c", scenario="repro.campaign.scenarios:chain_beacons")
    Campaign(name="c", scenario=ECHO)


@pytest.mark.parametrize("fields", [
    # An empty axis: len() would be 0, expand() one run with no axis.
    {"grid": {"nodes": [3], "seconds": []}},
    {"grid": {"nodes": "345"}},                # a string is no axis
    {"grid": {"nodes": 3}},
    {"grid": [3, 4]},
    {"base_params": [("nodes", 3)]},
    {"repeats": True},
    {"repeats": 0},
    {"repeats": 2.0},
    {"repeats": 10 ** 9},
    {"seed": 1.5},
    {"seed": False},
    {"name": None},
])
def test_malformed_campaign_is_a_value_error(fields):
    with pytest.raises(ValueError):
        Campaign(**{"name": "c", "scenario": "chain_beacons", **fields})


def test_run_count_bound_is_inclusive():
    assert len(Campaign(name="c", scenario=ECHO,
                        grid={"x": list(range(100))},
                        repeats=MAX_RUNS // 100)) == MAX_RUNS
    with pytest.raises(ValueError, match="at most"):
        Campaign(name="c", scenario=ECHO, grid={"x": list(range(100))},
                 repeats=MAX_RUNS // 100 + 1)


def test_plan_decoding_leaves_the_callers_parameters_alone():
    plan = {"specs": [{"kind": "node_crash", "at": 1.0, "nodes": [2]}]}
    base, grid = {"fault_plan": plan}, {"nodes": [3]}
    camp = Campaign(name="c", scenario="chain_beacons", base_params=base,
                    grid=grid)
    assert isinstance(camp.base_params["fault_plan"], str)
    assert base == {"fault_plan": plan}
    grid["spacing"] = [1.0]
    assert camp.cells() == [{"fault_plan": camp.base_params["fault_plan"],
                             "nodes": 3}]
