"""Dense vs spatially-indexed candidate enumeration: byte-identical.

The spatial index is a pure pruning optimisation: it may only remove
receivers that could never pass the sensitivity check, and it must
enumerate the survivors in the same sorted-id order the dense path
uses (candidate order feeds RNG draw order).  These tests hold the
indexed medium to *byte-identical* packet digests and counter
snapshots against the dense path — on the paper's 30- and 100-node
fields (where nothing is prunable) and on a district scenario where
pruning is actually active.
"""

import pytest

from repro.core.deploy import deploy_liteview
from repro.workloads import build_city, hundred_node_field, thirty_node_field
from repro.workloads.scenarios import QUIET_PROPAGATION


def _run(factory, use_spatial_index: bool, warm_up: float = 30.0):
    testbed = factory()
    testbed.medium.use_spatial_index = use_spatial_index
    deploy_liteview(testbed, warm_up=warm_up)
    return testbed


@pytest.mark.parametrize("factory", [
    pytest.param(lambda: thirty_node_field(seed=4), id="thirty"),
    pytest.param(lambda: hundred_node_field(seed=4), id="hundred"),
])
def test_indexed_matches_dense_on_paper_fields(factory):
    dense = _run(factory, False)
    indexed = _run(factory, True)
    assert dense.monitor.packet_digest() == indexed.monitor.packet_digest()
    assert dense.monitor.counters == indexed.monitor.counters
    assert abs(dense.env.now - indexed.env.now) == 0.0
    # A compact field sits entirely inside the conservative range
    # bound, so the index prunes nothing — parity is exact, not vacuous.
    assert indexed.medium.candidates_pruned == 0


def test_indexed_matches_dense_with_pruning_active():
    def factory():
        return build_city(2, 2, 6, pitch=1500.0, seed=9,
                          propagation_kwargs=QUIET_PROPAGATION)

    dense = _run(factory, False)
    indexed = _run(factory, True)
    assert dense.monitor.packet_digest() == indexed.monitor.packet_digest()
    # The dense path books femtowatt "interference" between districts
    # that can never hear each other (every node is a candidate, so a
    # concurrent far-district frame adds ~1e-20 mW to the noise sum and
    # bumps the counter); the indexed path never enumerates those
    # receivers at all.  Every delivery-relevant observable — packet
    # digest above, every other counter here — must still match.
    dense_counters = dict(dense.monitor.counters)
    indexed_counters = dict(indexed.monitor.counters)
    assert dense_counters.pop("medium.interfered_receptions", 0) >= \
        indexed_counters.pop("medium.interfered_receptions", 0)
    assert dense_counters == indexed_counters
    # The districts sit beyond radio range of each other, so here the
    # index genuinely skipped receivers — and still changed nothing.
    assert indexed.medium.candidates_pruned > 0
    assert dense.medium.candidates_pruned == 0


def test_mobile_run_indexed_matches_dense_with_pruning_active():
    """The per-node-epoch refactor's acceptance proof: a run with
    continuous motion — patrol nodes drifting across a pruning-active
    city, crossing district gaps — is byte-identical between the
    incremental spatial path and the dense path."""
    from repro.radio import MobilityPlan, MobilitySpec, install_mobility

    plan = MobilityPlan(name="parity-patrol", specs=(
        # One node drifts from district (0,0) toward district (1,0),
        # crossing the inter-district gap (membership churn both sides).
        MobilitySpec(kind="linear_drift", at=5.0, duration=20.0,
                     nodes=(3,), velocity=(70.0, 0.0),
                     update_every=0.5),
        # Another wanders stochastically inside its own district.
        MobilitySpec(kind="random_waypoint", at=2.0, duration=25.0,
                     nodes=(8,), area=(1500.0, 0.0, 1800.0, 300.0),
                     speed=(2.0, 6.0)),
    ))

    def factory():
        testbed = build_city(2, 2, 6, pitch=1500.0, seed=9,
                             propagation_kwargs=QUIET_PROPAGATION)
        install_mobility(testbed, plan)
        return testbed

    dense = _run(factory, False)
    indexed = _run(factory, True)
    assert dense.monitor.packet_digest() == indexed.monitor.packet_digest()
    dense_counters = dict(dense.monitor.counters)
    indexed_counters = dict(indexed.monitor.counters)
    # Same femtowatt-interference caveat as the static pruning test.
    assert dense_counters.pop("medium.interfered_receptions", 0) >= \
        indexed_counters.pop("medium.interfered_receptions", 0)
    assert dense_counters == indexed_counters
    # Not vacuous: nodes really moved, pruning really ran, and the
    # moves really took the incremental path (pending-mover patches),
    # not a global invalidation.
    assert indexed.monitor.counter("mobility.updates") > 50
    assert indexed.monitor.counter("medium.repositions") > 50
    assert indexed.medium.candidates_pruned > 0
    registry = indexed.monitor.registry
    rebuilds = registry.gauge("medium.idx.rebuilds").value
    assert 0 < rebuilds < indexed.monitor.counter("medium.repositions") * \
        len(indexed.nodes())
    assert registry.gauge("medium.idx.patched").value > 0


def test_candidate_gauges_and_stats_view():
    testbed = build_city(2, 1, 6, pitch=1500.0, seed=9,
                         propagation_kwargs=QUIET_PROPAGATION)
    deployment = deploy_liteview(testbed, warm_up=20.0)
    medium = testbed.medium
    total = medium.candidates_considered + medium.candidates_pruned
    assert total > 0
    # >50% pruned even on this tiny two-district city (each sender sees
    # only its own district, i.e. at most ~half the radios).
    assert medium.candidates_pruned / total > 0.5
    registry = testbed.monitor.registry
    assert registry.gauge("medium.candidates.considered").value == \
        medium.candidates_considered
    assert registry.gauge("medium.candidates.pruned").value == \
        medium.candidates_pruned
    # The shell's `stats medium.` view renders both gauges.
    deployment.login("192.168.0.1")
    view = deployment.run("stats medium.")
    assert "medium.candidates.considered" in view
    assert "medium.candidates.pruned" in view
