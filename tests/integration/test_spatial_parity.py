"""The spatially-indexed medium against the dense scalar reference scan.

The spatial index, the cached and patched loss rows and the batched
draws are pure optimisations of one model: they may only skip radios
beyond the cut-off rule's range bound, and must consume every stream in
the sorted-id order a per-receiver loop uses.  These tests run full
LiteView testbeds twice — once on production's
:class:`~repro.radio.medium.RadioMedium`, once on the test-only
:class:`~tests.radio.reference_medium.ReferenceMedium`, which walks
every attached radio densely with one scalar draw per receiver — and
hold the two to the same packet digest, clock and every counter, with
no exception: on the paper's 30- and 100-node fields (where nothing is
prunable), on a district city where pruning is active, on that city
with nodes in motion, under a fault plan, and on the paper's quiet
8-hop chain, where the cut-off sits closest to the noise floor.
"""

from unittest import mock

import pytest

import repro.kernel.testbed
from repro.core.deploy import deploy_liteview
from repro.radio import RadioMedium
from repro.workloads import (
    build_city,
    eight_hop_chain,
    hundred_node_field,
    thirty_node_field,
)
from repro.workloads.scenarios import QUIET_PROPAGATION, REALISTIC_PROPAGATION
from repro.workloads.topologies import build_chain
from tests.radio.reference_medium import ReferenceMedium


def _run(factory, medium_cls, warm_up: float = 30.0):
    with mock.patch.object(repro.kernel.testbed, "RadioMedium", medium_cls):
        testbed = factory()
    deploy_liteview(testbed, warm_up=warm_up)
    return testbed


def _assert_parity(factory, warm_up: float = 30.0):
    dense = _run(factory, ReferenceMedium, warm_up)
    indexed = _run(factory, RadioMedium, warm_up)
    assert isinstance(dense.medium, ReferenceMedium)
    assert dense.monitor.packet_digest() == indexed.monitor.packet_digest()
    assert dense.monitor.counters == indexed.monitor.counters
    assert dense.env.now.hex() == indexed.env.now.hex()
    return indexed


@pytest.mark.parametrize("factory", [
    pytest.param(lambda: thirty_node_field(seed=4), id="thirty"),
    pytest.param(lambda: hundred_node_field(seed=4), id="hundred"),
])
def test_indexed_matches_dense_on_paper_fields(factory):
    indexed = _assert_parity(factory)
    # A compact field sits entirely inside the conservative range
    # bound, so the index prunes nothing — parity is exact, not vacuous.
    assert indexed.medium.candidates_pruned == 0


def test_indexed_matches_dense_with_pruning_active():
    def factory():
        return build_city(2, 2, 6, pitch=1500.0, seed=9,
                          propagation_kwargs=QUIET_PROPAGATION)

    indexed = _assert_parity(factory)
    # The districts sit beyond radio range of each other, so here the
    # index genuinely skipped receivers — and still changed nothing.
    assert indexed.medium.candidates_pruned > 0


def test_mobile_run_indexed_matches_dense_with_pruning_active():
    """Continuous motion — patrol nodes drifting across a pruning-active
    city, crossing district gaps — stays byte-identical to the dense
    scalar scan through the pending-mover patches."""
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

    indexed = _assert_parity(factory)
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


def test_fault_plan_run_indexed_matches_dense():
    """The medium's fault hooks: a degraded link, a noise burst,
    receiver-side corruption and a crash bite the same frames on both."""
    from repro.faults import FaultPlan, FaultSpec, install_faults

    plan = FaultPlan(name="parity-chaos", specs=(
        FaultSpec(kind="link_degrade", at=3.0, duration=10.0, link=(2, 3),
                  loss_db=25.0),
        FaultSpec(kind="interference_burst", at=5.0, duration=4.0,
                  channel=17, loss_db=20.0),
        FaultSpec(kind="packet_corrupt", at=8.0, duration=6.0,
                  probability=0.4),
        FaultSpec(kind="node_crash", at=12.0, nodes=(4,)),
    ))

    def factory():
        testbed = build_chain(5, spacing=60.0, seed=7,
                              propagation_kwargs=REALISTIC_PROPAGATION)
        install_faults(testbed, plan)
        return testbed

    indexed = _assert_parity(factory, warm_up=20.0)
    assert indexed.monitor.counter("faults.activations") == 4
    assert indexed.monitor.counter("medium.corrupted_frames") > 0


def test_quiet_chain_keeps_near_noise_interference():
    """The F5–F7 testbed: with no shadowing or fading the margin floor,
    not the sigma margin, sets the cut-off, so a transmitter just past
    sensitivity range still adds its near-noise energy to a neighbor's
    SINR.  The LQI mean is the one an unpruned scan of every radio
    gives; a cut-off at the sensitivity distance read 104.7114."""
    indexed = _assert_parity(lambda: eight_hop_chain(seed=1), warm_up=60.0)
    assert indexed.medium.candidates_pruned > 0
    lqi = indexed.monitor.histogram("radio.lqi")
    assert lqi.count == 544
    assert round(lqi.mean, 4) == 104.6967


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
