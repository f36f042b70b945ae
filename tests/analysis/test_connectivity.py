"""Tests for predicted-connectivity matrices and spacing planning."""

import numpy as np
import pytest

from repro.analysis.connectivity import (
    connected_pairs,
    max_clean_spacing,
    prr_matrix,
    received_power_matrix,
    snr_matrix,
)
from repro.kernel import Testbed
from repro.radio import power_level_to_dbm
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION


@pytest.fixture
def chain():
    return build_chain(4, spacing=60.0, seed=3,
                       propagation_kwargs=QUIET_PROPAGATION)


def test_rx_matrix_shape_and_diagonal(chain):
    rx = received_power_matrix(chain)
    assert rx.shape == (4, 4)
    assert np.isnan(np.diag(rx)).all()


def test_rx_matrix_symmetric_without_shadowing(chain):
    rx = received_power_matrix(chain)
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(rx[off], rx.T[off])


def test_rx_matrix_tracks_power_level(chain):
    high = received_power_matrix(chain, 31)
    low = received_power_matrix(chain, 10)
    off = ~np.eye(4, dtype=bool)
    expected = power_level_to_dbm(31) - power_level_to_dbm(10)
    assert np.allclose(high[off] - low[off], expected)


def test_rx_matrix_includes_directed_shadowing():
    tb = build_chain(3, spacing=60.0, seed=3,
                     propagation_kwargs=QUIET_PROPAGATION)
    tb.propagation.set_link_shadowing_db(1, 2, 20.0)
    rx = received_power_matrix(tb)
    assert rx[0, 1] == pytest.approx(rx[1, 0] - 20.0)


def test_prr_matrix_values(chain):
    prr = prr_matrix(chain, frame_bytes=50)
    # Adjacent 60 m links clean; 180 m links dead.
    assert prr[0, 1] > 0.95
    assert prr[0, 3] < 0.01
    off = ~np.isnan(prr)
    assert ((prr[off] >= 0) & (prr[off] <= 1)).all()


def test_prediction_matches_simulation(chain):
    """The predicted adjacent-link PRR agrees with observed beacon PRR."""
    chain.warm_up(120.0)
    predicted = prr_matrix(chain, frame_bytes=42)[0, 1]  # beacon-sized
    observed = chain.node(1).neighbors.lookup(2).prr_estimate
    assert observed == pytest.approx(predicted, abs=0.1)


def test_connected_pairs_lists_adjacent_links(chain):
    pairs = connected_pairs(chain, min_prr=0.9)
    assert (1, 2) in pairs and (2, 1) in pairs
    assert (1, 4) not in pairs


def test_snr_matrix_consistency(chain):
    assert np.nanmax(snr_matrix(chain) - received_power_matrix(chain)
                     ) == pytest.approx(98.0)


def test_max_clean_spacing_roundtrip():
    spacing = max_clean_spacing(0.95, frame_bytes=50)
    # Build a chain at that spacing: the adjacent link must meet ~0.95.
    tb = Testbed(seed=1, propagation_kwargs=QUIET_PROPAGATION)
    tb.add_node("a", (0.0, 0.0))
    tb.add_node("b", (spacing, 0.0))
    assert prr_matrix(tb, frame_bytes=50)[0, 1] == pytest.approx(
        0.95, abs=0.02)


def test_max_clean_spacing_shrinks_with_power():
    assert max_clean_spacing(0.95, power_level=10) < max_clean_spacing(
        0.95, power_level=31)


def test_max_clean_spacing_unreachable():
    with pytest.raises(ValueError):
        max_clean_spacing(0.9999999, power_level=3,
                          reference_loss_db=130.0)


def test_planning_does_not_perturb_the_world():
    """Predicting links before deploying (TUTORIAL §1) draws no
    shadowing, so the deployed run is byte-identical to one never
    planned."""
    from repro.core.deploy import deploy_liteview
    from repro.workloads import thirty_node_field

    def digest(plan_first):
        testbed = thirty_node_field(seed=3)
        if plan_first:
            prr_matrix(testbed)
            connected_pairs(testbed)
        deploy_liteview(testbed, warm_up=20.0)
        return testbed.monitor.packet_digest(), len(testbed.monitor.packets)

    assert digest(plan_first=True) == digest(plan_first=False)


def test_rx_matrix_uses_drawn_shadowing_and_draws_none():
    tb = build_chain(3, spacing=60.0, seed=3,
                     propagation_kwargs={"shadowing_sigma_db": 4.0,
                                         "fading_sigma_db": 0.0})
    drawn = tb.propagation.link_shadowing_db(1, 2)
    stream = tb.rng.stream("propagation.shadowing").bit_generator
    before = stream.state
    rx = received_power_matrix(tb)
    # 1->2 carries its drawn shadowing; 2->1 is undrawn, counts at the
    # 0 dB mean, and planning drew nothing for it.
    assert rx[0, 1] == pytest.approx(rx[1, 0] - drawn)
    assert tb.propagation.expected_shadowing_db(2, 1) == 0.0
    assert stream.state == before
