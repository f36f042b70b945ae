"""Unit tests for the propagation model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.radio import LogDistancePropagation, distance_matrix
from repro.sim import RngRegistry


def make_model(**kw):
    return LogDistancePropagation(RngRegistry(42), **kw)


def test_reference_loss_at_reference_distance():
    model = make_model(reference_loss_db=40.0, reference_distance_m=1.0)
    assert model.deterministic_loss_db(1.0) == 40.0


def test_loss_increases_with_distance():
    model = make_model()
    assert model.deterministic_loss_db(20.0) > model.deterministic_loss_db(5.0)


def test_exponent_controls_slope():
    """10x the distance adds 10*n dB."""
    model = make_model(exponent=3.0)
    d1 = model.deterministic_loss_db(2.0)
    d10 = model.deterministic_loss_db(20.0)
    assert d10 - d1 == pytest.approx(30.0)


def test_near_field_clamps_to_reference():
    model = make_model(reference_loss_db=40.0, reference_distance_m=1.0)
    assert model.deterministic_loss_db(0.01) == 40.0


@given(st.floats(0.1, 1000.0), st.floats(0.1, 1000.0))
def test_deterministic_loss_monotone(d1, d2):
    model = make_model()
    lo, hi = sorted((d1, d2))
    assert model.deterministic_loss_db(lo) <= model.deterministic_loss_db(hi)


def test_shadowing_is_static_per_link():
    model = make_model()
    first = model.link_shadowing_db(1, 2)
    assert model.link_shadowing_db(1, 2) == first


def test_shadowing_is_directional():
    """Forward and backward draws are independent — the source of the
    asymmetric links Figure 6 exhibits."""
    model = make_model(shadowing_sigma_db=6.0)
    forward = [model.link_shadowing_db(i, i + 100) for i in range(50)]
    backward = [model.link_shadowing_db(i + 100, i) for i in range(50)]
    assert any(abs(f - b) > 0.5 for f, b in zip(forward, backward))


def test_shadowing_reproducible_across_registries():
    a = LogDistancePropagation(RngRegistry(7))
    b = LogDistancePropagation(RngRegistry(7))
    assert a.link_shadowing_db(3, 4) == b.link_shadowing_db(3, 4)


def test_set_link_shadowing_overrides():
    model = make_model()
    model.set_link_shadowing_db(1, 2, 100.0)  # break the link
    assert model.link_shadowing_db(1, 2) == 100.0


def test_sample_loss_includes_fading_jitter():
    """Every packet draws its own fading, scattered at the model's sigma."""
    model = make_model(fading_sigma_db=2.0)
    draws = model.fading_row(2000)
    assert len(set(draws.tolist())) == len(draws)
    assert draws.std() == pytest.approx(2.0, rel=0.1)


def test_zero_fading_sample_is_deterministic():
    model = make_model(fading_sigma_db=0.0)
    mean = model.mean_received_power_dbm(0.0, 1, 2, 10.0)
    assert {mean - f for f in model.fading_row(5).tolist()} == {mean}


def test_received_power_decreases_with_lower_tx_power():
    model = make_model(fading_sigma_db=0.0)
    high = model.mean_received_power_dbm(0.0, 1, 2, 10.0)
    low = model.mean_received_power_dbm(-10.0, 1, 2, 10.0)
    assert high - low == pytest.approx(10.0)


def test_mean_received_power_has_no_fading():
    model = make_model(fading_sigma_db=5.0)
    values = {model.mean_received_power_dbm(0.0, 1, 2, 10.0)
              for _ in range(5)}
    assert len(values) == 1


def test_distance_matrix_shape_and_symmetry():
    positions = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    dm = distance_matrix(positions)
    assert dm.shape == (3, 3)
    assert np.allclose(dm, dm.T)
    assert np.allclose(np.diag(dm), 0.0)
    assert dm[0, 1] == pytest.approx(5.0)


def test_distance_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        distance_matrix(np.zeros((3, 3)))


def test_loss_matrix_matches_scalar_path():
    model = make_model()
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    lm = model.loss_matrix(positions)
    assert lm[0, 1] == pytest.approx(model.deterministic_loss_db(10.0))


@pytest.mark.parametrize("kw", [
    {"reference_distance_m": 0.0},
    {"exponent": -1.0},
    {"shadowing_sigma_db": -1.0},
    {"fading_sigma_db": -0.5},
])
def test_constructor_validation(kw):
    with pytest.raises(ValueError):
        make_model(**kw)
