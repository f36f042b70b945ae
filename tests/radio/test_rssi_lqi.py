"""Unit tests for the RSSI and LQI observable models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import (
    LQI_MAX,
    LQI_MIN,
    LqiModel,
    RssiModel,
    dbm_to_reading,
    lqi_from_sinr,
    reading_to_dbm,
)
from repro.sim import RngRegistry


def test_paper_calibration_point():
    """'a RSSI reading of -20 indicates ... approximately -65dBm'."""
    assert dbm_to_reading(-65.0) == -20
    assert reading_to_dbm(-20) == -65.0


@given(st.integers(-100, 50))
def test_rssi_roundtrip(reading):
    assert dbm_to_reading(reading_to_dbm(reading)) == reading


def test_rssi_reading_tracks_power():
    """Readings scatter around the noise-free register value."""
    model = RssiModel(RngRegistry(1))
    for power, exact in ((-65.0, -20), (-55.0, -10)):
        assert dbm_to_reading(power) == exact
        readings = [model.reading(power) for _ in range(400)]
        assert sum(readings) / len(readings) == pytest.approx(exact, abs=0.2)


def test_rssi_noise_produces_spread():
    model = RssiModel(RngRegistry(1))
    readings = {model.reading(-65.0) for _ in range(50)}
    assert len(readings) > 1
    assert all(abs(r - (-20)) < 12 for r in readings)


def test_lqi_saturates_high():
    assert lqi_from_sinr(30.0) == pytest.approx(LQI_MAX, abs=1.0)


def test_lqi_bottoms_out_low():
    assert lqi_from_sinr(-20.0) == pytest.approx(LQI_MIN, abs=1.0)


@given(st.floats(-30.0, 40.0), st.floats(-30.0, 40.0))
def test_lqi_monotone_in_sinr(a, b):
    lo, hi = sorted((a, b))
    assert lqi_from_sinr(lo) <= lqi_from_sinr(hi) + 1e-9


def test_lqi_model_bounds():
    model = LqiModel(RngRegistry(2))
    for sinr in (-30.0, 0.0, 4.0, 10.0, 40.0):
        for _ in range(20):
            assert LQI_MIN <= model.reading(sinr) <= LQI_MAX


def test_good_links_report_lqi_near_paper_values():
    """The paper's sample outputs show LQI 103..108 on working links."""
    model = LqiModel(RngRegistry(3))
    readings = [model.reading(15.0) for _ in range(20)]
    assert all(r >= 100 for r in readings)


# -- batched readings == scalar readings ---------------------------------------

def _lqi_tie_sinrs():
    """SINRs whose noise-free LQI is exactly ``k + 0.5``: ``round``'s ties.

    The sigmoid's fraction is 1/8 or 7/8 when ``exp`` returns exactly 7
    or 1/7, which some double near ``-/+2 ln 7`` gives.
    """
    found = []
    for target in (-2.0 * math.log(7.0), 2.0 * math.log(7.0)):
        s = target
        for _ in range(64):
            value = lqi_from_sinr(s)
            if value % 1.0 == 0.5:
                found.append(s)
                break
            s = math.nextafter(s, math.inf)
    return found


RSSI_EXTREMES = [-400.0, -173.0, -172.5, -172.4, 81.5, 82.0, 82.5, 300.0]
RSSI_TIES = [-65.5, -64.5, -45.5, -44.5, -100.5]
LQI_EXTREMES = [-60.0, -20.0, 0.0, 12.0, 60.0]

powers = st.lists(
    st.floats(-130.0, 10.0) | st.sampled_from(RSSI_EXTREMES + RSSI_TIES),
    max_size=30)
sinrs = st.lists(
    st.floats(-30.0, 40.0) | st.sampled_from(LQI_EXTREMES + _lqi_tie_sinrs()),
    max_size=30)
PARITY = settings(max_examples=200, deadline=None, derandomize=True)


@PARITY
@given(powers, st.integers(0, 2**32))
def test_rssi_readings_match_scalar_readings(xs, seed):
    batched = RssiModel(RngRegistry(seed))
    scalar = RssiModel(RngRegistry(seed))
    assert batched.readings(xs) == [scalar.reading(x) for x in xs]
    # ... and the two consumed the stream alike.
    assert batched.readings([-70.0]) == [scalar.reading(-70.0)]


@PARITY
@given(sinrs, st.integers(0, 2**32))
def test_lqi_readings_match_scalar_readings(xs, seed):
    batched = LqiModel(RngRegistry(seed))
    scalar = LqiModel(RngRegistry(seed))
    assert batched.readings(xs) == [scalar.reading(x) for x in xs]
    assert batched.readings([3.0]) == [scalar.reading(3.0)]


def test_noise_free_readings_hit_the_clamps_and_ties():
    ties = _lqi_tie_sinrs()
    assert [lqi_from_sinr(s) for s in ties] == [57.5, 102.5]
    assert [dbm_to_reading(p) for p in (-400.0, 300.0, -65.5, -64.5)] == [
        -128, 127, -20, -20]
    assert [round(lqi_from_sinr(s)) for s in (-60.0, 60.0, *ties)] == [
        50, 110, 58, 102]
