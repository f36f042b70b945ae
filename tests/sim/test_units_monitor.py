"""Unit tests for units arithmetic and the monitor."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.monitor import Monitor
from repro.units import (
    BYTE_AIRTIME,
    MS,
    US,
    dbm_sum,
    dbm_to_mw,
    mw_to_dbm,
    ms,
    to_ms,
    us,
)


def test_time_constants():
    assert ms(1) == MS == 1e-3
    assert us(1) == US == 1e-6
    assert to_ms(0.0047) == pytest.approx(4.7)
    assert BYTE_AIRTIME == pytest.approx(32e-6)


@given(st.floats(-120.0, 30.0))
def test_dbm_mw_roundtrip(dbm):
    assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-9)


def test_mw_to_dbm_clamps_nonpositive():
    assert mw_to_dbm(0.0) < -250
    assert mw_to_dbm(-5.0) < -250


def test_dbm_sum_doubles_equal_powers():
    """Two equal powers sum to +3 dB."""
    assert dbm_sum(-90.0, -90.0) == pytest.approx(-90.0 + 10 * math.log10(2))


def test_dbm_sum_dominated_by_strongest():
    assert dbm_sum(-50.0, -120.0) == pytest.approx(-50.0, abs=0.01)


def test_dbm_sum_empty_is_floor():
    assert dbm_sum() < -250


# -- monitor -----------------------------------------------------------------

def test_counters_default_zero():
    mon = Monitor()
    assert mon.counter("never") == 0
    mon.count("x", 3)
    mon.count("x")
    assert mon.counter("x") == 4


