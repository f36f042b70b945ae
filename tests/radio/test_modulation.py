"""Unit and property tests for the 802.15.4 link model."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import bit_error_rate, packet_reception_ratio, snr_db_for_prr
from repro.radio import modulation


def test_series_coefficients_equal_scipys():
    """The BER series' coefficients, built from ``math.comb``, equal bit
    for bit the ones SciPy's ``comb`` gave, which every golden run was
    recorded with.  SciPy is imported here only: the simulator never
    loads it."""
    from scipy.special import comb

    k = np.arange(2, 17)
    assert np.array_equal(modulation._COEFF, ((-1.0) ** k) * comb(16, k))
    assert modulation._COEFF.dtype == np.float64


def test_bit_success_table_digest():
    """The reception kernel's bit-success table, byte for byte, as the
    golden runs were recorded with on this platform's numpy and libm (a
    same-host companion to the exact coefficient check above)."""
    assert hashlib.sha256(modulation._BIT_OK.tobytes()).hexdigest() == (
        "2a4775f63912d2c5515f5100b691d20340cbaa684e2cc2a23abb85c10e2c031a")


def test_high_snr_is_nearly_error_free():
    assert bit_error_rate(20.0) < 1e-9
    assert packet_reception_ratio(20.0, 64) > 0.999


def test_low_snr_is_hopeless():
    assert packet_reception_ratio(-10.0, 64) < 0.01


def test_ber_bounds():
    for snr in (-30.0, -5.0, 0.0, 5.0, 30.0):
        assert 0.0 <= bit_error_rate(snr) <= 0.5


@given(st.floats(-20.0, 30.0), st.floats(-20.0, 30.0))
def test_ber_monotone_decreasing(a, b):
    lo, hi = sorted((a, b))
    assert bit_error_rate(hi) <= bit_error_rate(lo) + 1e-12


@given(st.floats(-20.0, 30.0))
def test_prr_is_probability(snr):
    prr = packet_reception_ratio(snr, 32)
    assert 0.0 <= prr <= 1.0


@given(st.floats(-20.0, 30.0), st.integers(1, 120))
def test_longer_frames_are_harder(snr, length):
    shorter = packet_reception_ratio(snr, length)
    longer = packet_reception_ratio(snr, length + 10)
    assert longer <= shorter + 1e-12


def test_waterfall_region_location():
    """The DSSS PRR waterfall sits in roughly -3..+1 dB (processing gain
    lets 802.15.4 decode near the noise floor)."""
    assert packet_reception_ratio(-4.0, 50) < 0.01
    assert packet_reception_ratio(1.0, 50) > 0.99
    # The 50% crossing lies between -2 and 0 dB.
    assert packet_reception_ratio(-2.0, 50) < 0.5 < packet_reception_ratio(0.0, 50)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(-20.0, 12.0), min_size=1, max_size=40),
       st.integers(1, 127))
def test_vectorised_matches_scalar(snrs, length):
    """A scalar SINR gets exactly its element of the batch: the scalar
    reference medium and the production medium share one curve."""
    prr = packet_reception_ratio(np.array(snrs), length)
    ber = bit_error_rate(np.array(snrs))
    for i, snr in enumerate(snrs):
        assert packet_reception_ratio(snr, length) == prr[i]
        assert bit_error_rate(snr) == ber[i]


def test_vectorised_ber_shape():
    snrs = np.linspace(-10, 20, 101)
    assert bit_error_rate(snrs).shape == (101,)


def test_prr_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        packet_reception_ratio(5.0, 0)


def test_snr_for_prr_inverts_the_curve():
    snr = snr_db_for_prr(0.95, 64)
    assert packet_reception_ratio(snr, 64) == pytest.approx(0.95, abs=0.01)


def test_snr_for_prr_higher_target_needs_more_snr():
    assert snr_db_for_prr(0.99, 64) > snr_db_for_prr(0.5, 64)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
def test_snr_for_prr_rejects_bad_target(bad):
    with pytest.raises(ValueError):
        snr_db_for_prr(bad, 64)
