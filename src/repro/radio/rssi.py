"""RSSI register model.

The CC2420 reports RSSI as a signed 8-bit register value averaged over the
first eight symbol periods (128 µs) of a frame; the RF input power is
``RSSI_VAL + RSSI_OFFSET`` with an offset of approximately −45 dBm.  The
paper reports raw register readings (e.g. ``RSSI = -20`` ≈ −65 dBm), so
LiteView results carry register values and this module converts both ways.
"""

from __future__ import annotations

from repro.radio.cc2420 import RSSI_OFFSET_DBM
from repro.sim.rng import RngRegistry

__all__ = ["RssiModel", "reading_to_dbm", "dbm_to_reading",
           "RSSI_NOISE_SIGMA_DB"]

#: Register value bounds (signed byte, further limited by the detector's
#: useful dynamic range per the datasheet).
_MIN_READING = -128
_MAX_READING = 127
#: Measurement noise of one reading (dB, one sigma).
RSSI_NOISE_SIGMA_DB = 1.0


def dbm_to_reading(power_dbm: float) -> int:
    """Exact register value for an RF input power (no measurement noise)."""
    value = round(float(power_dbm) - RSSI_OFFSET_DBM)
    if value < _MIN_READING:
        return _MIN_READING
    if value > _MAX_READING:
        return _MAX_READING
    return value


def reading_to_dbm(reading: int) -> float:
    """RF input power implied by a register reading."""
    return float(reading) + RSSI_OFFSET_DBM


class RssiModel:
    """Produces noisy, quantised RSSI register readings.

    The eight-symbol average leaves ~1 dB of measurement noise on real
    hardware (:data:`RSSI_NOISE_SIGMA_DB`); we model it as a Gaussian
    draw before quantisation.
    """

    def __init__(self, rng: RngRegistry):
        self._rng = rng.stream("radio.rssi")

    def reading(self, received_power_dbm: float) -> int:
        """One measured register value for a frame at this input power."""
        return dbm_to_reading(received_power_dbm + float(
            self._rng.normal(0.0, RSSI_NOISE_SIGMA_DB)))

    def readings(self, received_powers_dbm: list[float]) -> list[int]:
        """Register values for many frames, one batched noise draw.

        A numpy Generator fills an array from the same bitstream as
        repeated scalar draws, so this consumes exactly what ``len(...)``
        calls to :meth:`reading` would; a float64 sum is the same in
        Python as in numpy, and :func:`dbm_to_reading` runs inline, so
        the values match too.
        """
        n = len(received_powers_dbm)
        if n == 0:
            return []
        noise = self._rng.normal(0.0, RSSI_NOISE_SIGMA_DB, size=n).tolist()
        lo, hi, offset = _MIN_READING, _MAX_READING, RSSI_OFFSET_DBM
        return [lo if (v := round(p + d - offset)) < lo else hi if v > hi else v
                for p, d in zip(received_powers_dbm, noise)]
