"""LQI (Link Quality Indicator) model.

Per 802.15.4 and the CC2420 implementation the paper describes, LQI is
derived from the average chip correlation of the first eight symbols after
the SFD: roughly 110 for the cleanest receivable frames down to about 50
at the decode limit.  Unlike RSSI, LQI responds to *signal quality* (i.e.
SINR), not raw strength — a strong frame hit by interference reports a low
LQI but a high RSSI.  We therefore map SINR through a saturating curve
fitted to the empirical CC2420 correlator behaviour.
"""

from __future__ import annotations

import math

from repro.sim.rng import RngRegistry

__all__ = ["LQI_MIN", "LQI_MAX", "LqiModel", "lqi_from_sinr",
           "LQI_NOISE_SIGMA"]

#: Correlator bounds the paper quotes: "around 110 indicates the highest
#: quality while a value of 50 the lowest".
LQI_MIN = 50
LQI_MAX = 110

#: Sigmoid fit: LQI transitions between the bounds around the PRR
#: waterfall (−3..+1 dB for this link model), saturating above ~12 dB —
#: so frames that barely decode report LQI in the 60s-80s and clean links
#: report the paper's 103-110 range.
_MIDPOINT_DB = 0.0
_SLOPE = 0.5
#: Correlator noise of one reading (LQI units, one sigma).
LQI_NOISE_SIGMA = 1.5


def lqi_from_sinr(sinr_db: float) -> float:
    """Noise-free expected LQI at a given SINR (continuous value)."""
    frac = 1.0 / (1.0 + math.exp(-_SLOPE * (sinr_db - _MIDPOINT_DB)))
    return LQI_MIN + (LQI_MAX - LQI_MIN) * frac


class LqiModel:
    """Produces noisy integer LQI values in [LQI_MIN, LQI_MAX]."""

    def __init__(self, rng: RngRegistry):
        self._rng = rng.stream("radio.lqi")

    def reading(self, sinr_db: float) -> int:
        """One measured LQI value for a frame received at ``sinr_db``."""
        value = lqi_from_sinr(sinr_db) + float(
            self._rng.normal(0.0, LQI_NOISE_SIGMA))
        return int(min(LQI_MAX, max(LQI_MIN, round(value))))

    def readings(self, sinrs_db: list[float]) -> list[int]:
        """LQI values for many frames, one batched noise draw.

        Stream-equivalent to ``len(sinrs_db)`` scalar :meth:`reading`
        calls (a Generator fills arrays from the same bitstream), and
        :func:`lqi_from_sinr` runs inline — ``math.exp`` per element, the
        same operands in the same order — so the values match the scalar
        path bit-for-bit.
        """
        n = len(sinrs_db)
        if n == 0:
            return []
        noise = self._rng.normal(0.0, LQI_NOISE_SIGMA, size=n).tolist()
        exp, lo, hi = math.exp, LQI_MIN, LQI_MAX
        span, k, mid = LQI_MAX - LQI_MIN, -_SLOPE, _MIDPOINT_DB
        return [lo if (v := round(lo + span * (1.0 / (1.0 + exp(k * (s - mid))))
                                  + d)) < lo
                else hi if v > hi else v
                for s, d in zip(sinrs_db, noise)]
