"""802.15.4 O-QPSK link model: SINR → chip/bit error → packet reception.

We use the standard analytic model for the 2.4 GHz 802.15.4 PHY (O-QPSK
with 32-chip DSSS, 16-ary orthogonal signalling), as used by TOSSIM and
the classic link-layer modelling literature:

    BER(γ) = (8/15) · (1/16) · Σ_{k=2}^{16} (−1)^k · C(16,k) · exp(20·γ·(1/k − 1))

with γ the SINR as a linear ratio, and

    PRR(γ, L) = (1 − BER(γ))^(8·L)

for a frame of L bytes.  The alternating series is precomputed into a
coefficient vector so evaluating PRR over an array of SINRs is a single
vectorised numpy expression (hot path: the medium evaluates it per frame,
and benches sweep it over thousands of links).
"""

from __future__ import annotations

import numpy as np
from scipy.special import comb

__all__ = ["bit_error_rate", "packet_reception_ratio", "snr_db_for_prr"]

# Precomputed series terms: k = 2..16, coefficient (-1)^k * C(16, k),
# exponent factor 20 * (1/k - 1).
_K = np.arange(2, 17)
_COEFF = ((-1.0) ** _K) * comb(16, _K)
_EXPO = 20.0 * (1.0 / _K - 1.0)


def bit_error_rate(sinr_db: float | np.ndarray) -> float | np.ndarray:
    """Bit error rate for the 802.15.4 2.4 GHz PHY at ``sinr_db``.

    Vectorised over numpy arrays.  The analytic series is numerically
    benign: every exponent factor is negative, so terms vanish for high
    SINR and the result is clipped into [0, 0.5] to absorb rounding at
    very low SINR.
    """
    gamma = 10.0 ** (np.asarray(sinr_db, dtype=float) / 10.0)
    terms = _COEFF * np.exp(np.multiply.outer(gamma, _EXPO))
    ber = (8.0 / 15.0) * (1.0 / 16.0) * terms.sum(axis=-1)
    ber = np.clip(ber, 0.0, 0.5)
    return float(ber) if np.isscalar(sinr_db) else ber


def packet_reception_ratio(sinr_db: float | np.ndarray,
                           frame_bytes: int) -> float | np.ndarray:
    """Probability that a ``frame_bytes``-byte frame is received intact.

    Assumes independent bit errors across the frame (the standard
    simplification; adequate for reproducing loss-vs-SNR shape).
    """
    if frame_bytes <= 0:
        raise ValueError(f"frame length must be positive, got {frame_bytes}")
    ber = bit_error_rate(sinr_db)
    prr = (1.0 - np.asarray(ber)) ** (8.0 * frame_bytes)
    return float(prr) if np.isscalar(sinr_db) else prr


#: The SNR range (dB) :func:`snr_db_for_prr` bisects: from far below
#: the curve's foot to well above its knee.
SNR_SEARCH_DB = (-10.0, 20.0)


def snr_db_for_prr(target_prr: float, frame_bytes: int) -> float:
    """Invert the PRR curve: the SNR at which PRR reaches ``target_prr``.

    Bisection over the monotone PRR curve within :data:`SNR_SEARCH_DB`;
    used by topology planning to place nodes at a desired link quality
    (e.g. "build an 8-hop chain of ~95 % links").
    """
    if not 0.0 < target_prr < 1.0:
        raise ValueError(f"target PRR must be in (0, 1), got {target_prr}")
    lo, hi = SNR_SEARCH_DB
    if packet_reception_ratio(hi, frame_bytes) < target_prr:
        raise ValueError(f"target PRR unreachable below {hi:g} dB")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if packet_reception_ratio(mid, frame_bytes) < target_prr:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
