"""802.15.4 O-QPSK link model: SINR → chip/bit error → packet reception.

We use the standard analytic model for the 2.4 GHz 802.15.4 PHY (O-QPSK
with 32-chip DSSS, 16-ary orthogonal signalling), as used by TOSSIM and
the classic link-layer modelling literature:

    BER(γ) = (8/15) · (1/16) · Σ_{k=2}^{16} (−1)^k · C(16,k) · exp(20·γ·(1/k − 1))

with γ the SINR as a linear ratio, and

    PRR(γ, L) = (1 − BER(γ))^(8·L)

for a frame of L bytes.  The alternating series is precomputed into a
coefficient vector so evaluating PRR over an array of SINRs is a single
vectorised numpy expression (benches sweep it over thousands of links).
A scalar SINR is evaluated as a one-element array, so it gets exactly the
value it would get inside any batch.

The medium does not evaluate the curve per frame: it asks
:func:`reception_decisions` whether each reception draw falls under the
curve, which settles almost every draw from a table of bit error rates
and evaluates :func:`packet_reception_ratio` only for the rare draw the
table cannot place.  The decisions are exactly those of comparing each
draw with the curve.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

__all__ = ["bit_error_rate", "packet_reception_ratio", "snr_db_for_prr",
           "reception_decisions", "PRR_CERTAIN_SINR_DB",
           "PRR_TABLE_FLOOR_DB", "PRR_TABLE_STEPS_PER_DB",
           "PRR_BRACKET_SLACK"]

# Precomputed series terms: k = 2..16, coefficient (-1)^k * C(16, k),
# exponent factor 20 * (1/k - 1).  Every coefficient is an integer well
# inside a double's 53 bits, so each is exact.
_K = np.arange(2, 17)
_COEFF = np.array([(-1) ** k * math.comb(16, k) for k in _K.tolist()],
                  dtype=float)
_EXPO = 20.0 * (1.0 / _K - 1.0)


def _ber(sinr_db: np.ndarray) -> np.ndarray:
    """The series over a 1-D float array: the one evaluation every entry
    point shares.  Every exponent factor is negative, so terms vanish for
    high SINR; the clip into [0, 0.5] absorbs rounding at very low SINR."""
    gamma = 10.0 ** (sinr_db / 10.0)
    terms = _COEFF * np.exp(np.multiply.outer(gamma, _EXPO))
    ber = (8.0 / 15.0) * (1.0 / 16.0) * terms.sum(axis=-1)
    return np.clip(ber, 0.0, 0.5)


def bit_error_rate(sinr_db: float | np.ndarray) -> float | np.ndarray:
    """Bit error rate for the 802.15.4 2.4 GHz PHY at ``sinr_db``.

    Vectorised over numpy arrays.  A scalar goes through the same
    one-dimensional evaluation as an array element (numpy's scalar
    ``power`` can differ from its array loop in the last bit).
    """
    values = np.asarray(sinr_db, dtype=float)
    ber = _ber(values.reshape(-1))
    return float(ber[0]) if np.isscalar(sinr_db) else ber.reshape(values.shape)


def packet_reception_ratio(sinr_db: float | np.ndarray,
                           frame_bytes: int) -> float | np.ndarray:
    """Probability that a ``frame_bytes``-byte frame is received intact.

    Assumes independent bit errors across the frame (the standard
    simplification; adequate for reproducing loss-vs-SNR shape).  Each
    element's value depends on that element alone: a scalar, or any
    subset of a batch, gets exactly the batch's value.
    """
    if frame_bytes <= 0:
        raise ValueError(f"frame length must be positive, got {frame_bytes}")
    values = np.asarray(sinr_db, dtype=float)
    prr = (1.0 - _ber(values.reshape(-1))) ** (8.0 * frame_bytes)
    return float(prr[0]) if np.isscalar(sinr_db) else prr.reshape(values.shape)


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


# -- the reception kernel -----------------------------------------------------

#: At or above this SINR the computed PRR is exactly 1.0 for every frame
#: length, so every draw from [0, 1) wins.  The series' terms sum, in
#: absolute value, to 6.9e-22 at 7 dB and less above it, far under 2**-54:
#: ``1.0 - BER`` rounds to 1.0, and ``1.0 ** e`` is 1.0.  (The last SINR
#: with a PRR below 1.0 is about 5.9 dB.)
PRR_CERTAIN_SINR_DB = 7.0

#: The lowest SINR the bracket table covers.  A captured frame's SINR is
#: at least SENSITIVITY_DBM - NOISE_FLOOR_DBM = -3 dB without
#: interference, and about -3.8 dB with the most interference capture
#: lets through (4 dB under a signal at sensitivity), so -16 dB leaves a
#: wide margin; only an injected noise burst pushes SINR below it, and
#: such a draw is settled by evaluating the curve.
PRR_TABLE_FLOOR_DB = -16.0

#: Grid points per dB.  A power of two, so every grid point and the index
#: arithmetic on it are exact binary values.  At 1/256 dB a bracket is so
#: narrow that 15 of the 61,976 draws of a 10-s city run fell inside one,
#: and the table (5,890 doubles, 46 KB) serves every frame length.
PRR_TABLE_STEPS_PER_DB = 256

#: The margin each bracket value keeps from the curve.  It must cover the
#: computed curve's non-monotonicity, the rounding of the grid index (a
#: few 1e-15 dB) and the difference between Python's ``pow`` and numpy's
#: ``power`` on the same operands.  Measured: no non-monotone step over
#: 400,000 sorted batch points at five frame lengths, at most 1.1e-16
#: between the two ``pow``s over the table at every length 1-127, and at
#: most 2.0e-14 between two evaluations of one SINR when scalars took
#: numpy's scalar path.  1e-9 leaves five orders of magnitude over all of
#: them and still settles all but a negligible share of draws.
PRR_BRACKET_SLACK = 1e-9

#: ``1 - BER`` at ``PRR_TABLE_FLOOR_DB + j / PRR_TABLE_STEPS_PER_DB``,
#: evaluated once through the batch path, one grid step past the certain
#: region so a SINR whose index rounds up still has an upper neighbour.
_BIT_OK = array("d", (1.0 - _ber(
    PRR_TABLE_FLOOR_DB
    + np.arange((PRR_CERTAIN_SINR_DB - PRR_TABLE_FLOOR_DB)
                * PRR_TABLE_STEPS_PER_DB + 2) / PRR_TABLE_STEPS_PER_DB
)).tolist())


def reception_decisions(sinrs_db: list[float], draws: list[float],
                        frame_bytes: int) -> list[bool]:
    """Which reception draws (from [0, 1)) a frame of ``frame_bytes``
    bytes survives.

    Exactly ``draws < packet_reception_ratio(np.array(sinrs_db),
    frame_bytes)``, element by element.  A SINR in the certain region
    wins outright.  Below it, grid point ``j`` at or under the SINR and
    ``j + 1`` above it bracket the curve (it rises with SINR): a draw
    more than :data:`PRR_BRACKET_SLACK` under the lower value wins, one
    at least that far over the upper value loses.  Every other draw, and
    every SINR under the table, is settled by one
    :func:`packet_reception_ratio` call over those elements alone.
    """
    e = 8.0 * frame_bytes
    certain = PRR_CERTAIN_SINR_DB
    floor = PRR_TABLE_FLOOR_DB
    steps = PRR_TABLE_STEPS_PER_DB
    slack = PRR_BRACKET_SLACK
    bit_ok = _BIT_OK
    decided: list[bool] = []
    unsure: list[int] = []
    for s, d in zip(sinrs_db, draws):
        if s >= certain:
            decided.append(True)
            continue
        x = (s - floor) * steps
        if x >= 0.0:
            j = int(x)
            if d < bit_ok[j] ** e - slack:
                decided.append(True)
                continue
            if d >= bit_ok[j + 1] ** e + slack:
                decided.append(False)
                continue
        unsure.append(len(decided))
        decided.append(False)
    if unsure:
        prr = packet_reception_ratio(
            np.array([sinrs_db[i] for i in unsure]), frame_bytes)
        for i, p in zip(unsure, prr.tolist()):
            decided[i] = draws[i] < p
    return decided
