"""Predicted connectivity: vectorised all-pairs link-quality matrices.

The deployment-planning side of LiteView's workflow: before (or instead
of) probing every pair over the air, compute what the propagation model
*predicts* — expected received power, SNR and PRR for every directed
pair at a given power level — as dense numpy matrices.  The benches use
this to design testbeds ("what spacing makes adjacent links clean and
two-hop links gray?"), and the diagnosis examples compare prediction
against the live survey to locate anomalies.

Everything here is vectorised per the hpc-parallel guides: one
``loss_matrix`` evaluation plus elementwise PRR, no Python-level pair
loops.  Shadowing is included from the model's per-link cache, so
predictions match what the simulated radio will actually do in
expectation; an undrawn link counts at the model's 0 dB mean, as fading
does, so planning draws nothing and leaves the run that follows intact.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.radio.cc2420 import NOISE_FLOOR_DBM, power_level_to_dbm
from repro.radio.modulation import packet_reception_ratio, snr_db_for_prr

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.testbed import Testbed

__all__ = [
    "received_power_matrix",
    "snr_matrix",
    "prr_matrix",
    "connected_pairs",
    "max_clean_spacing",
]


def _positions(testbed: "Testbed") -> tuple[list[int], np.ndarray]:
    nodes = testbed.nodes()
    ids = [n.id for n in nodes]
    positions = np.array([n.position for n in nodes], dtype=float)
    return ids, positions


def received_power_matrix(testbed: "Testbed",
                          power_level: int = 31) -> np.ndarray:
    """Expected rx power (dBm) for every directed pair (i → j).

    Row/column order follows ``testbed.nodes()``; the diagonal is NaN
    (no self-links).  Includes each directed link's static shadowing
    where it is drawn or pinned, the mean (0 dB) where it is not.
    """
    ids, positions = _positions(testbed)
    n = len(ids)
    tx_dbm = power_level_to_dbm(power_level)
    loss = testbed.propagation.loss_matrix(positions)
    shadow = np.zeros((n, n))
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if i != j:
                shadow[i, j] = testbed.propagation.expected_shadowing_db(a, b)
    rx = tx_dbm - (loss + shadow)
    np.fill_diagonal(rx, np.nan)
    return rx


def snr_matrix(testbed: "Testbed", power_level: int = 31) -> np.ndarray:
    """Expected SNR (dB) for every directed pair."""
    return received_power_matrix(testbed, power_level) - NOISE_FLOOR_DBM


def prr_matrix(testbed: "Testbed", frame_bytes: int = 50,
               power_level: int = 31) -> np.ndarray:
    """Expected packet reception ratio for every directed pair."""
    snr = snr_matrix(testbed, power_level)
    flat = snr.ravel()
    valid = ~np.isnan(flat)
    prr = np.zeros_like(flat)
    prr[valid] = packet_reception_ratio(flat[valid], frame_bytes)
    out = prr.reshape(snr.shape)
    np.fill_diagonal(out, np.nan)
    return out


def connected_pairs(testbed: "Testbed", *, min_prr: float = 0.9,
                    frame_bytes: int = 50, power_level: int = 31,
                    ) -> list[tuple[int, int]]:
    """Directed pairs predicted to exceed ``min_prr`` — the survey list
    a site engineer would walk."""
    ids, _ = _positions(testbed)
    prr = prr_matrix(testbed, frame_bytes, power_level)
    pairs = []
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if i != j and prr[i, j] >= min_prr:
                pairs.append((a, b))
    return pairs


def max_clean_spacing(target_prr: float = 0.95, *,
                      frame_bytes: int = 50, power_level: int = 31,
                      reference_loss_db: float = 40.0,
                      exponent: float = 3.0) -> float:
    """The farthest spacing at which a (shadowing-free) link still meets
    ``target_prr`` — chain/grid design in one call.

    Inverts the PRR curve for the required SNR, then the log-distance
    model for the distance.
    """
    required_snr = snr_db_for_prr(target_prr, frame_bytes)
    budget = power_level_to_dbm(power_level) - NOISE_FLOOR_DBM
    allowed_loss = budget - required_snr - reference_loss_db
    if allowed_loss <= 0:
        raise ValueError(
            f"target PRR {target_prr} unreachable at power level "
            f"{power_level} even at the reference distance"
        )
    return float(10.0 ** (allowed_loss / (10.0 * exponent)))
