"""Channel scan: survey ambient RF energy across the 16 channels.

The paper's radio-configuration group lets users view and change the
channel; *choosing* a good channel needs to know which ones are busy
("channel selection and management" is the §III-B problem statement).
This utility hops the radio across the 802.15.4 band, samples the RSSI
register in energy-detect mode on each channel (no frame reception
involved), and reports the worst-case reading per channel — quiet
channels sit at the noise floor, channels carrying traffic or
interference stand out.

While scanning, the node is deaf on its home channel; the scan restores
the original channel when done, exactly like a real site-survey tool.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ParameterError
from repro.radio.cc2420 import MAX_CHANNEL, MIN_CHANNEL

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.node import SensorNode

__all__ = ["channel_scan", "scan_duration", "DEFAULT_SAMPLES",
           "DEFAULT_DWELL", "MAX_SAMPLING_S"]

#: RSSI samples taken per channel.
DEFAULT_SAMPLES = 4
#: Gap between samples (seconds) — long enough to straddle data frames.
DEFAULT_DWELL = 0.01
#: Each gap is stretched or shrunk by up to this fraction (see
#: :func:`channel_scan`).
DWELL_JITTER = 0.3
#: Longest nominal sampling time (``count × samples × dwell`` seconds) a
#: scan may ask for.  The default scan samples 0.64 s; the wire fields
#: alone would allow simulated days of a deaf node and a waiting shell.
MAX_SAMPLING_S = 30.0


def scan_duration(count: int, samples: int, dwell: float) -> float:
    """The longest a scan can sample (seconds): every gap stretched by
    the full :data:`DWELL_JITTER`."""
    return count * samples * dwell * (1.0 + DWELL_JITTER)


def channel_scan(node: "SensorNode", *,
                 first: int = MIN_CHANNEL,
                 count: int = MAX_CHANNEL - MIN_CHANNEL + 1,
                 samples: int = DEFAULT_SAMPLES,
                 dwell: float = DEFAULT_DWELL):
    """Scan ``count`` channels starting at ``first``.

    A generator to run as a kernel thread; returns a list of
    ``(channel, max_rssi_reading)`` pairs.  Uses only system calls (set
    channel, sample RSSI) — the same interface a real scan utility has.
    """
    if not MIN_CHANNEL <= first <= MAX_CHANNEL:
        raise ParameterError(f"first channel {first} outside "
                             f"{MIN_CHANNEL}..{MAX_CHANNEL}")
    if count < 1 or first + count - 1 > MAX_CHANNEL:
        raise ParameterError(f"scan of {count} channels from {first} "
                             "leaves the band")
    if samples < 1:
        raise ParameterError("need at least one sample per channel")
    if count * samples * dwell > MAX_SAMPLING_S:
        raise ParameterError(f"scan of {count * samples * dwell:g} s "
                             f"exceeds {MAX_SAMPLING_S:g} s")
    original = node.radio.channel
    # Irregular sampling: a fixed dwell can alias with periodic traffic
    # and miss it entirely; jittering each gap by ±DWELL_JITTER
    # decorrelates the sampler from any packet period.
    jitter_rng = node.rng.stream(f"scan.jitter.{node.id}")
    results: list[tuple[int, int]] = []
    try:
        for channel in range(first, first + count):
            node.syscalls.invoke("radio_set_channel", channel)
            worst = -128
            for _ in range(samples):
                yield node.env.timeout(dwell * float(jitter_rng.uniform(
                    1.0 - DWELL_JITTER, 1.0 + DWELL_JITTER)))
                reading = node.syscalls.invoke("rssi_sample")
                worst = max(worst, int(reading))  # type: ignore[arg-type]
            results.append((channel, worst))
            node.monitor.count("scan.channels_sampled")
    finally:
        node.syscalls.invoke("radio_set_channel", original)
    return results
