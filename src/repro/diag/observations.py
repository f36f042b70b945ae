"""Typed observations: what one probe actually measured.

A probe run ends in an *observation* — a plain, comparable record of
what the toolkit learned about one link or channel.  The observation
layer deliberately imports nothing from the rest of the package:
findings reduction builds on these records, so they must stay
dependency-free.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

__all__ = ["LinkReport", "ChannelReading"]


@dataclass(frozen=True)
class LinkReport:
    """What probing one directed neighbor link revealed."""

    src: int
    dst: int
    sent: int
    received: int
    mean_rtt_ms: float | None
    lqi_forward: float | None    # remote-measured (our packets arriving)
    lqi_backward: float | None   # locally measured (their replies)
    rssi_forward: float | None
    rssi_backward: float | None

    @property
    def loss_ratio(self) -> float:
        """Probe round-trip loss fraction.

        ``sent == 0`` returns the sentinel 1.0, but it means *no
        data*, not total loss — check :attr:`has_data` before treating
        the value as a measurement.
        """
        return 1.0 - self.received / self.sent if self.sent else 1.0

    @property
    def has_data(self) -> bool:
        """Whether any probe was actually sent over this link.

        A report with ``sent == 0`` carries no evidence either way —
        the command never ran (node down, parameters rejected) — and
        must not be classified as broken.
        """
        return self.sent > 0

    @classmethod
    def from_ping_result(cls, src: int, dst: int, result) -> "LinkReport":
        """Reduce a :class:`~repro.core.results.PingResult` to a report."""
        if not result.rounds:
            return cls(src=src, dst=dst, sent=result.sent, received=0,
                       mean_rtt_ms=None, lqi_forward=None,
                       lqi_backward=None, rssi_forward=None,
                       rssi_backward=None)
        links = [r.link for r in result.rounds]
        return cls(
            src=src, dst=dst, sent=result.sent, received=result.received,
            mean_rtt_ms=result.mean_rtt_ms,
            lqi_forward=statistics.fmean(l.lqi_forward for l in links),
            lqi_backward=statistics.fmean(l.lqi_backward for l in links),
            rssi_forward=statistics.fmean(l.rssi_forward for l in links),
            rssi_backward=statistics.fmean(l.rssi_backward for l in links),
        )

    @classmethod
    def no_reply(cls, src: int, dst: int, sent: int) -> "LinkReport":
        """The report of a probe whose command produced nothing."""
        return cls(src=src, dst=dst, sent=sent, received=0,
                   mean_rtt_ms=None, lqi_forward=None, lqi_backward=None,
                   rssi_forward=None, rssi_backward=None)


@dataclass(frozen=True)
class ChannelReading:
    """Peak energy-detect RSSI observed on one channel during a scan."""

    node: int
    channel: int
    reading: int
