"""Counters, histograms and packet traces.

The evaluation section of the paper reports three kinds of observables:
delays (Fig. 5), per-hop link-quality readings (Fig. 6) and control-packet
counts (Fig. 7).  :class:`Monitor` is the single collection point for all
of them: subsystems increment named counters and feed named histograms,
and the analysis layer reads them back without reaching into protocol
internals.

Storage lives in a :class:`~repro.obs.metrics.MetricsRegistry`, so
percentile summaries (p50/p90/p99 of RTT, LQI, queue occupancy) come for
free via :attr:`Monitor.registry` and the ``stats`` shell command.
"""

from __future__ import annotations

import hashlib
import typing as _t
from dataclasses import dataclass

from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = ["Monitor", "PacketRecord"]


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One radio transmission, as logged by the medium.

    ``kind`` distinguishes traffic classes so the overhead bench can count
    only *control* packets the way the paper does.

    Slotted: one is created per transmission and a long run keeps every
    record live for the digest, so skipping the per-instance dict
    matters at the 1k-node tier (~31k records per simulated minute).
    """

    time: float
    sender: int
    receiver: int | None  # None for broadcast
    kind: str
    port: int | None
    size_bytes: int
    delivered: bool


class Monitor:
    """Aggregates counters, histograms and packet logs for one simulation."""

    def __init__(self) -> None:
        #: The typed metrics store behind this facade.
        self.registry = MetricsRegistry()
        self.packets: list[PacketRecord] = []
        #: Read-only beacon listeners (``repro.diag.online``), called as
        #: ``tap(packet, batch, rows)`` once per decoded beacon batch:
        #: the beacon, its :class:`~repro.radio.medium.FrameBatch`, and
        #: the rows taken at beaconing nodes (fleet members; the
        #: workstation does not beacon).  A tuple so the disabled check
        #: in the kernel hot path is one attribute read + truth test, and
        #: so iteration never races a registration.
        self.beacon_taps: tuple = ()

    # -- beacon taps -----------------------------------------------------------

    def add_beacon_tap(self, tap: _t.Callable) -> None:
        """Register a beacon listener (idempotent).

        Taps must be read-only with respect to the simulation: they may
        not send packets, schedule events or draw randomness — the
        determinism suite asserts that attaching one leaves the packet
        digest unchanged.
        """
        if tap not in self.beacon_taps:
            self.beacon_taps = (*self.beacon_taps, tap)

    def remove_beacon_tap(self, tap: _t.Callable) -> None:
        """Unregister a beacon listener (no-op if absent)."""
        self.beacon_taps = tuple(t for t in self.beacon_taps if t is not tap)

    # -- counters ------------------------------------------------------------
    #
    # Per-receiver hot paths bind ``registry.counter(name)`` (or
    # ``.histogram(name)``) on first use and bump the live object, so a
    # metric still enters snapshots only once something recorded it;
    # these name-keyed helpers serve everything else, including the
    # receive layers' counts, added once per frame batch (and only when
    # non-zero, for the same reason).

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.registry.counter(name).inc(amount)

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        metric = self.registry.get(name)
        return metric.value if isinstance(metric, Counter) else 0

    @property
    def counters(self) -> dict[str, int]:
        """Snapshot of all counters (read-only view of the registry)."""
        return self.registry.counters()

    # -- histograms ------------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Feed a value to histogram ``name``."""
        self.registry.histogram(name).observe(value)

    def histogram(self, name: str) -> Histogram:
        """The histogram behind observations named ``name``."""
        return self.registry.histogram(name)

    def percentiles(self, name: str) -> dict[str, float | int | None]:
        """Summary (count/min/mean/max/p50/p90/p99) of ``name``."""
        return self.registry.histogram(name).summary()

    # -- packets ---------------------------------------------------------------

    def log_packet(self, record: PacketRecord) -> None:
        """Append a transmission record (called by the radio medium)."""
        self.packets.append(record)

    def packet_digest(self) -> str:
        """Order-sensitive SHA-256 of the full packet log.

        The bit-for-bit identity the golden-determinism suite and the
        campaign runner compare: two runs share a digest iff every
        transmission matched in time (exact float), endpoints, kind,
        port, size and delivery outcome, in the same order.
        """
        h = hashlib.sha256()
        for r in self.packets:
            h.update(repr((r.time.hex(), r.sender, r.receiver, r.kind,
                           r.port, r.size_bytes, r.delivered)).encode())
        return h.hexdigest()

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data dump of the metrics — picklable and JSON-ready.

        ``counters``/``gauges``/``histograms`` mirror
        :meth:`MetricsRegistry.snapshot`, plus ``n_packets``, the length
        of the packet log.  The log's order-sensitive digest is
        :meth:`packet_digest`'s job: it hashes every record, so a
        frequent poller (the live fleet server) never pays for it.
        """
        snap = self.registry.snapshot()
        snap["n_packets"] = len(self.packets)
        return snap
