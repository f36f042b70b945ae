"""Passive online anomaly detection over the beacon stream.

Active diagnosis (:mod:`repro.diag.engine`) answers "what is wrong?"
by injecting probe traffic; this module answers it by *listening*.
Every node already beacons every ~2 s, and every reception carries
LQI/RSSI readings and a sequence number — a free, continuous stream of
per-link observations.  :class:`OnlineMonitor` taps that stream (a
read-only callback registered on the shared
:class:`~repro.sim.monitor.Monitor`), runs O(1)-memory sliding-window
detectors per directed link, and emits the same closed-vocabulary
:class:`~repro.diag.findings.Finding` schema the active engine
produces — so :func:`~repro.diag.score.score_findings` grades both
against the same ground truth and the serve layer can swap between
them.

Detectors:

* :class:`WindowStats` — fixed-capacity ring buffer with O(1) running
  mean/variance (push evicts; no rescan);
* :class:`EwmaDetector` — level-shift detection against an adaptive
  EWMA baseline with an EWMA absolute-deviation scale, k-sigma on/off
  thresholds and consecutive-sample hysteresis (catches LQI/RSSI
  collapse);
* :class:`CusumDetector` — one-sided CUSUM changepoint detector on the
  per-expected-beacon loss indicator reconstructed from sequence-number
  gaps (catches loss-rate rises smaller than the quality noise).

The monitor never touches the simulation: it consumes no RNG, schedules
no events and sends no packets, so attaching it leaves the packet
digest byte-identical — the zero-probe contract the passive serve mode
and the determinism suite assert.
"""

from __future__ import annotations

import math
import sys
import typing as _t

from repro.diag.engine import BROKEN_LOSS
from repro.diag.findings import (
    FINDING_KINDS,
    DiagnosisReport,
    Finding,
    NewFindings,
)
from repro.kernel.neighbors import DEFAULT_BEACON_INTERVAL

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.testbed import Testbed
    from repro.net.packet import Packet
    from repro.radio.medium import FrameBatch, Row

__all__ = [
    "WindowStats",
    "EwmaDetector",
    "CusumDetector",
    "OnlineMonitor",
    "merge_findings",
    "PROBE_PACKET_KINDS",
]

#: Packet kinds that count as probe traffic (the zero-probe assertion
#: and the hybrid self-traffic mask): reliable control commands, pings
#: and traceroutes.  Beacons and routing adverts are the network's own
#: background, not probes.
PROBE_PACKET_KINDS = ("control", "ping", "traceroute")


def finding_subject_key(finding: Finding) -> tuple:
    """Canonical dedup key for one finding's *subject*.

    The three link kinds fold together (an active ``lossy_link`` and a
    passive ``broken_link`` on the same pair are one complaint, not
    two), links fold across direction, and channel verdicts fold by
    channel (the observer node may differ between modes).
    """
    if finding.link is not None:
        return ("link", min(finding.link), max(finding.link))
    if finding.channel is not None:
        return ("channel", finding.channel)
    return (finding.kind, finding.node)


def merge_findings(primary: _t.Iterable[Finding],
                   secondary: _t.Iterable[Finding]) -> list[Finding]:
    """Union of two reports' findings, deduplicated by subject.

    ``primary`` wins on conflicts (the hybrid assessor passes the
    active report first: probe evidence is directed and richer).

    One cross-mode root-cause rule, mirroring the suppression
    :meth:`OnlineMonitor.poll` applies internally: an ``interference``
    verdict explains unreachability.  While a channel is jammed, CSMA
    keeps *every* transmitter silent — probes time out and beacons
    stop fleet-wide — so a simultaneous ``dead_node`` claim is
    unprovable and is dropped rather than reported as a second fault.
    Returned in canonical order.
    """
    merged = list(primary)
    named = {finding_subject_key(f) for f in merged}
    for finding in secondary:
        if finding_subject_key(finding) not in named:
            merged.append(finding)
    if any(f.kind == "interference" for f in merged):
        merged = [f for f in merged if f.kind != "dead_node"]
    merged.sort(key=Finding.sort_key)
    return merged


def _clamp_finite(x: float) -> float:
    """Pull an overflowed (infinite) intermediate back to the finite
    float range; finite inputs pass through untouched.  Two finite
    samples at opposite ends of the double range make ``a - b``
    overflow, and a detector's state must stay finite regardless of
    what the series feeds it."""
    if x > sys.float_info.max:
        return sys.float_info.max
    if x < -sys.float_info.max:
        return -sys.float_info.max
    return x


class WindowStats:
    """Fixed-capacity ring buffer with O(1) running mean/variance.

    ``push`` evicts the oldest sample once full and maintains running
    sums, so mean/variance never rescan the buffer.  Sums are rebuilt
    from the buffer every ``capacity * 256`` pushes to bound float
    cancellation drift on arbitrarily long series — still amortised
    O(1) per push, and memory is exactly ``capacity`` floats forever.
    """

    __slots__ = ("capacity", "_buf", "_next", "_count", "_sum", "_sumsq",
                 "_pushes")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._buf: list[float] = [0.0] * self.capacity
        self._next = 0
        self._count = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self._pushes = 0

    def push(self, value: float) -> None:
        value = float(value)
        if self._count == self.capacity:
            old = self._buf[self._next]
            self._sum -= old
            self._sumsq -= old * old
        else:
            self._count += 1
        self._buf[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self._sum += value
        self._sumsq += value * value
        self._pushes += 1
        if self._pushes % (self.capacity * 256) == 0:
            self._rebuild()

    def _rebuild(self) -> None:
        live = self.values()
        self._sum = math.fsum(live)
        self._sumsq = math.fsum(v * v for v in live)

    def values(self) -> list[float]:
        """Live samples, oldest first (for tests and evidence)."""
        if self._count < self.capacity:
            return self._buf[:self._count]
        return self._buf[self._next:] + self._buf[:self._next]

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (clamped at 0 against float drift)."""
        if not self._count:
            return 0.0
        m = self.mean
        return max(0.0, self._sumsq / self._count - m * m)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class EwmaDetector:
    """Level-shift detector: adaptive EWMA baseline + hysteresis.

    Tracks an EWMA mean and an EWMA absolute deviation of the series.
    A sample further than ``k_on`` deviations from the baseline (in the
    watched ``direction``) counts toward firing; ``hysteresis``
    consecutive such samples fire the detector.  While counting (and
    while fired) the baseline is *gated* — outliers do not update it —
    so a genuine level shift is not absorbed before it can fire.  Once
    fired, ``hysteresis`` consecutive samples back within ``k_off``
    deviations recover it (the recovery path of transient faults).

    State is a handful of floats: O(1) memory for any series length.
    Non-finite samples are ignored (counted in ``ignored``), so the
    confidence is finite and in [0, 1] by construction.
    """

    __slots__ = ("alpha", "k_on", "k_off", "hysteresis", "min_samples",
                 "sigma_floor", "direction", "n", "ignored", "mean", "dev",
                 "fired", "_over", "_under", "_peak")

    def __init__(self, *, alpha: float = 0.2, k_on: float = 4.0,
                 k_off: float = 2.0, hysteresis: int = 3,
                 min_samples: int = 8, sigma_floor: float = 1.0,
                 direction: str = "both"):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if k_off > k_on:
            raise ValueError(f"k_off ({k_off}) must not exceed k_on ({k_on})")
        if direction not in ("both", "up", "down"):
            raise ValueError(f"direction must be both/up/down, "
                             f"got {direction!r}")
        if sigma_floor <= 0:
            raise ValueError(f"sigma_floor must be > 0, got {sigma_floor}")
        self.alpha = float(alpha)
        self.k_on = float(k_on)
        self.k_off = float(k_off)
        self.hysteresis = max(1, int(hysteresis))
        self.min_samples = max(1, int(min_samples))
        self.sigma_floor = float(sigma_floor)
        self.direction = direction
        self.n = 0
        self.ignored = 0
        self.mean = 0.0
        self.dev = 0.0
        self.fired = False
        self._over = 0
        self._under = 0
        self._peak = 0.0

    def _excess(self, value: float) -> float:
        """Signed deviation in sigma units, oriented by ``direction``."""
        sigma = max(self.dev, self.sigma_floor)
        z = _clamp_finite(_clamp_finite(value - self.mean) / sigma)
        if self.direction == "down":
            return -z
        if self.direction == "up":
            return z
        return abs(z)

    def _absorb(self, value: float) -> None:
        a = self.alpha
        diff = _clamp_finite(abs(value - self.mean))
        self.dev = _clamp_finite((1 - a) * self.dev + a * diff)
        self.mean = _clamp_finite((1 - a) * self.mean + a * value)

    def update(self, value: float) -> bool:
        """Feed one sample; returns the (possibly new) fired state."""
        value = float(value)
        if not math.isfinite(value):
            self.ignored += 1
            return self.fired
        if self.n == 0:
            self.mean = value
        if self.n < self.min_samples:
            self._absorb(value)
            self.n += 1
            return self.fired
        excess = self._excess(value)
        if not self.fired:
            if excess >= self.k_on:
                self._over += 1
                if self._over >= self.hysteresis:
                    self.fired = True
                    self._peak = excess
                    self._under = 0
            else:
                self._over = 0
                self._absorb(value)
        else:
            self._peak = max(self._peak, excess)
            if excess <= self.k_off:
                self._under += 1
                if self._under >= self.hysteresis:
                    self.fired = False
                    self._over = 0
                    self._under = 0
                    self._peak = 0.0
                    self._absorb(value)
            else:
                self._under = 0
        self.n += 1
        return self.fired

    @property
    def shift(self) -> float:
        """Peak excess (in sigma units) of the current firing, else 0."""
        return self._peak if self.fired else 0.0

    @property
    def confidence(self) -> float:
        """Confidence in [0, 1]; 0 when quiet, >= 0.5 once fired."""
        if not self.fired:
            return 0.0
        return min(1.0, 0.5 + (self._peak - self.k_on) / (6.0 * self.k_on))


class CusumDetector:
    """One-sided (upper) CUSUM changepoint detector.

    Accumulates ``max(0, g + (x - target - slack))`` and fires while the
    statistic is at or above ``threshold``.  With the per-expected-beacon
    loss indicator as input (``target=0``), ``slack`` is the tolerated
    ambient loss rate and ``threshold`` the excess lost-beacon mass that
    constitutes a changepoint; after the fault clears, each delivered
    beacon drains ``slack`` from the statistic, so recovery de-asserts
    the detector without an explicit reset.  The statistic is clamped at
    ``cap`` (default ``2 * threshold``) so an arbitrarily long burst
    cannot push the de-assert arbitrarily far past the recovery.

    O(1) memory; non-finite samples are ignored.
    """

    __slots__ = ("target", "slack", "threshold", "cap", "n", "ignored",
                 "_stat")

    def __init__(self, *, target: float = 0.0, slack: float = 0.15,
                 threshold: float = 2.0, cap: float | None = None):
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        self.target = float(target)
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.cap = float(cap) if cap is not None else 2.0 * self.threshold
        if self.cap < self.threshold:
            raise ValueError(f"cap ({self.cap}) must be >= threshold "
                             f"({self.threshold})")
        self.n = 0
        self.ignored = 0
        self._stat = 0.0

    def update(self, value: float) -> bool:
        value = float(value)
        if not math.isfinite(value):
            self.ignored += 1
            return self.fired
        self._stat = min(self.cap, max(
            0.0, self._stat + (value - self.target - self.slack)))
        self.n += 1
        return self.fired

    @property
    def statistic(self) -> float:
        return self._stat

    @property
    def fired(self) -> bool:
        return self._stat >= self.threshold

    @property
    def confidence(self) -> float:
        """Confidence in [0, 1]; 0 when quiet, >= 0.5 once fired."""
        if not self.fired:
            return 0.0
        return min(1.0, 0.5 + (self._stat - self.threshold)
                   / (6.0 * self.threshold))


# -- the passive detectors' policy --------------------------------------------
# Pinned by ``tests/diag/test_online_detectors.py``; the rationale for
# each lives in ``docs/DIAGNOSIS.md``.  ``BROKEN_LOSS``, the recent-window
# loss level that upgrades lossy -> broken, is the active reducer's.

#: Detector warm-up: beacons a link must have delivered before any
#: verdict may name it (absence of evidence is not a broken link).
MIN_SAMPLES = 8
#: Ring capacity for the per-expected-beacon loss indicator.
LOSS_WINDOW = 32
#: EWMA alpha shared by the LQI and RSSI level-shift detectors.
QUALITY_ALPHA = 0.2
QUALITY_K_ON = 4.0
QUALITY_K_OFF = 2.0
QUALITY_HYSTERESIS = 3
#: Scale floors so a dead-quiet baseline cannot make noise-free
#: jitter look like a 100-sigma event.
LQI_SIGMA_FLOOR = 2.0
RSSI_SIGMA_FLOOR = 1.5
#: CUSUM drift allowance (tolerated ambient loss per beacon) and
#: firing mass (net excess lost beacons).
LOSS_SLACK = 0.15
LOSS_THRESHOLD = 2.0
#: Missed-interval multiples before a once-healthy link is silent.
SILENCE_FACTOR = 4.0
#: Sequence gaps beyond this are treated as a counter restart
#: (reboot), not as that many lost beacons.
MAX_GAP = 64
#: Simultaneously-degraded links on one channel (spanning >= 2
#: origins and >= 2 receivers, with no single common endpoint, and
#: covering at least ``INTERFERENCE_MIN_FRACTION`` of the channel's
#: tracked links) escalate to an ``interference`` verdict.  The
#: fraction gate separates RF (which degrades essentially every
#: link on the channel) from a coincidence of node/link faults
#: (which degrades a cluster but leaves the rest clean).
INTERFERENCE_MIN_LINKS = 3
INTERFERENCE_MIN_FRACTION = 0.5
#: Inter-arrival drift detection: the recent-window mean must sit
#: ``DRIFT_Z`` standard errors AND ``DRIFT_REL`` (relative) away
#: from the *nominal* beacon period — the interval the origin was set
#: to (``DEFAULT_BEACON_INTERVAL`` until an ``update`` retunes it, and
#: always for a detached monitor), which the diagnosis tool knows, so a
#: fault can never contaminate the reference the way it could a learned
#: baseline.  Beacon jitter is ±10 % uniform (σ ≈ 5.8 %): 32 samples put the SE
#: near 1 %, the 4-SE gate near 4 %.  A sliding window is re-tested
#: every poll on every link, so 4-σ excursions *will* eventually
#: occur; the absolute gate is what rejects them — 4.5 % puts the
#: detectable skew floor near 5 %, well under the 7.4 % signature of
#: the canonical 8 % clock-drift fault.
DRIFT_WINDOW = 32
#: Learned-cadence window (feeds silence detection only).
BASELINE_INTERVALS = 10
DRIFT_Z = 4.0
DRIFT_REL = 0.045


class _LinkState:
    """Per directed link (origin -> receiver): all detector state."""

    __slots__ = ("lqi", "rssi", "loss", "loss_window", "intervals",
                 "baseline_window", "baseline_interval", "nominal",
                 "last_seq", "last_heard", "beacons", "channel")

    def __init__(self):
        self.lqi = EwmaDetector(
            alpha=QUALITY_ALPHA, k_on=QUALITY_K_ON, k_off=QUALITY_K_OFF,
            hysteresis=QUALITY_HYSTERESIS, min_samples=MIN_SAMPLES,
            sigma_floor=LQI_SIGMA_FLOOR, direction="down")
        self.rssi = EwmaDetector(
            alpha=QUALITY_ALPHA, k_on=QUALITY_K_ON, k_off=QUALITY_K_OFF,
            hysteresis=QUALITY_HYSTERESIS, min_samples=MIN_SAMPLES,
            sigma_floor=RSSI_SIGMA_FLOOR, direction="down")
        self.loss = CusumDetector(target=0.0, slack=LOSS_SLACK,
                                  threshold=LOSS_THRESHOLD)
        self.loss_window = WindowStats(LOSS_WINDOW)
        self.intervals = WindowStats(DRIFT_WINDOW)
        self.baseline_window = WindowStats(BASELINE_INTERVALS)
        self.baseline_interval: tuple[float, float] | None = None
        #: The beacon interval the origin was set to when its intervals
        #: were measured: the drift reference.
        self.nominal = DEFAULT_BEACON_INTERVAL
        self.last_seq: int | None = None
        self.last_heard = 0.0
        self.beacons = 0
        self.channel: int | None = None

    def observe(self, *, seq: int, lqi: float, rssi: float,
                channel: int | None, now: float, nominal: float) -> None:
        if channel is not None:
            self.channel = channel
        self.beacons += 1
        retuned = nominal != self.nominal
        if retuned:
            # The origin's interval setting changed: the cadence measured
            # so far says nothing about the new one, and the first beacon
            # since still spans an old-setting period.
            self.nominal = nominal
            self.intervals = WindowStats(DRIFT_WINDOW)
            self.baseline_window = WindowStats(BASELINE_INTERVALS)
            self.baseline_interval = None
        if self.last_seq is not None:
            gap = (seq - self.last_seq) & 0xFFFF
            if 0 < gap <= MAX_GAP:
                for _ in range(gap - 1):
                    self.loss.update(1.0)
                    self.loss_window.push(1.0)
                self.loss.update(0.0)
                self.loss_window.push(0.0)
                interval = (now - self.last_heard) / gap
                if not retuned:
                    self.intervals.push(interval)
                if self.baseline_interval is None and not retuned:
                    self.baseline_window.push(interval)
                    if self.baseline_window.full:
                        self.baseline_interval = (
                            self.baseline_window.mean,
                            self.baseline_window.std,
                        )
            # gap == 0 (duplicate) or a huge gap (sequence restart after
            # a reboot): re-anchor without charging phantom losses.
        self.last_seq = seq
        self.last_heard = now
        self.lqi.update(lqi)
        self.rssi.update(rssi)

    def anchor(self, *, seq: int, channel: int | None, now: float) -> None:
        """Track sequence/time continuity without feeding detectors.

        Used across masked windows (:meth:`OnlineMonitor.pause`): the
        beacon is acknowledged — so the masked traffic never shows up
        later as a phantom sequence gap or a silence — but no loss,
        quality or interval sample is charged.
        """
        if channel is not None:
            self.channel = channel
        self.beacons += 1
        self.last_seq = seq
        self.last_heard = now

    def expected_interval(self) -> float:
        if self.baseline_interval is not None and self.baseline_interval[0] > 0:
            return self.baseline_interval[0]
        return self.nominal

    def silent_for(self, now: float, floor: float = -math.inf) -> float:
        """Seconds since last heard, not counting time before ``floor``
        (the end of the last masked window — silence accrued while the
        listener's own probes were jamming the channel proves nothing).
        """
        return now - max(self.last_heard, floor)

    def is_silent(self, now: float, floor: float = -math.inf) -> bool:
        return (self.beacons >= MIN_SAMPLES
                and self.silent_for(now, floor)
                > SILENCE_FACTOR * self.expected_interval())

    def drift_ratio(self) -> float | None:
        """Relative inter-arrival shift vs. the nominal period, or None.

        The reference is the *configured* beacon period (the interval
        the origin was set to, immune to contamination by the fault
        being hunted), and the shift must clear both a statistical gate
        (``DRIFT_Z`` standard errors of the recent-window mean) and an
        absolute one (``DRIFT_REL``), so ordinary beacon jitter never
        qualifies.
        """
        if not self.intervals.full:
            return None
        nominal = self.nominal
        se = max(math.sqrt(self.intervals.variance / self.intervals.count),
                 1e-6 * nominal)
        shift = self.intervals.mean - nominal
        if abs(shift) >= DRIFT_Z * se and abs(shift) / nominal >= DRIFT_REL:
            return shift / nominal
        return None


class OnlineMonitor:
    """Sliding-window detectors over the beacon stream -> Findings.

    Construction is inert (no sim access); :meth:`attach` registers a
    read-only per-beacon tap on the testbed's shared monitor, and
    :meth:`poll` reduces the accumulated per-link state to canonical
    :class:`~repro.diag.findings.Finding`s — the passive counterpart of
    ``DiagnosisEngine.run``, with ``probes_run == 0`` always.  The tap
    hears the beacons fleet members receive: the workstation neither
    beacons nor feeds the taps, so the user's own laptop walk never
    reads as a link fault.

    ``testbed=None`` builds a detached monitor for synthetic-series
    tests: feed :meth:`observe_beacon` directly and :meth:`poll` with an
    explicit ``now``.  Only an attached monitor can :meth:`pause` and
    :meth:`resume`.

    Memory is O(tracked links), each link O(1) (fixed ring buffers).
    """

    def __init__(self, testbed: "Testbed | None" = None):
        self.testbed = testbed
        self._monitor = testbed.monitor if testbed is not None else None
        self._links: dict[tuple[int, int], _LinkState] = {}
        self._attached = False
        self._paused = False
        self._anchor_floor = -math.inf
        self._pause_idx = 0
        self._new = NewFindings()
        self.beacons_seen = 0
        self.last_polled_at: float | None = None

    # -- the tap ---------------------------------------------------------

    def attach(self) -> "OnlineMonitor":
        """Start listening (idempotent).  Requires a testbed."""
        if self._monitor is None:
            raise ValueError("cannot attach a detached OnlineMonitor "
                             "(constructed without a testbed)")
        if not self._attached:
            self._monitor.add_beacon_tap(self._tap)
            self._attached = True
        return self

    def detach(self) -> None:
        """Stop listening (accumulated state is kept)."""
        if self._attached and self._monitor is not None:
            self._monitor.remove_beacon_tap(self._tap)
        self._attached = False

    def pause(self) -> None:
        """Mask the detectors (sequence continuity is still tracked).

        The hybrid assessor pauses the listener around its own probe
        bursts: a few hundred probe packets congest the channel, and
        the delayed and collided beacons would otherwise read as loss
        or interference the network did not actually have.  While
        paused, received beacons only :meth:`~_LinkState.anchor` — and
        so does the *first* beacon per link after :meth:`resume`, whose
        gap spans the masked window.  Silence likewise restarts from the
        mask's end: a link quiet through the mask may simply have lost
        its beacons to the probe congestion, so it must re-earn its
        silence verdict afterwards (a genuinely dead node does, a few
        beacon intervals later).
        """
        if not self._paused:
            self._paused = True
            self._pause_idx = len(self._monitor.packets)

    def resume(self) -> None:
        """Unmask the detectors (see :meth:`pause`).

        If *no probe packet actually got on the air* during the masked
        window, the mask is void: whatever kept beacons off the channel
        was not our doing (e.g. an interference burst that made CCA
        read busy fleet-wide), so the accrued silence is genuine
        evidence and keeps aging.
        """
        if not self._paused:
            return
        self._paused = False
        if not any(r.kind in PROBE_PACKET_KINDS
                   for r in self._monitor.packets[self._pause_idx:]):
            return
        self._anchor_floor = float(self.testbed.env.now)

    def _tap(self, packet: "Packet", batch: "FrameBatch",
             rows: "list[Row]") -> None:
        """The beacon tap: one call per beacon batch, over the rows the
        fleet members took."""
        origin = packet.origin
        seq = packet.seq
        channel = batch.channel
        now = batch.time
        nominal = self._nominal(origin)
        for row in rows:
            self._ingest(origin, row[0].node_id, seq, float(row[4]),
                         float(row[3]), channel, now, nominal)
        self._count(len(rows))

    # -- ingestion -------------------------------------------------------

    def observe_beacon(self, receiver: int, origin: int, *, seq: int,
                       lqi: float, rssi: float, channel: int | None = None,
                       now: float) -> None:
        """Feed one received beacon (synthetic tests call this; the tap
        feeds whole batches)."""
        origin = int(origin)
        self._ingest(origin, int(receiver), int(seq), float(lqi),
                     float(rssi), channel, float(now), self._nominal(origin))
        self._count(1)

    def _nominal(self, origin: int) -> float:
        """The beacon interval ``origin`` is set to: the drift reference.
        A detached monitor knows only the default."""
        if self.testbed is None:
            return DEFAULT_BEACON_INTERVAL
        return self.testbed.node(origin).neighbors.beacon_interval

    def _ingest(self, origin: int, receiver: int, seq: int, lqi: float,
                rssi: float, channel: int | None, now: float,
                nominal: float) -> None:
        key = (origin, receiver)
        state = self._links.get(key)
        if state is None:
            state = self._links[key] = _LinkState()
        if self._paused or state.last_heard < self._anchor_floor:
            state.anchor(seq=seq, channel=channel, now=now)
        else:
            state.observe(seq=seq, lqi=lqi, rssi=rssi, channel=channel,
                          now=now, nominal=nominal)

    def _count(self, beacons: int) -> None:
        self.beacons_seen += beacons
        if self._monitor is not None:
            self._monitor.count("diag.online.beacons", beacons)

    # -- reduction -------------------------------------------------------

    @property
    def links_tracked(self) -> int:
        return len(self._links)

    def poll(self, now: float | None = None) -> list[Finding]:
        """Reduce accumulated link state to findings, as of ``now``.

        Pure read: never advances the sim or consumes RNG.  Counter
        ``diag.online.finding.<kind>`` increments only for subjects not
        already named at the previous poll, so long-lived faults count
        once, not once per poll.
        """
        if now is None:
            if self.testbed is None:
                raise ValueError("detached OnlineMonitor needs an "
                                 "explicit now=")
            now = self.testbed.env.now
        ordered = sorted(self._links)
        silent: set[tuple[int, int]] = set()
        lossy: set[tuple[int, int]] = set()
        link_findings: dict[tuple[int, int], Finding] = {}
        for key in ordered:
            st = self._links[key]
            if st.beacons < MIN_SAMPLES:
                continue
            if st.is_silent(now, self._anchor_floor):
                silent.add(key)
                gone = st.silent_for(now, self._anchor_floor)
                missed = gone / st.expected_interval()
                link_findings[key] = Finding(
                    kind="broken_link", link=key,
                    confidence=min(0.95, 0.5 + 0.05
                                   * (missed - SILENCE_FACTOR)),
                    summary=(f"no beacons for {gone:.1f} s "
                             f"(~{missed:.0f} expected)"),
                    evidence={"silent_s": gone,
                              "expected_interval_s": st.expected_interval(),
                              "beacons_seen": st.beacons},
                )
            elif st.loss.fired:
                lossy.add(key)
                level = st.loss_window.mean
                kind = "broken_link" if level >= BROKEN_LOSS else "lossy_link"
                link_findings[key] = Finding(
                    kind=kind, link=key,
                    confidence=max(st.loss.confidence,
                                   min(1.0, level / BROKEN_LOSS)),
                    summary=(f"{level:.0%} of expected beacons missing "
                             f"(seq gaps)"),
                    evidence={"recent_loss": level,
                              "cusum": st.loss.statistic,
                              "beacons_seen": st.beacons},
                )
            elif st.lqi.fired or st.rssi.fired:
                if st.lqi.fired and (not st.rssi.fired
                                     or st.lqi.shift >= st.rssi.shift):
                    det, metric = st.lqi, "lqi"
                else:
                    det, metric = st.rssi, "rssi"
                link_findings[key] = Finding(
                    kind="lossy_link", link=key, confidence=det.confidence,
                    summary=(f"beacon {metric} fell {det.shift:.1f} sigma "
                             f"below its baseline"),
                    evidence={"metric": metric, "baseline": det.mean,
                              "shift_sigma": det.shift,
                              "beacons_seen": st.beacons},
                )
        findings: list[Finding] = []
        explained: set[tuple[int, int]] = set()
        affected = silent | lossy
        by_channel: dict[int, list[tuple[int, int]]] = {}
        for key in sorted(affected):
            ch = self._links[key].channel
            if ch is not None:
                by_channel.setdefault(ch, []).append(key)
        for ch in sorted(by_channel):
            group = by_channel[ch]
            origins = {a for a, _ in group}
            receivers = {b for _, b in group}
            on_channel = sum(
                1 for st in self._links.values()
                if st.channel == ch and st.beacons >= MIN_SAMPLES)
            if (len(group) < INTERFERENCE_MIN_LINKS
                    or len(origins) < 2 or len(receivers) < 2
                    or len(group) < INTERFERENCE_MIN_FRACTION * on_channel):
                continue
            if any(all(n in key for key in group)
                   for n in origins | receivers):
                continue  # one common endpoint: a node problem, not RF
            findings.append(Finding(
                kind="interference", channel=ch, node=min(receivers),
                confidence=min(0.95, 0.4 + 0.55 * len(group)
                               / max(1, on_channel)),
                summary=(f"{len(group)}/{on_channel} links on channel "
                         f"{ch} degraded simultaneously"),
                evidence={"links_degraded": len(group),
                          "links_on_channel": on_channel,
                          "origins": sorted(origins)},
            ))
            explained.update(group)
        dead: set[int] = set()
        out_links: dict[int, list[tuple[int, int]]] = {}
        for key in ordered:
            if self._links[key].beacons >= MIN_SAMPLES:
                out_links.setdefault(key[0], []).append(key)
        for origin in sorted(out_links):
            links = out_links[origin]
            if (all(key in silent for key in links)
                    and not any(key in explained for key in links)):
                dead.add(origin)
                worst = max(
                    self._links[key].silent_for(now, self._anchor_floor)
                    / self._links[key].expected_interval()
                    for key in links)
                findings.append(Finding(
                    kind="dead_node", node=origin,
                    confidence=min(0.95, 0.5 + 0.05
                                   * (worst - SILENCE_FACTOR)),
                    summary=(f"beacons stopped at all {len(links)} "
                             f"receiver(s) that were hearing it"),
                    evidence={"receivers": sorted(b for _, b in links),
                              "missed_intervals": worst},
                ))
        surviving: dict[tuple[int, int], Finding] = {}
        for key in ordered:
            finding = link_findings.get(key)
            if finding is None or key in explained:
                continue
            if key[0] in dead or key[1] in dead:
                continue  # symptom of the dead node, already named
            surviving[key] = finding
        for key in sorted(surviving):
            finding = surviving[key]
            mirror = surviving.get((key[1], key[0]))
            if mirror is not None:
                # Both directions degraded: one undirected verdict on
                # the canonical (low, high) pair, at the worse severity.
                if key[0] > key[1]:
                    continue
                if (FINDING_KINDS.index(mirror.kind)
                        < FINDING_KINDS.index(finding.kind)
                        or (mirror.kind == finding.kind
                            and mirror.confidence > finding.confidence)):
                    finding = Finding(
                        kind=mirror.kind, link=key,
                        confidence=mirror.confidence,
                        summary=mirror.summary, evidence=mirror.evidence)
            findings.append(finding)
        drift_by_origin: dict[int, list[float]] = {}
        for key in ordered:
            if key[0] in dead or key in explained:
                continue
            ratio = self._links[key].drift_ratio()
            if ratio is not None:
                drift_by_origin.setdefault(key[0], []).append(ratio)
        for origin in sorted(drift_by_origin):
            ratios = drift_by_origin[origin]
            mean_ratio = sum(ratios) / len(ratios)
            findings.append(Finding(
                kind="hotspot", node=origin,
                confidence=min(0.95, 0.5 + 5.0 * abs(mean_ratio)),
                summary=(f"beacon interval shifted {mean_ratio:+.1%} vs "
                         f"baseline - local clock drifting"),
                evidence={"interval_shift": mean_ratio,
                          "links_agreeing": len(ratios)},
            ))
        findings.sort(key=Finding.sort_key)
        self._account(findings, now)
        return findings

    def _account(self, findings: list[Finding], now: float) -> None:
        self.last_polled_at = now
        new = self._new.sift(findings)
        if self._monitor is None:
            return
        self._monitor.count("diag.online.polls")
        tracer = self.testbed.tracer
        for f in new:
            self._monitor.count("diag.online.findings")
            self._monitor.count(f"diag.online.finding.{f.kind}")
            if tracer.enabled:
                tracer.emit("diag.online.finding", now,
                            node=f.node, kind_label=f.kind,
                            subject=f.subject,
                            confidence=round(f.confidence, 3))

    def report(self, now: float | None = None) -> DiagnosisReport:
        """A :class:`DiagnosisReport` from the current state: the
        passive analogue of ``DiagnosisEngine.run`` (zero probes)."""
        findings = self.poll(now)
        at = self.last_polled_at if self.last_polled_at is not None else 0.0
        return DiagnosisReport(findings=findings, started_at=at,
                               finished_at=at, probes_run=0,
                               probes_failed=0)
