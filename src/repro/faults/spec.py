"""Declarative fault plans: what breaks, where, when, and how badly.

LiteView exists to diagnose *broken* communication paths, so the
simulator must be able to produce broken paths on demand.  A
:class:`FaultPlan` is a list of timed, scoped :class:`FaultSpec`
entries — dead nodes, degraded links, interference bursts, corrupted
packets, saturated queues, drifting clocks — that the fault engine
(:mod:`repro.faults.engine`) compiles into simulator events.

A plan is pure data: stochastic faults draw from one dedicated RNG
stream, so the same seed and plan reproduce the same injured world
bit-for-bit.  The codec — canonical JSON, so chaos grids are ordinary
campaign parameters — and its checked decoding are :mod:`repro.plan`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError
from repro.plan import Plan, Spec
from repro.radio.cc2420 import MAX_CHANNEL, MIN_CHANNEL

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS"]

#: The fault vocabulary, in the order the docs describe them.
FAULT_KINDS = (
    "node_crash",          # radio off, queue lost; optional reboot after
    "node_reboot",         # short outage + kernel state cleared
    "link_degrade",        # extra path loss on a node pair, optionally ramped
    "interference_burst",  # per-channel noise-floor raise
    "packet_corrupt",      # probabilistic CRC-breaking bit flips at receivers
    "queue_saturate",      # clamp a node's MAC queue capacity
    "clock_drift",         # node-local clock rate error
)

#: Default downtime of a ``node_reboot`` when no duration is given.
DEFAULT_REBOOT_DOWNTIME = 1.0


@dataclass(frozen=True)
class FaultSpec(Spec):
    """One timed, scoped fault.

    ``kind`` selects the failure mode; the scope and magnitude fields
    that apply depend on it (see :meth:`validate`):

    ===================  =========================================
    kind                 required fields
    ===================  =========================================
    node_crash           ``nodes``; ``duration`` optional (reboot)
    node_reboot          ``nodes``; ``duration`` = downtime
    link_degrade         ``link``, ``loss_db``; ``ramp_s`` optional
    interference_burst   ``channel``, ``loss_db`` (noise raise, dB)
    packet_corrupt       ``probability``; ``nodes`` optional scope
    queue_saturate       ``nodes``, ``capacity``
    clock_drift          ``nodes``, ``drift`` (rate error, e.g. 0.02)
    ===================  =========================================

    ``at`` is the activation time in simulated seconds; ``duration``
    (where meaningful) bounds the fault window, ``None`` meaning "until
    the end of the run".  ``link_degrade`` applies to both directions of
    ``link`` unless ``directed`` is set.
    """

    kind: str
    at: float = 0.0
    duration: float | None = None
    nodes: tuple[int, ...] = ()
    link: tuple[int, int] | None = None
    channel: int | None = None
    loss_db: float = 0.0
    ramp_s: float = 0.0
    probability: float = 0.0
    capacity: int | None = None
    drift: float = 0.0
    directed: bool = False

    def __post_init__(self) -> None:
        # Normalise list-bearing fields so JSON round-trips compare equal.
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))
        if self.link is not None:
            a, b = self.link
            object.__setattr__(self, "link", (int(a), int(b)))
        self.validate()

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`PlanError` unless the spec is internally consistent."""
        if self.kind not in FAULT_KINDS:
            raise PlanError(
                f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})"
            )
        if self.at < 0:
            raise PlanError(f"fault time must be >= 0, got {self.at}")
        if self.duration is not None and self.duration <= 0:
            raise PlanError(f"duration must be positive, got {self.duration}")
        if self.ramp_s < 0:
            raise PlanError(f"ramp_s must be >= 0, got {self.ramp_s}")
        kind = self.kind
        if kind in ("node_crash", "node_reboot", "queue_saturate",
                    "clock_drift") and not self.nodes:
            raise PlanError(f"{kind} requires a non-empty node scope")
        if kind == "link_degrade":
            if self.link is None:
                raise PlanError("link_degrade requires link=(a, b)")
            if self.loss_db <= 0:
                raise PlanError("link_degrade requires loss_db > 0")
        if self.channel is not None and not (
                MIN_CHANNEL <= self.channel <= MAX_CHANNEL):
            raise PlanError(f"channel must be {MIN_CHANNEL}..{MAX_CHANNEL}, "
                            f"got {self.channel}")
        if kind == "interference_burst":
            if self.channel is None:
                raise PlanError("interference_burst requires a channel")
            if self.loss_db <= 0:
                raise PlanError("interference_burst requires loss_db > 0 "
                                "(the noise-floor raise)")
        if kind == "packet_corrupt" and not 0.0 < self.probability <= 1.0:
            raise PlanError(
                f"packet_corrupt requires 0 < probability <= 1, "
                f"got {self.probability}"
            )
        if kind == "queue_saturate" and (self.capacity is None
                                         or self.capacity < 1):
            raise PlanError("queue_saturate requires capacity >= 1")
        if kind == "clock_drift" and self.drift <= -1.0:
            raise PlanError("clock_drift requires drift > -1 "
                            "(a clock cannot run backwards)")

    # -- timing ---------------------------------------------------------------

    @property
    def downtime(self) -> float | None:
        """The outage length for node faults (reboots default theirs)."""
        if self.kind == "node_reboot" and self.duration is None:
            return DEFAULT_REBOOT_DOWNTIME
        return self.duration

    @property
    def ends_at(self) -> float | None:
        """Deactivation time, or ``None`` for an open-ended fault."""
        window = (self.downtime if self.kind in ("node_crash", "node_reboot")
                  else self.duration)
        return None if window is None else self.at + window


class FaultPlan(Plan):
    """An ordered collection of faults for one run; an inert one
    (disabled or empty) installs nothing and consumes no RNG."""

    spec_type = FaultSpec
