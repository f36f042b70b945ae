"""Time-varying geometry: declarative mobility plans for node motion.

Static geometry was the last world-level constant: faults break links,
workloads shape traffic, but every node stood still.  A
:class:`MobilityPlan` is the motion analogue of a fault plan — a list of
timed, scoped :class:`MobilitySpec` entries (linear drift, fixed
waypoint tours, random-waypoint wandering) that a
:class:`MobilityDriver` compiles into timed
:meth:`~repro.sim.engine.Environment.call_at` position updates, each of
which flows through ``SensorNode.position`` into the medium's per-node
incremental invalidation (see the "Time-varying geometry" section of
:mod:`repro.radio.medium`).

Mobility plans share the fault plans' codec and contracts
(:mod:`repro.plan`): an inert plan installs *nothing* (no events, no
RNG stream, byte-identical packet digests), plans round-trip through
canonical JSON as campaign parameters, and decoding checks them.
Stochastic motion (``random_waypoint``) draws only from the dedicated
``"mobility"`` stream, eagerly at each spec's activation instant, so the
same seed and plan reproduce the same trajectories bit-for-bit.

Motion is discretised on each spec's ``update_every`` cadence (default
1 s): positions move in steps, which is exactly what the medium's
pending-mover patching is built to absorb — each step costs
O(local density), not O(N).
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass

from repro.errors import PlanError
from repro.plan import Plan, Spec

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.testbed import Testbed

__all__ = [
    "MOBILITY_KINDS",
    "MobilitySpec",
    "MobilityPlan",
    "MobilityDriver",
    "install_mobility",
]

#: The motion vocabulary, in the order the docs describe them.
MOBILITY_KINDS = ("linear_drift", "waypoint", "random_waypoint")

#: The most position updates one spec may schedule, counted as
#: ``len(nodes) * span / update_every``: a finite ``duration`` alone
#: does not bound the work an activation does or the events it queues.
MAX_POSITION_UPDATES = 100_000


@dataclass(frozen=True)
class MobilitySpec(Spec):
    """One timed, scoped motion pattern.

    ``kind`` selects the model; the fields that apply depend on it (see
    :meth:`validate`):

    ===============  ====================================================
    kind             required fields
    ===============  ====================================================
    linear_drift     ``nodes``, ``velocity`` (vx, vy m/s), ``duration``
    waypoint         ``nodes``, ``waypoints`` ((dt, x, y), ... — offsets
                     from ``at``, strictly increasing)
    random_waypoint  ``nodes``, ``duration``, ``area`` (xmin, ymin,
                     xmax, ymax), ``speed`` (vmin, vmax m/s);
                     ``pause_s`` optional
    ===============  ====================================================

    ``at`` is the activation time in simulated seconds.  Motion is
    discretised every ``update_every`` seconds; the final update of a
    drift/leg always lands exactly on its endpoint.
    """

    kind: str
    at: float = 0.0
    duration: float | None = None
    nodes: tuple[int, ...] = ()
    velocity: tuple[float, float] | None = None
    waypoints: tuple[tuple[float, float, float], ...] = ()
    area: tuple[float, float, float, float] | None = None
    speed: tuple[float, float] | None = None
    pause_s: float = 0.0
    update_every: float = 1.0

    def __post_init__(self) -> None:
        # Normalise sequence fields so JSON round-trips compare equal.
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))
        if self.velocity is not None:
            vx, vy = self.velocity
            object.__setattr__(self, "velocity", (float(vx), float(vy)))
        object.__setattr__(
            self, "waypoints",
            tuple((float(t), float(x), float(y))
                  for t, x, y in self.waypoints))
        if self.area is not None:
            object.__setattr__(
                self, "area", tuple(float(v) for v in self.area))
        if self.speed is not None:
            lo, hi = self.speed
            object.__setattr__(self, "speed", (float(lo), float(hi)))
        self.validate()

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`PlanError` unless the spec is internally consistent."""
        if self.kind not in MOBILITY_KINDS:
            raise PlanError(
                f"unknown mobility kind {self.kind!r} "
                f"(one of {MOBILITY_KINDS})")
        if self.at < 0:
            raise PlanError(f"activation time must be >= 0, got {self.at}")
        if self.update_every <= 0:
            raise PlanError(
                f"update_every must be positive, got {self.update_every}")
        if not self.nodes:
            raise PlanError(f"{self.kind} requires a non-empty node scope")
        kind = self.kind
        if kind == "linear_drift":
            if self.velocity is None:
                raise PlanError("linear_drift requires velocity=(vx, vy)")
            if self.duration is None or self.duration <= 0:
                raise PlanError(
                    "linear_drift requires a finite positive duration "
                    "(unbounded drift would schedule unbounded events)")
        elif kind == "waypoint":
            if not self.waypoints:
                raise PlanError("waypoint requires at least one waypoint")
            times = [t for t, _, _ in self.waypoints]
            if times[0] < 0:
                raise PlanError("waypoint offsets must be >= 0")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise PlanError(
                    "waypoint offsets must be strictly increasing")
        elif kind == "random_waypoint":
            if self.duration is None or self.duration <= 0:
                raise PlanError(
                    "random_waypoint requires a finite positive duration")
            if self.area is None:
                raise PlanError(
                    "random_waypoint requires area=(xmin, ymin, xmax, ymax)")
            xmin, ymin, xmax, ymax = self.area
            if xmax <= xmin or ymax <= ymin:
                raise PlanError(f"degenerate area {self.area}")
            if self.speed is None:
                raise PlanError(
                    "random_waypoint requires speed=(vmin, vmax)")
            vmin, vmax = self.speed
            if not 0.0 < vmin <= vmax:
                raise PlanError(
                    f"random_waypoint requires 0 < vmin <= vmax, "
                    f"got {self.speed}")
            if self.pause_s < 0:
                raise PlanError(f"pause_s must be >= 0, got {self.pause_s}")
        span = self.ends_at - self.at
        updates = len(self.nodes) * (span / self.update_every)
        if updates > MAX_POSITION_UPDATES:
            raise PlanError(f"{kind} would schedule {updates:.0f} position "
                            f"updates (at most {MAX_POSITION_UPDATES})")

    @property
    def ends_at(self) -> float:
        """The time after which this spec schedules nothing further."""
        if self.kind == "waypoint":
            return self.at + self.waypoints[-1][0]
        return self.at + float(self.duration or 0.0)


class MobilityPlan(Plan):
    """An ordered collection of motion specs for one run; an inert one
    (disabled or empty) installs nothing and consumes no RNG."""

    spec_type = MobilitySpec


# -- models ------------------------------------------------------------------
#
# A model runs at ``spec.at`` and turns one (spec, node) into the
# ``(time, x, y)`` itinerary the driver schedules, drawing any randomness
# from ``driver.rng`` then, so the whole trajectory is fixed at once.

_Itinerary = list[tuple[float, float, float]]


def _ticks(start: float, end: float, step: float) -> list[float]:
    """The update instants for one leg: the cadence grid after ``start``
    plus ``end`` itself (a leg always lands exactly on its endpoint)."""
    out = []
    n = 1
    t = start + step
    while t < end - 1e-12:
        out.append(t)
        n += 1
        t = start + n * step
    out.append(end)
    return out


def _linear_drift(driver: "MobilityDriver", spec: MobilitySpec,
                  node_id: int) -> _Itinerary:
    """Constant-velocity drift from wherever the node is at activation."""
    x0, y0 = driver.testbed.node(node_id).position
    vx, vy = spec.velocity  # type: ignore[misc]
    return [
        (t, x0 + vx * (t - spec.at), y0 + vy * (t - spec.at))
        for t in _ticks(spec.at, spec.at + spec.duration, spec.update_every)
    ]


def _waypoint(driver: "MobilityDriver", spec: MobilitySpec,
              node_id: int) -> _Itinerary:
    """A fixed tour: at each waypoint offset the node is exactly there,
    moving piecewise-linearly (on the update cadence) in between.  The
    first waypoint is approached from the node's activation position."""
    pos = driver.testbed.node(node_id).position
    out: _Itinerary = []
    leg_start, (px, py) = spec.at, pos
    for dt, wx, wy in spec.waypoints:
        leg_end = spec.at + dt
        span = leg_end - leg_start
        for t in _ticks(leg_start, leg_end, spec.update_every):
            frac = (t - leg_start) / span if span > 0 else 1.0
            out.append((t, px + (wx - px) * frac, py + (wy - py) * frac))
        leg_start, (px, py) = leg_end, (wx, wy)
    return out


def _random_waypoint(driver: "MobilityDriver", spec: MobilitySpec,
                     node_id: int) -> _Itinerary:
    """Classic random waypoint inside ``spec.area``: pick a uniform
    target and a uniform speed in ``spec.speed``, travel, pause
    ``spec.pause_s``, repeat until ``spec.duration`` is spent.  All
    draws come from the dedicated mobility stream at activation.

    Every leg yields at least one update however short it is, so the
    duration alone does not bound the work (a tiny area crossed at high
    speed packs thousands of legs into a second): no further leg is
    drawn once the node holds its share of :data:`MAX_POSITION_UPDATES`.
    """
    rng = driver.rng
    xmin, ymin, xmax, ymax = spec.area  # type: ignore[misc]
    vmin, vmax = spec.speed  # type: ignore[misc]
    x, y = driver.testbed.node(node_id).position
    out: _Itinerary = []
    t = spec.at
    horizon = spec.at + spec.duration
    share = MAX_POSITION_UPDATES / len(spec.nodes)
    while t < horizon - 1e-12 and len(out) < share:
        tx = float(rng.uniform(xmin, xmax))
        ty = float(rng.uniform(ymin, ymax))
        v = float(rng.uniform(vmin, vmax))
        dist = math.hypot(tx - x, ty - y)
        leg_end = min(t + dist / v, horizon) if dist > 0 else t
        if leg_end > t:
            span = leg_end - t
            # Clip the leg at the horizon: interpolate toward the
            # target only as far as time allows.
            reach = span * v / dist
            for tick in _ticks(t, leg_end, spec.update_every):
                frac = (tick - t) / span * reach
                out.append((tick, x + (tx - x) * frac, y + (ty - y) * frac))
            x, y = out[-1][1], out[-1][2]
            t = leg_end
        t += spec.pause_s if spec.pause_s > 0 else 0.0
        if spec.pause_s <= 0 and dist <= 0:
            break  # degenerate: already at the drawn target
    return out


#: kind -> model function ``(driver, spec, node_id) -> itinerary``.
MODELS: dict[str, _t.Callable[..., _Itinerary]] = {
    "linear_drift": _linear_drift,
    "waypoint": _waypoint,
    "random_waypoint": _random_waypoint,
}


# -- driver ------------------------------------------------------------------


class MobilityDriver:
    """Live mobility state for one run, installed from a plan.

    Construction schedules one activation event per (spec, node); each
    activation materialises its itinerary (reading the node's position,
    drawing any randomness) and schedules the position updates.  After
    that the driver is passive — every update is a plain
    ``node.position = (x, y)`` assignment flowing through the medium's
    incremental invalidation.
    """

    def __init__(self, testbed: "Testbed", plan: MobilityPlan):
        self.testbed = testbed
        self.plan = plan
        self.env = testbed.env
        self.monitor = testbed.monitor
        #: Dedicated stream: stochastic motion draws only from here.
        self.rng = testbed.rng.stream("mobility")
        #: Position updates actually applied, per node.
        self.updates: dict[int, int] = {}
        #: Activation counter per kind, for tests and reports.
        self.activations: dict[str, int] = {}
        self._c_updates = testbed.monitor.registry.counter("mobility.updates")
        for spec in plan.specs:
            model = MODELS[spec.kind]
            for node_id in spec.nodes:
                self.env.call_at(
                    spec.at,
                    lambda m=model, s=spec, n=node_id: self._activate(m, s, n))

    def _activate(self, model: _t.Callable[..., _Itinerary],
                  spec: MobilitySpec, node_id: int) -> None:
        self.activations[spec.kind] = self.activations.get(spec.kind, 0) + 1
        self.monitor.count("mobility.activations")
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit("mobility.activate", self.env.now,
                        mobility_kind=spec.kind, node=node_id)
        for when, x, y in model(self, spec, node_id):
            self.env.call_at(
                when, lambda n=node_id, p=(x, y): self._apply(n, p))

    def _apply(self, node_id: int, position: tuple[float, float]) -> None:
        self.testbed.node(node_id).position = position
        self.updates[node_id] = self.updates.get(node_id, 0) + 1
        self._c_updates.value += 1


def install_mobility(testbed: "Testbed",
                     plan: "MobilityPlan | str | _t.Mapping | None",
                     ) -> MobilityDriver | None:
    """Install ``plan`` on ``testbed``; returns the driver, or ``None``.

    Accepts any form :meth:`MobilityPlan.from_param` does; raises
    :class:`~repro.errors.PlanError` for a node the world lacks.  Inert
    plans return ``None`` and leave the world untouched — no events, no
    RNG stream, no counters.
    """
    plan = MobilityPlan.from_param(plan)
    plan.check_scope(testbed)
    if not plan.is_active:
        return None
    return MobilityDriver(testbed, plan)
