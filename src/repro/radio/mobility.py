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

The contracts mirror :mod:`repro.faults` exactly:

* **Determinism** — an inert plan (``enabled=False`` or no specs)
  installs *nothing*: no events, no RNG stream, packet digests are
  byte-identical to a run with no plan at all.  Stochastic motion
  (``random_waypoint``) draws only from the dedicated ``"mobility"``
  stream, itineraries are drawn eagerly at each spec's activation
  instant (never interleaved with traffic-dependent state), so the same
  seed and plan reproduce the same trajectories bit-for-bit.
* **Campaign integration** — plans round-trip through canonical JSON
  (:meth:`MobilityPlan.to_param` / :meth:`MobilityPlan.from_param`), so
  mobility grids shard, cache and derive per-run seeds like any other
  swept campaign parameter.

Motion is discretised on each spec's ``update_every`` cadence (default
1 s): positions move in steps, which is exactly what the medium's
pending-mover patching is built to absorb — each step costs
O(local density), not O(N).
"""

from __future__ import annotations

import json
import math
import typing as _t
from dataclasses import dataclass, fields

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.testbed import Testbed

__all__ = [
    "MOBILITY_KINDS",
    "MobilitySpec",
    "MobilityPlan",
    "MobilityModel",
    "LinearDrift",
    "Waypoint",
    "RandomWaypoint",
    "MobilityDriver",
    "install_mobility",
]

#: The motion vocabulary, in the order the docs describe them.
MOBILITY_KINDS = ("linear_drift", "waypoint", "random_waypoint")


@dataclass(frozen=True)
class MobilitySpec:
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
        """Raise ``ValueError`` unless the spec is internally consistent."""
        if self.kind not in MOBILITY_KINDS:
            raise ValueError(
                f"unknown mobility kind {self.kind!r} "
                f"(one of {MOBILITY_KINDS})")
        if self.at < 0:
            raise ValueError(f"activation time must be >= 0, got {self.at}")
        if self.update_every <= 0:
            raise ValueError(
                f"update_every must be positive, got {self.update_every}")
        if not self.nodes:
            raise ValueError(f"{self.kind} requires a non-empty node scope")
        kind = self.kind
        if kind == "linear_drift":
            if self.velocity is None:
                raise ValueError("linear_drift requires velocity=(vx, vy)")
            if self.duration is None or self.duration <= 0:
                raise ValueError(
                    "linear_drift requires a finite positive duration "
                    "(unbounded drift would schedule unbounded events)")
        elif kind == "waypoint":
            if not self.waypoints:
                raise ValueError("waypoint requires at least one waypoint")
            times = [t for t, _, _ in self.waypoints]
            if times[0] < 0:
                raise ValueError("waypoint offsets must be >= 0")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError(
                    "waypoint offsets must be strictly increasing")
        elif kind == "random_waypoint":
            if self.duration is None or self.duration <= 0:
                raise ValueError(
                    "random_waypoint requires a finite positive duration")
            if self.area is None:
                raise ValueError(
                    "random_waypoint requires area=(xmin, ymin, xmax, ymax)")
            xmin, ymin, xmax, ymax = self.area
            if xmax <= xmin or ymax <= ymin:
                raise ValueError(f"degenerate area {self.area}")
            if self.speed is None:
                raise ValueError(
                    "random_waypoint requires speed=(vmin, vmax)")
            vmin, vmax = self.speed
            if not 0.0 < vmin <= vmax:
                raise ValueError(
                    f"random_waypoint requires 0 < vmin <= vmax, "
                    f"got {self.speed}")
            if self.pause_s < 0:
                raise ValueError(f"pause_s must be >= 0, got {self.pause_s}")

    @property
    def ends_at(self) -> float:
        """The time after which this spec schedules nothing further."""
        if self.kind == "waypoint":
            return self.at + self.waypoints[-1][0]
        return self.at + float(self.duration or 0.0)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form, defaults omitted so encodings stay canonical."""
        out: dict[str, object] = {"kind": self.kind, "at": self.at}
        for f in fields(self):
            if f.name in ("kind", "at"):
                continue
            value = getattr(self, f.name)
            if value == f.default:
                continue
            if f.name in ("nodes", "velocity", "area", "speed"):
                value = list(value)
            elif f.name == "waypoints":
                value = [list(w) for w in value]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: _t.Mapping) -> "MobilitySpec":
        kwargs = dict(data)
        for key in ("nodes", "velocity", "area", "speed"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        if "waypoints" in kwargs:
            kwargs["waypoints"] = tuple(tuple(w) for w in kwargs["waypoints"])
        return cls(**kwargs)


@dataclass(frozen=True)
class MobilityPlan:
    """An ordered collection of motion specs for one run.

    ``enabled=False`` (or an empty spec list) makes the plan inert: the
    driver installs nothing, consumes no RNG, and the run is
    byte-identical to one with no plan at all — the property the
    mobility determinism tests assert.
    """

    name: str = ""
    specs: tuple[MobilitySpec, ...] = ()
    enabled: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def is_active(self) -> bool:
        """Whether installing this plan changes anything."""
        return self.enabled and bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "enabled": self.enabled,
            "specs": [s.to_dict() for s in self.specs],
        }

    @classmethod
    def from_dict(cls, data: _t.Mapping) -> "MobilityPlan":
        return cls(
            name=data.get("name", ""),
            enabled=bool(data.get("enabled", True)),
            specs=tuple(MobilitySpec.from_dict(s)
                        for s in data.get("specs", ())),
        )

    def to_param(self) -> str:
        """Canonical JSON — the campaign-parameter form (sorted keys,
        fixed separators: equal plans encode to equal strings)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_param(cls, param: "str | _t.Mapping | MobilityPlan | None",
                   ) -> "MobilityPlan":
        """Decode a campaign parameter back into a plan (accepts the
        canonical JSON string, a mapping, a plan, or ``None``)."""
        if param is None or param == "null":
            return cls(enabled=False)
        if isinstance(param, MobilityPlan):
            return param
        if isinstance(param, str):
            param = json.loads(param)
        return cls.from_dict(param)  # type: ignore[arg-type]


# -- models ------------------------------------------------------------------


class MobilityModel(_t.Protocol):
    """A motion pattern: turns one (spec, node) into a timed itinerary.

    ``activate`` runs at ``spec.at`` via the driver; it reads whatever
    start state it needs (typically the node's current position) and
    returns the itinerary as ``(time, x, y)`` triples for the driver to
    schedule.  Stochastic models draw from ``driver.rng`` — eagerly,
    inside ``activate``, so a spec's entire trajectory is fixed at one
    instant regardless of how traffic interleaves afterwards.
    """

    kind: str

    def activate(self, driver: "MobilityDriver", spec: MobilitySpec,
                 node_id: int) -> list[tuple[float, float, float]]:
        ...  # pragma: no cover


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


class LinearDrift:
    """Constant-velocity drift from wherever the node is at activation."""

    kind = "linear_drift"

    def activate(self, driver: "MobilityDriver", spec: MobilitySpec,
                 node_id: int) -> list[tuple[float, float, float]]:
        x0, y0 = driver.testbed.node(node_id).position
        vx, vy = spec.velocity  # type: ignore[misc]
        return [
            (t, x0 + vx * (t - spec.at), y0 + vy * (t - spec.at))
            for t in _ticks(spec.at, spec.at + spec.duration,
                            spec.update_every)
        ]


class Waypoint:
    """A fixed tour: at each waypoint offset the node is exactly there,
    moving piecewise-linearly (on the update cadence) in between.  The
    first waypoint is approached from the node's activation position."""

    kind = "waypoint"

    def activate(self, driver: "MobilityDriver", spec: MobilitySpec,
                 node_id: int) -> list[tuple[float, float, float]]:
        pos = driver.testbed.node(node_id).position
        out: list[tuple[float, float, float]] = []
        leg_start, (px, py) = spec.at, pos
        for dt, wx, wy in spec.waypoints:
            leg_end = spec.at + dt
            span = leg_end - leg_start
            for t in _ticks(leg_start, leg_end, spec.update_every):
                frac = (t - leg_start) / span if span > 0 else 1.0
                out.append((t, px + (wx - px) * frac, py + (wy - py) * frac))
            leg_start, (px, py) = leg_end, (wx, wy)
        return out


class RandomWaypoint:
    """Classic random waypoint inside ``spec.area``: pick a uniform
    target and a uniform speed in ``spec.speed``, travel, pause
    ``spec.pause_s``, repeat until ``spec.duration`` is spent.  All
    draws come from the dedicated mobility stream at activation."""

    kind = "random_waypoint"

    def activate(self, driver: "MobilityDriver", spec: MobilitySpec,
                 node_id: int) -> list[tuple[float, float, float]]:
        rng = driver.rng
        xmin, ymin, xmax, ymax = spec.area  # type: ignore[misc]
        vmin, vmax = spec.speed  # type: ignore[misc]
        x, y = driver.testbed.node(node_id).position
        out: list[tuple[float, float, float]] = []
        t = spec.at
        horizon = spec.at + spec.duration
        while t < horizon - 1e-12:
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
                    out.append((tick, x + (tx - x) * frac,
                                y + (ty - y) * frac))
                x, y = out[-1][1], out[-1][2]
                t = leg_end
            t += spec.pause_s if spec.pause_s > 0 else 0.0
            if spec.pause_s <= 0 and dist <= 0:
                break  # degenerate: already at the drawn target
        return out


#: kind -> stateless model singleton.
MODELS: dict[str, MobilityModel] = {
    m.kind: m() for m in (LinearDrift, Waypoint, RandomWaypoint)
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
        self._c_updates = testbed.monitor.counter_obj("mobility.updates")
        for spec in plan.specs:
            model = MODELS[spec.kind]
            for node_id in spec.nodes:
                self.env.call_at(
                    spec.at,
                    lambda m=model, s=spec, n=node_id: self._activate(m, s, n))

    def _activate(self, model: MobilityModel, spec: MobilitySpec,
                  node_id: int) -> None:
        self.activations[spec.kind] = self.activations.get(spec.kind, 0) + 1
        self.monitor.count("mobility.activations")
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit("mobility.activate", self.env.now,
                        mobility_kind=spec.kind, node=node_id)
        for when, x, y in model.activate(self, spec, node_id):
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

    Accepts any form :meth:`MobilityPlan.from_param` does (a plan, its
    canonical JSON, a mapping, or ``None``).  Inert plans return
    ``None`` and leave the world completely untouched — no events
    scheduled, no RNG stream created, no counters registered.
    """
    plan = MobilityPlan.from_param(plan)
    if not plan.is_active:
        return None
    return MobilityDriver(testbed, plan)
