"""The fault engine: compiles a :class:`FaultPlan` into simulator events.

:func:`install_faults` walks a plan and schedules each spec's
activation/deactivation through :meth:`Environment.call_at`, so faults
interleave with traffic in ordinary event order.  Each world has one
:class:`FaultInjector` (``medium.faults``), created by the first active
plan; every later plan compiles into the same injector, so plans
installed on one world accumulate.  The injector is also the medium's
live fault interface — the radio hot path queries it for the injected
noise floor and for packet-corruption rolls.

Determinism contract (the one the chaos property tests assert):

* An inert plan (``enabled=False`` or no specs) installs **nothing**:
  no events, no RNG stream, no medium hook — runs are byte-identical
  to runs with no plan at all.
* All stochastic faults draw from the dedicated ``faults`` stream, so
  an active plan never perturbs the draw order of any other subsystem;
  the same seed and plan reproduce the same injured world bit-for-bit.
"""

from __future__ import annotations

import typing as _t

from repro.faults.spec import FaultPlan, FaultSpec
from repro.radio.medium import flip_bits

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.testbed import Testbed

__all__ = ["FaultInjector", "install_faults"]

#: Number of discrete steps a ramped ``link_degrade`` climbs in.
RAMP_STEPS = 8


class FaultInjector:
    """Live fault state for one world, fed by every plan installed on it:
    :meth:`install` schedules a plan's edges, whose callbacks mutate
    node/link/queue state; the medium pulls noise offsets and corruption
    rolls from it."""

    def __init__(self, testbed: "Testbed"):
        self.testbed = testbed
        #: Every plan installed so far, in installation order.
        self.plans: list[FaultPlan] = []
        self.env = testbed.env
        self.monitor = testbed.monitor
        #: Dedicated stream: stochastic faults draw only from here.
        self.rng = testbed.rng.stream("faults")
        #: Injected noise-floor raise per channel (dB, additive).
        self._noise: dict[int, float] = {}
        #: Active packet_corrupt specs: (probability, scope-or-None).
        self._corrupters: list[tuple[float, frozenset[int] | None]] = []
        #: Saved queue capacities, restored on deactivation.
        self._saved_capacity: dict[int, int] = {}
        #: True while any packet_corrupt spec is active (medium fast-path
        #: gate: one attribute read when no corruption is in flight).
        self.corrupt_active = False
        #: Activation counter per kind, for tests and reports.
        self.activations: dict[str, int] = {}

    def install(self, plan: FaultPlan) -> None:
        """Compile ``plan``'s specs into events.  Spec indices in trace
        events continue across plans, so each names one spec."""
        first = sum(len(p) for p in self.plans)
        self.plans.append(plan)
        for index, spec in enumerate(plan.specs, start=first):
            self._compile(index, spec)

    # -- medium interface ---------------------------------------------------

    def noise_offset_dbm(self, channel: int) -> float:
        """Injected noise-floor raise on ``channel`` (0.0 when quiet)."""
        return self._noise.get(channel, 0.0) if self._noise else 0.0

    def corrupt_roll(self, receiver_id: int) -> bool:
        """Decide whether one successful reception gets corrupted.

        One uniform draw per active corrupter that scopes the receiver —
        all from the faults stream, so the medium's own streams see the
        same sequence of draws they would without the plan.
        """
        for probability, scope in self._corrupters:
            if scope is not None and receiver_id not in scope:
                continue
            if self.rng.random() < probability:
                return True
        return False

    def corrupt_payload(self, payload: bytes) -> bytes:
        """A CRC-breaking copy of ``payload``: the medium's bit flipper,
        drawing from the faults stream."""
        return flip_bits(payload, self.rng)

    # -- compilation --------------------------------------------------------

    def _compile(self, index: int, spec: FaultSpec) -> None:
        kind = spec.kind
        if kind in ("node_crash", "node_reboot"):
            self._at(spec.at, index, spec, "activate",
                     lambda s=spec: self._crash(s))
            ends = spec.ends_at
            if ends is not None:
                self._at(ends, index, spec, "deactivate",
                         lambda s=spec: self._recover(s))
        elif kind == "link_degrade":
            if spec.ramp_s > 0:
                step_db = spec.loss_db / RAMP_STEPS
                step_s = spec.ramp_s / RAMP_STEPS
                for k in range(1, RAMP_STEPS + 1):
                    label = "activate" if k == RAMP_STEPS else "ramp"
                    self._at(spec.at + k * step_s, index, spec, label,
                             lambda s=spec, d=step_db:
                             self._shift_link(s, d))
            else:
                self._at(spec.at, index, spec, "activate",
                         lambda s=spec: self._shift_link(s, s.loss_db))
            if spec.ends_at is not None:
                self._at(spec.ends_at, index, spec, "deactivate",
                         lambda s=spec: self._shift_link(s, -s.loss_db))
        elif kind == "interference_burst":
            self._at(spec.at, index, spec, "activate",
                     lambda s=spec: self._shift_noise(s, s.loss_db))
            if spec.ends_at is not None:
                self._at(spec.ends_at, index, spec, "deactivate",
                         lambda s=spec: self._shift_noise(s, -s.loss_db))
        elif kind == "packet_corrupt":
            self._at(spec.at, index, spec, "activate",
                     lambda s=spec: self._corrupt_on(s))
            if spec.ends_at is not None:
                self._at(spec.ends_at, index, spec, "deactivate",
                         lambda s=spec: self._corrupt_off(s))
        elif kind == "queue_saturate":
            self._at(spec.at, index, spec, "activate",
                     lambda s=spec: self._clamp_queues(s))
            if spec.ends_at is not None:
                self._at(spec.ends_at, index, spec, "deactivate",
                         lambda s=spec: self._restore_queues(s))
        elif kind == "clock_drift":
            self._at(spec.at, index, spec, "activate",
                     lambda s=spec: self._set_drift(s, 1.0 + s.drift))
            if spec.ends_at is not None:
                self._at(spec.ends_at, index, spec, "deactivate",
                         lambda s=spec: self._set_drift(s, 1.0))

    def _at(self, when: float, index: int, spec: FaultSpec, edge: str,
            fn: _t.Callable[[], None]) -> None:
        def fire() -> None:
            fn()
            self._note(index, spec, edge)
        self.env.call_at(when, fire)

    def _note(self, index: int, spec: FaultSpec, edge: str) -> None:
        monitor = self.monitor
        if edge in ("activate", "ramp"):
            if edge == "activate":
                self.activations[spec.kind] = (
                    self.activations.get(spec.kind, 0) + 1
                )
            monitor.count("faults.activations")
            monitor.count(f"faults.{spec.kind}.activations")
        else:
            monitor.count("faults.deactivations")
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit(
                f"fault.{edge}", self.env.now, spec=index,
                fault_kind=spec.kind,
                nodes=list(spec.nodes) or None,
                link=list(spec.link) if spec.link else None,
                channel=spec.channel,
            )

    # -- per-kind actions ----------------------------------------------------

    def _crash(self, spec: FaultSpec) -> None:
        for node_id in spec.nodes:
            self.testbed.node(node_id).fail()

    def _recover(self, spec: FaultSpec) -> None:
        for node_id in spec.nodes:
            self.testbed.node(node_id).recover()

    def _shift_link(self, spec: FaultSpec, delta_db: float) -> None:
        propagation = self.testbed.propagation
        a, b = spec.link  # type: ignore[misc]
        pairs = ((a, b),) if spec.directed else ((a, b), (b, a))
        for src, dst in pairs:
            current = propagation.link_penalty_db(src, dst)
            propagation.set_link_penalty_db(src, dst, current + delta_db)

    def _shift_noise(self, spec: FaultSpec, delta_db: float) -> None:
        channel = spec.channel
        value = self._noise.get(channel, 0.0) + delta_db
        if abs(value) < 1e-12:
            self._noise.pop(channel, None)
        else:
            self._noise[channel] = value

    def _corrupt_on(self, spec: FaultSpec) -> None:
        scope = frozenset(spec.nodes) if spec.nodes else None
        self._corrupters.append((spec.probability, scope))
        self.corrupt_active = True

    def _corrupt_off(self, spec: FaultSpec) -> None:
        scope = frozenset(spec.nodes) if spec.nodes else None
        self._corrupters.remove((spec.probability, scope))
        self.corrupt_active = bool(self._corrupters)

    def _clamp_queues(self, spec: FaultSpec) -> None:
        for node_id in spec.nodes:
            queue = self.testbed.node(node_id).mac.queue
            self._saved_capacity.setdefault(node_id, queue.capacity)
            queue.set_capacity(spec.capacity)  # type: ignore[arg-type]

    def _restore_queues(self, spec: FaultSpec) -> None:
        for node_id in spec.nodes:
            original = self._saved_capacity.pop(node_id, None)
            if original is not None:
                self.testbed.node(node_id).mac.queue.set_capacity(original)

    def _set_drift(self, spec: FaultSpec, rate: float) -> None:
        for node_id in spec.nodes:
            self.testbed.node(node_id).set_clock_rate(rate)


def install_faults(testbed: "Testbed",
                   plan: "FaultPlan | str | _t.Mapping | None",
                   ) -> FaultInjector | None:
    """Install ``plan`` on ``testbed``; returns the injector, or ``None``.

    Accepts any form :meth:`FaultPlan.from_param` does; raises
    :class:`~repro.errors.PlanError` for a node the world lacks.  Inert
    plans return ``None`` and leave the world untouched — no events, no
    RNG stream, no medium hook.  An active plan compiles into the
    world's one injector (created by the first), beside earlier plans.
    """
    plan = FaultPlan.from_param(plan)
    plan.check_scope(testbed)
    if not plan.is_active:
        return None
    injector = testbed.medium.faults
    if injector is None:
        injector = testbed.medium.faults = FaultInjector(testbed)
    injector.install(plan)
    return injector
