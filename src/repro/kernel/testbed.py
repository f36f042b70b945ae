"""The testbed: one simulated deployment of sensor nodes.

Owns the world-level singletons — event loop, RNG registry, monitor,
propagation model, radio medium, namespace — and the node population.
Everything the benches and examples build starts from a
:class:`Testbed`.
"""

from __future__ import annotations

from itertools import count

from repro.errors import NoSuchNode
from repro.kernel.filesystem import Namespace
from repro.kernel.node import SensorNode
from repro.radio.medium import RadioMedium
from repro.radio.propagation import LogDistancePropagation
from repro.sim.engine import Environment
from repro.sim.monitor import Monitor
from repro.sim.rng import RngRegistry

__all__ = ["Testbed"]


class Testbed:
    """A simulated deployment: shared world plus its nodes."""

    # Not a test class, despite the name pytest pattern-matches.
    __test__ = False

    def __init__(self, seed: int = 1, *,
                 propagation_kwargs: dict | None = None):
        self.env = Environment()
        self.rng = RngRegistry(seed)
        self.monitor = Monitor()
        self.propagation = LogDistancePropagation(
            self.rng, **(propagation_kwargs or {})
        )
        self.medium = RadioMedium(
            self.env, self.rng, self.monitor, self.propagation,
        )
        self.namespace = Namespace()
        self._nodes: dict[int, SensorNode] = {}
        self._next_id = count(1)

    # -- population ----------------------------------------------------------

    def add_node(self, name: str, position: tuple[float, float], *,
                 beaconing: bool = True) -> SensorNode:
        """Create, register and attach one node, numbered 1, 2, ... in
        the order added.  ``beaconing=False`` makes a listener that never
        advertises itself (the management workstation)."""
        node_id = next(self._next_id)
        self.namespace.register(node_id, name)
        node = SensorNode(self, node_id, name, position, beaconing=beaconing)
        self._nodes[node_id] = node
        return node

    def node(self, ref: "int | str") -> SensorNode:
        """Look up a node by id, name, or shell path."""
        node_id = self.namespace.resolve(ref)
        return self._nodes[node_id]

    def nodes(self) -> list[SensorNode]:
        """All nodes, sorted by id."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def position_of(self, node_id: int) -> tuple[float, float] | None:
        """The testbed's location directory (geographic routing's
        fallback when a destination is not a beaconed neighbor)."""
        node = self._nodes.get(node_id)
        return node.position if node else None

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, ref: object) -> bool:
        try:
            self.namespace.resolve(ref)  # type: ignore[arg-type]
        except NoSuchNode:
            return False
        return True

    # -- convenience --------------------------------------------------------------

    @property
    def tracer(self):
        """The world's packet-lifecycle tracer (lives on the event loop)."""
        return self.env.tracer

    def install_protocol_everywhere(
        self, protocol_cls: type, **kwargs: object
    ) -> list[object]:
        """Install the same routing protocol on every node."""
        return [
            node.install_protocol(protocol_cls, **kwargs)
            for node in self.nodes()
        ]

    def run(self, until: float | None = None) -> None:
        """Advance the simulation (see :meth:`Environment.run`)."""
        self.env.run(until=until)

    def warm_up(self, duration: float = 10.0) -> None:
        """Run long enough for beacons/adverts to settle neighbor tables
        and routing tables before an experiment starts."""
        self.env.run(until=self.env.now + duration)
