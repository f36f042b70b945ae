"""One-call LiteView deployment over a testbed.

Wires the full toolkit the way the paper's testbed ran it: a routing
protocol on every node, the ping and traceroute command images installed,
a runtime controller per node, and one workstation with a command
interpreter.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

from repro.core.commands.ping import PingService, install_ping
from repro.core.commands.traceroute import TracerouteService, install_traceroute
from repro.core.controller import RuntimeController, install_controller
from repro.core.interpreter import CommandInterpreter
from repro.core.workstation import Workstation
from repro.kernel.testbed import Testbed
from repro.net.routing.geographic import GeographicForwarding

__all__ = ["LiteViewDeployment", "deploy_liteview", "GC_FREEZE_THRESHOLD"]

#: Node count at which a deployment's static world is moved out of the
#: cyclic garbage collector's view (``gc.freeze``).  A 1k-node world is
#: millions of long-lived objects that every generation-2 collection
#: would otherwise re-scan for cycles it never finds; freezing them
#: keeps collections proportional to the *transient* per-event garbage.
#: Reference counting still reclaims frozen objects normally.
GC_FREEZE_THRESHOLD = 256


@dataclass
class LiteViewDeployment:
    """Handles to everything :func:`deploy_liteview` set up."""

    testbed: Testbed
    workstation: Workstation
    interpreter: CommandInterpreter
    ping_services: dict[int, PingService] = field(default_factory=dict)
    traceroute_services: dict[int, TracerouteService] = field(
        default_factory=dict)
    controllers: dict[int, RuntimeController] = field(default_factory=dict)

    def login(self, ref: "int | str") -> None:
        """Walk to a node and make it the shell's current context."""
        self.workstation.attach_near(ref)
        self.interpreter.execute(f"cd {ref}")

    def run(self, line: str) -> str:
        """Execute one shell line (convenience passthrough)."""
        return self.interpreter.execute(line)


def deploy_liteview(
    testbed: Testbed, *,
    protocol: type | None = GeographicForwarding,
    controller_kwargs: dict | None = None,
    warm_up: float = 0.0,
) -> LiteViewDeployment:
    """Install LiteView on every node of ``testbed``.

    ``protocol=None`` skips routing installation (the caller already
    installed protocols, e.g. for the protocol-comparison experiment).
    ``warm_up`` optionally runs the simulation so beacons settle before
    the first command.

    A testbed of ``GC_FREEZE_THRESHOLD`` or more nodes is frozen, fully
    wired, out of the cyclic garbage collector.  Any previously frozen
    world is thawed first, so repeated large deployments in one process
    do not pin dead testbeds in memory.
    """
    nodes = testbed.nodes()
    ping_services: dict[int, PingService] = {}
    traceroute_services: dict[int, TracerouteService] = {}
    controllers: dict[int, RuntimeController] = {}
    for node in nodes:
        if protocol is not None:
            node.install_protocol(protocol)
        ping_services[node.id] = install_ping(node)
        traceroute_services[node.id] = install_traceroute(node)
        controllers[node.id] = install_controller(
            node, **(controller_kwargs or {})
        )
    workstation = Workstation(testbed)
    deployment = LiteViewDeployment(
        testbed=testbed,
        workstation=workstation,
        interpreter=CommandInterpreter(workstation),
        ping_services=ping_services,
        traceroute_services=traceroute_services,
        controllers=controllers,
    )
    if len(nodes) >= GC_FREEZE_THRESHOLD:
        # Thaw whatever an earlier deployment froze (a dropped world
        # must stay collectable), sweep dead cycles once, then move
        # everything alive — dominated by this deployment's static
        # object graph — out of future collections.
        gc.unfreeze()
        gc.collect()
        gc.freeze()
    if warm_up > 0:
        testbed.warm_up(warm_up)
    return deployment
