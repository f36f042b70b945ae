"""LiteView proper: the paper's contribution, built on the substrates.

* :mod:`repro.core.commands` — ping (Fig. 3) and traceroute (Fig. 4)
* :mod:`repro.core.reliable` — the one-hop reliable exchange (§IV-B)
* :mod:`repro.core.controller` — the node-side runtime controller
* :mod:`repro.core.workstation` / :mod:`repro.core.interpreter` — the
  client side: base-station mote and shell-style command interpreter
* :mod:`repro.core.deploy` — one-call toolkit deployment

The diagnosis workflows from the abstract (broken/asymmetric links,
hotspots) live in :mod:`repro.diag`.
"""

from repro.core.commands.ping import PingService, install_ping
from repro.core.commands.traceroute import (
    TracerouteService,
    install_traceroute,
)
from repro.core.controller import (
    RuntimeController,
    Status,
    install_controller,
)
from repro.core.deploy import LiteViewDeployment, deploy_liteview
from repro.core.interpreter import CommandInterpreter
from repro.core.reliable import ReliableEndpoint
from repro.core.results import (
    LinkObservation,
    NeighborView,
    PingResult,
    PingRound,
    TracerouteHop,
    TracerouteResult,
)
from repro.core.wire import MsgType
from repro.core.workstation import Reply, Workstation

__all__ = [
    "PingService",
    "install_ping",
    "TracerouteService",
    "install_traceroute",
    "RuntimeController",
    "install_controller",
    "Status",
    "ReliableEndpoint",
    "Workstation",
    "Reply",
    "CommandInterpreter",
    "LiteViewDeployment",
    "deploy_liteview",
    "MsgType",
    "PingResult",
    "PingRound",
    "TracerouteResult",
    "TracerouteHop",
    "LinkObservation",
    "NeighborView",
]
