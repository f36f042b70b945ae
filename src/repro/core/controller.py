"""The runtime controller: LiteView's node-side half (§IV-B).

One controller runs on every managed node.  It listens on the control
port behind the reliable protocol, executes management requests —
reading kernel state through system calls, mutating the neighbor table's
blacklist flags, retuning the radio — and starts command processes for
``ping``/``traceroute`` runs, passing their parameters through the
kernel's parameter buffer exactly the way §IV-C.4 describes.

Replies are delayed by a random backoff ("these nodes wait for random
backoff delays before sending responses, so that their packets will not
collide") within the interpreter's fixed response window.
"""

from __future__ import annotations

import typing as _t
from functools import partial

from repro.core.commands.ping import PingService
from repro.core.commands.traceroute import TracerouteService
from repro.core.reliable import ReliableEndpoint
from repro.core.results import NeighborView
from repro.core.serialize import (
    encode_events,
    encode_neighbor_views,
    encode_ping_result,
    encode_radio_state,
    encode_scan_rows,
    encode_threads,
    encode_trace_result,
)
from repro.core.wire import (
    REQUEST_LAYOUTS,
    MsgType,
    decode_request,
    encode_reply,
)
from repro.errors import HeaderError, ReliableTransferError, ReproError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.node import SensorNode

__all__ = ["RuntimeController", "install_controller", "Status"]

#: Modelled controller image footprint (flash, RAM) — same order as the
#: paper's command images.
CONTROLLER_FOOTPRINT = (1960, 180)


class Status:
    """Reply status codes."""

    OK = 0
    ERROR = 1
    UNSUPPORTED = 2


def install_controller(node: "SensorNode", **kwargs: object
                       ) -> "RuntimeController":
    """Install the runtime controller on a node (flash/RAM accounted)."""
    node.memory.install("liteview-controller", *CONTROLLER_FOOTPRINT)
    controller = RuntimeController(node, **kwargs)  # type: ignore[arg-type]
    node.services["controller"] = controller
    return controller


class RuntimeController:
    """Node-side request executor."""

    def __init__(self, node: "SensorNode", *,
                 response_backoff: float = 0.3):
        self.node = node
        #: Replies wait a uniform draw from [0, response_backoff] before
        #: transmitting — the group-response collision avoidance.
        self.response_backoff = float(response_backoff)
        self.endpoint = ReliableEndpoint(node, self._on_request)
        #: Action a handler deferred until after its reply is delivered
        #: (e.g. a channel switch, which would otherwise strand the
        #: reply on the old channel).
        self._post_reply: _t.Callable[[], None] | None = None

    # -- request intake ------------------------------------------------------

    def _on_request(self, origin: int, message: bytes) -> None:
        try:
            request = decode_request(message)
        except HeaderError:
            self.node.monitor.count("controller.malformed_requests")
            return
        self.node.monitor.count("controller.requests")
        self.node.threads.spawn(
            "controller-request", self._serve(origin, *request)
        )

    def _serve(self, origin: int, msg_type: int, request_id: int,
               body: bytes):
        if self.response_backoff > 0:
            # The stream is made at its first draw: most nodes never
            # serve a request.
            rng = self.node.rng.stream(f"controller.{self.node.id}")
            yield self.node.env.timeout(
                float(rng.uniform(0.0, self.response_backoff))
            )
        try:
            handler = self._handlers().get(msg_type)
            if handler is None:
                status, reply = Status.UNSUPPORTED, b""
            else:
                # A body too short for the type's layout is a HeaderError.
                outcome = handler(**REQUEST_LAYOUTS[msg_type].decode(body))
                # Handlers returning generators need to be driven (the
                # run-command handlers wait for the command to finish).
                if hasattr(outcome, "send"):
                    outcome = yield from outcome
                status, reply = outcome
        except (ReproError, ValueError) as exc:
            # Command-level failures (bad parameters, kernel refusals)
            # become error replies; they must never kill the controller.
            self.node.monitor.count("controller.errors")
            status, reply = Status.ERROR, str(exc).encode()[:48]
        try:
            yield from self.endpoint.send(
                origin, encode_reply(request_id, status, reply))
        except ReliableTransferError:
            # The workstation fell out of reach mid-exchange; an
            # unanswered reply must not crash the controller thread.
            self.node.monitor.count("controller.reply_failures")
        if self._post_reply is not None:
            action, self._post_reply = self._post_reply, None
            action()

    def _handlers(self) -> dict:
        """Each request type's handler; it takes the body's fields
        (:data:`~repro.core.wire.REQUEST_LAYOUTS`) as keywords."""
        return {
            MsgType.GET_RADIO: self._get_radio,
            MsgType.SET_POWER: self._set_power,
            MsgType.SET_CHANNEL: self._set_channel,
            MsgType.NEIGHBOR_LIST: self._neighbor_list,
            MsgType.BLACKLIST_ADD: partial(self._blacklist, True),
            MsgType.BLACKLIST_REMOVE: partial(self._blacklist, False),
            MsgType.SET_BEACON: self._set_beacon,
            MsgType.RUN_PING: partial(self._run_command, "ping",
                                      PingService, encode_ping_result),
            MsgType.RUN_TRACEROUTE: partial(
                self._run_command, "traceroute", TracerouteService,
                encode_trace_result),
            MsgType.SCAN_CHANNELS: self._run_scan,
            MsgType.GET_EVENTS: self._get_events,
            MsgType.GET_THREADS: self._get_threads,
            MsgType.KILL_THREAD: self._kill_thread,
        }

    def _get_threads(self) -> tuple[int, bytes]:
        """List live kernel threads — the process-level visibility the
        paper contrasts against variable-poking management tools."""
        return Status.OK, encode_threads(
            self.node.syscalls.invoke("thread_table"))  # type: ignore[arg-type]

    def _kill_thread(self, tid: int) -> tuple[int, bytes]:
        """Kill a command thread by tid (process-level control)."""
        if not self.node.syscalls.invoke("thread_kill", tid):
            return Status.ERROR, b"no such thread"
        return Status.OK, b""

    def _get_events(self, limit: int) -> tuple[int, bytes]:
        """Dump the kernel event log (most recent first on the wire)."""
        return Status.OK, encode_events(
            self.node.syscalls.invoke("event_log", limit))  # type: ignore[arg-type]

    # -- radio configuration ---------------------------------------------------

    def _get_radio(self) -> tuple[int, bytes]:
        state = self.node.syscalls.invoke("radio_get")
        return Status.OK, encode_radio_state(state["power_level"],
                                             state["channel"])

    def _set_power(self, power: int) -> tuple[int, bytes]:
        self.node.syscalls.invoke("radio_set_power", power)
        return self._get_radio()

    def _set_channel(self, channel: int) -> tuple[int, bytes]:
        """Switch channels — but only after the reply has gone out.

        Retuning immediately would transmit the acknowledgement on the
        *new* channel, stranding the workstation on the old one; the
        deferred switch is how real reconfiguration tools avoid cutting
        the branch they sit on.
        """
        # Validate eagerly so errors still reach the user ...
        from repro.radio.cc2420 import MAX_CHANNEL, MIN_CHANNEL
        if not MIN_CHANNEL <= channel <= MAX_CHANNEL:
            return Status.ERROR, (
                f"channel {channel} outside "
                f"{MIN_CHANNEL}..{MAX_CHANNEL}".encode()
            )
        # ... but apply only once the reply is on its way.
        self._post_reply = lambda: self.node.syscalls.invoke(
            "radio_set_channel", channel)
        return Status.OK, encode_radio_state(self.node.radio.power_level,
                                             channel)

    # -- neighborhood management ------------------------------------------------

    def _neighbor_list(self, usable: int) -> tuple[int, bytes]:
        entries = self.node.syscalls.invoke("neighbor_table")
        return Status.OK, encode_neighbor_views([
            NeighborView(
                node_id=e.node_id, lqi=int(round(e.lqi)),
                rssi=int(round(e.rssi)),
                prr_percent=int(round(100 * e.prr_estimate)),
                enabled=e.enabled,
            )
            for e in entries
        ])

    def _blacklist(self, add: bool, neighbor: int) -> tuple[int, bytes]:
        table = self.node.neighbors
        (table.blacklist if add else table.unblacklist)(neighbor)
        return Status.OK, b""

    def _set_beacon(self, freq: int) -> tuple[int, bytes]:
        self.node.neighbors.set_beacon_interval(freq / 1000.0)
        return Status.OK, b""

    # -- command execution ----------------------------------------------------------

    def _run_command(self, name: str, service_type: type,
                     encode: _t.Callable, target: int, **params: int):
        """Start ping or traceroute as a process and ship its result back.

        The parameters travel through the kernel parameter buffer — the
        mechanism the paper added because "the LiteOS operating system
        does not provide a mechanism for passing parameters to processes
        by default".
        """
        service = self.node.services.get(name)
        if not isinstance(service, service_type):
            return Status.ERROR, f"{name} not installed".encode()
        self.node.params.stage(" ".join(
            [str(target), *(f"{key}={value}" for key, value in params.items())]
        ))
        argv = self.node.syscalls.invoke("get_parameters").split(" ")
        kv = {key: int(value)
              for key, value in (item.split("=", 1) for item in argv[1:])}
        thread = self.node.threads.spawn(name, getattr(service, name)(
            int(argv[0]), rounds=kv["round"], length=kv["length"],
            routing_port=kv["port"],
        ))
        result = yield thread.process
        return Status.OK, encode(result)

    def _run_scan(self, first: int, count: int, samples: int, dwell: int):
        """Run a channel scan and report per-channel peak RSSI."""
        from repro.core.commands.scan import channel_scan

        thread = self.node.threads.spawn("channel-scan", channel_scan(
            self.node, first=first, count=count, samples=samples,
            dwell=dwell / 1000.0,
        ))
        rows = yield thread.process
        return Status.OK, encode_scan_rows(rows)
