"""The management workstation: LiteView's client-side radio endpoint.

The workstation is a base-station mote attached to the same radio medium
as the network ("the command interpreter communicates with the runtime
controller running on the nodes following a reliable one-hop
communication protocol").  It offers a request/reply API over the
reliable protocol; the shell-level command interpreter sits on top.

Because the protocol is one-hop, the workstation must be within radio
range of the node it manages — :meth:`attach_near` moves the base
station next to a node, modelling the on-site engineer walking the
deployment with a laptop, which is precisely the paper's usage scenario.
"""

from __future__ import annotations

import typing as _t

from repro.core.reliable import ReliableEndpoint
from repro.core.wire import decode_reply, encode_request
from repro.errors import CommandTimeout, HeaderError, ReliableTransferError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.node import SensorNode
    from repro.kernel.testbed import Testbed

__all__ = ["Workstation", "Reply", "DEFAULT_RESPONSE_WINDOW", "ATTACH_OFFSET"]

#: The paper's fixed response window for one-hop management commands:
#: "a response delay of 500 milliseconds ... intentionally longer than
#: needed ... to allow nodes to add random waiting time".
DEFAULT_RESPONSE_WINDOW = 0.5
#: Where :meth:`Workstation.attach_near` puts the base station relative
#: to the node it manages (metres): well inside one-hop range.
ATTACH_OFFSET = (0.0, -8.0)


class Reply:
    """A parsed management reply."""

    __slots__ = ("status", "body", "elapsed")

    def __init__(self, status: int, body: bytes, elapsed: float):
        self.status = status
        self.body = body
        self.elapsed = elapsed

    @property
    def ok(self) -> bool:
        """True when the node reported success."""
        return self.status == 0


class Workstation:
    """Base-station mote plus request/reply bookkeeping."""

    def __init__(self, testbed: "Testbed"):
        self.testbed = testbed
        # The base station listens but never beacons: it is a management
        # device, not a router or a fleet member, and must not attract
        # forwarded traffic.  It stands off the origin until the first
        # attach_near.
        self.node: "SensorNode" = testbed.add_node(
            "workstation", (0.0, -10.0), beaconing=False,
        )
        self.endpoint = ReliableEndpoint(self.node, self._on_message)
        self._request_id = 0
        self._pending: dict[int, Event] = {}
        self._group_pending: dict[int, dict[int, "Reply"]] = {}

    # -- positioning ----------------------------------------------------------

    def attach_near(self, ref: "int | str") -> None:
        """Move the base station next to a node (the site-visit step)."""
        target = self.testbed.node(ref)
        self.node.position = (
            target.position[0] + ATTACH_OFFSET[0],
            target.position[1] + ATTACH_OFFSET[1],
        )

    # -- request/reply -----------------------------------------------------------

    def _envelope(self, msg_type: int, body: bytes) -> tuple[int, bytes]:
        """A fresh request id, and the request carrying it."""
        self._request_id = (self._request_id + 1) & 0xFFFF
        return self._request_id, encode_request(msg_type, self._request_id,
                                                body)

    def request(self, dest: "int | str", msg_type: int, body: bytes = b"",
                *, window: float = DEFAULT_RESPONSE_WINDOW,
                wait_full_window: bool = True):
        """Issue one management request; a generator to run as a process.

        Returns a :class:`Reply`.  With ``wait_full_window`` (the paper's
        behaviour for one-hop commands) the call always takes the full
        response window even if the reply lands earlier; run-commands pass
        False and return on arrival.  Raises :class:`CommandTimeout` when
        no reply arrives inside the window.
        """
        dest_id = self.testbed.namespace.resolve(dest)
        env = self.node.env
        started = env.now
        request_id, payload = self._envelope(msg_type, body)
        waiter = Event(env)
        self._pending[request_id] = waiter
        try:
            try:
                yield from self.endpoint.send(dest_id, payload)
            except ReliableTransferError as exc:
                raise CommandTimeout(
                    f"node {dest!r} did not acknowledge the command "
                    "(out of range or down?)"
                ) from exc
            outcome = yield env.any_of(
                [waiter, env.timeout(window, value="timeout")]
            )
            values = list(outcome.values())
            if values == ["timeout"]:
                raise CommandTimeout(
                    f"no reply from {dest!r} within {window:.1f} s"
                )
            status, reply_body = values[0]
        finally:
            self._pending.pop(request_id, None)
        if wait_full_window:
            remaining = window - (env.now - started)
            if remaining > 0:
                yield env.timeout(remaining)
        return Reply(status=status, body=reply_body,
                     elapsed=env.now - started)

    def group_request(self, msg_type: int, body: bytes = b"", *,
                      window: float = DEFAULT_RESPONSE_WINDOW):
        """Broadcast one request to every node in radio range.

        A generator to run as a process.  The request goes out as a
        single unacknowledged broadcast; replies (each node's reliable
        unicast, after its random backoff) are collected for the full
        response window.  Returns ``{node_id: Reply}``.
        """
        env = self.node.env
        started = env.now
        request_id, payload = self._envelope(msg_type, body)
        collected: dict[int, Reply] = {}
        self._group_pending[request_id] = collected
        try:
            self.endpoint.broadcast(payload)
            yield env.timeout(window)
        finally:
            del self._group_pending[request_id]
        for reply in collected.values():
            reply.elapsed = env.now - started
        return collected

    def group_call(self, msg_type: int, body: bytes = b"",
                   **kwargs: object) -> "dict[int, Reply]":
        """Run a group request to completion on the event loop."""
        process = self.node.env.process(
            self.group_request(msg_type, body, **kwargs)  # type: ignore[arg-type]
        )
        return self.node.env.run(until=process)

    def _on_message(self, origin: int, message: bytes) -> None:
        try:
            request_id, status, body = decode_reply(message)
        except HeaderError:
            self.node.monitor.count("workstation.unknown_messages")
            return
        group = self._group_pending.get(request_id)
        if group is not None:
            group[origin] = Reply(status=status, body=body, elapsed=0.0)
            return
        waiter = self._pending.pop(request_id, None)
        if waiter is None:
            self.node.monitor.count("workstation.orphan_replies")
            return
        waiter.succeed((status, body))

    # -- synchronous convenience -----------------------------------------------------

    def call(self, dest: "int | str", msg_type: int, body: bytes = b"",
             **kwargs: object) -> Reply:
        """Run a request to completion on the testbed's event loop.

        Convenience for scripts and benches: spawns the request process
        and advances the simulation until it finishes.
        """
        process = self.node.env.process(
            self.request(dest, msg_type, body, **kwargs)  # type: ignore[arg-type]
        )
        return self.node.env.run(until=process)
