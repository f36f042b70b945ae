"""The LiteView command interpreter: a LiteOS-shell-style front end.

"The user interface provided by LiteView is an extension of the
interactive shell of the LiteOS operating system."  The interpreter
parses shell lines, keeps local context (current node, neighborhood-
management mode) so queries like ``pwd`` never touch the radio, and
translates management commands into request messages for the runtime
controller of the current node.

Shell session, matching the paper's samples::

    $ pwd
    /sn01/192.168.0.1
    $ ping 192.168.0.2 round=1 length=32
    Pinging 192.168.0.2 with 1 packets with 32 bytes: ...
"""

from __future__ import annotations

import typing as _t
from functools import partial

from repro.core.results import PingResult, TracerouteResult
from repro.core.serialize import (
    decode_events,
    decode_radio_state,
    decode_threads,
)
from repro.core.wire import REQUEST_LAYOUTS, MsgType
from repro.core.workstation import Reply, Workstation
from repro.errors import (
    CommandError,
    CommandTimeout,
    NoSuchNode,
    ParameterError,
    UnknownCommand,
)
from repro.net.ports import WellKnownPorts
from repro.obs.profiler import SimProfiler

__all__ = ["CommandInterpreter"]

#: The request that sets each radio parameter ``power``/``channel``.
_RADIO_SETTERS = {"power": MsgType.SET_POWER, "channel": MsgType.SET_CHANNEL}


class _Refused(CommandError):
    """The node answered with an error reply; printed as ``error:``."""


def _parse_int(name: str, text: str) -> int:
    """The one parse of an integer on a shell line."""
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{name}={text!r} is not an integer") from None


def _parse_kv(tokens: list[str], defaults: dict[str, int]) -> dict[str, int]:
    """Parse the paper's ``key=value`` command parameters."""
    values = dict(defaults)
    for token in tokens:
        if "=" not in token:
            raise ParameterError(f"expected key=value, got {token!r}")
        key, _, raw = token.partition("=")
        if key not in values:
            raise ParameterError(f"unknown parameter {key!r}")
        values[key] = _parse_int(key, raw)
    return values


def _reply_body(reply: Reply) -> bytes:
    """A reply's body, or :class:`_Refused` carrying the node's error."""
    if not reply.ok:
        raise _Refused(reply.body.decode(errors="replace"))
    return reply.body


def _radio_request(name: str, values: list[str]) -> tuple[int, bytes]:
    """A radio read for no value; else the setter of ``name`` with it."""
    if not values:
        return MsgType.GET_RADIO, b""
    msg = _RADIO_SETTERS[name]
    return msg, REQUEST_LAYOUTS[msg].encode(
        **{name: _parse_int(name, values[0])})


def _radio_line(body: bytes) -> str:
    power, channel = decode_radio_state(body)
    return f"Power = {power}, Channel = {channel}"


class CommandInterpreter:
    """Parses shell lines and drives the workstation."""

    def __init__(self, workstation: Workstation):
        self.ws = workstation
        self.testbed = workstation.testbed
        #: Current node context (None until the user ``cd``s somewhere).
        self.cwd: int | None = None
        #: Whether the user has entered neighborhood-management mode.
        self.neighbor_mode = False
        #: Structured result of the last ping/traceroute, for tooling.
        self.last_result: PingResult | TracerouteResult | None = None
        #: Structured report of the last ``diagnose`` run, for tooling.
        self.last_report = None
        #: The sim profiler, kept across ``profile off`` so ``profile
        #: report`` can still print the collected hotspot table.
        self._profiler: SimProfiler | None = None
        #: The passive beacon listener behind ``watch`` (None until
        #: ``watch on``); kept across ``watch off`` so ``watch report``
        #: can still render what was heard.
        self.online = None

    # -- public API ------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one shell line to completion; returns the printed output."""
        tokens = line.split()
        if not tokens:
            return ""
        name, args = tokens[0], tokens[1:]
        handler = self._commands().get(name)
        if handler is None:
            raise UnknownCommand(f"unknown command {name!r}")
        try:
            return handler(args)
        except (CommandTimeout, _Refused) as exc:
            return f"error: {exc}"

    def session(self, lines: _t.Iterable[str]) -> str:
        """Run several lines, echoing prompts — renders like the paper."""
        out = []
        for line in lines:
            out.append(f"$ {line}")
            result = self.execute(line)
            if result:
                out.append(result)
        return "\n".join(out)

    # -- command table -------------------------------------------------------------

    def _commands(self) -> dict[str, _t.Callable[[list[str]], str]]:
        table = {
            "pwd": self._cmd_pwd,
            "cd": self._cmd_cd,
            "ls": self._cmd_ls,
            "attach": self._cmd_attach,
            "ping": partial(self._cmd_run, "ping", 0),
            "traceroute": partial(self._cmd_run, "traceroute",
                                  WellKnownPorts.GEOGRAPHIC),
            "diagnose": self._cmd_diagnose,
            "power": partial(self._cmd_radio, "power"),
            "channel": partial(self._cmd_radio, "channel"),
            "scan": self._cmd_scan,
            "group": self._cmd_group,
            "events": self._cmd_events,
            "ps": self._cmd_ps,
            "kill": self._cmd_kill,
            "stats": self._cmd_stats,
            "trace": self._cmd_trace,
            "watch": self._cmd_watch,
            "profile": self._cmd_profile,
            "neighborsetup": self._cmd_neighborsetup,
            "help": self._cmd_help,
        }
        if self.neighbor_mode:
            table.update({
                "list": self._cmd_list,
                "blacklist": self._cmd_blacklist,
                "update": self._cmd_update,
                "exit": self._cmd_exit_mode,
            })
        return table

    # -- local-context commands (never touch the radio) ------------------------------

    def _cmd_pwd(self, args: list[str]) -> str:
        if self.cwd is None:
            return self.testbed.namespace.mount
        return self.testbed.namespace.path_of(self.cwd)

    def _cmd_cd(self, args: list[str]) -> str:
        if not args:
            self.cwd = None
            return ""
        try:
            self.cwd = self.testbed.namespace.resolve(args[0])
        except NoSuchNode as exc:
            return f"error: {exc}"
        return ""

    def _cmd_ls(self, args: list[str]) -> str:
        return "\n".join(self.testbed.namespace.names())

    def _cmd_attach(self, args: list[str]) -> str:
        ref = args[0] if args else self.cwd
        if ref is None:
            return "error: attach needs a node (or cd somewhere first)"
        self.ws.attach_near(ref)
        return ""

    def _cmd_help(self, args: list[str]) -> str:
        return ("commands: pwd cd ls attach ping traceroute diagnose power "
                "channel scan group events ps kill stats trace watch "
                "profile neighborsetup\n"
                "diagnosis: diagnose <node> (trace the path, survey its "
                "hops, name what's wrong) | "
                "watch on|off|report (passive anomaly watch — listens to "
                "beacons, sends zero probes)\n"
                "observability: stats [prefix] (metrics snapshot, "
                "e.g. stats mac. or stats medium. for the "
                "candidate-pruning and geometry gauges — repositions, "
                "idx.rebuilds, rows.rebuilt (full rebuilds), "
                "idx.patched (indexes patched after a nearby move)) | "
                "trace on|off|last|<origin:port:seq> (packet lifecycle) | "
                "profile on|off|report (event-loop hotspots)"
                + ("\nneighborhood mode: list blacklist update exit"
                   if self.neighbor_mode else ""))

    # -- management commands ----------------------------------------------------------

    def _current(self) -> int:
        if self.cwd is None:
            raise CommandError("no current node: cd to a node first")
        return self.cwd

    def _call(self, msg_type: int, **fields: int) -> bytes:
        """Send one request to the current node; the reply body."""
        body = REQUEST_LAYOUTS[msg_type].encode(**fields)
        return _reply_body(self.ws.call(self._current(), msg_type, body))

    def _probe_call(self, probe):
        """Issue a probe's wire request from the *current* position.

        The shell deliberately does not use the executor: the user
        chooses where the workstation stands (``attach``), so only the
        probe's plan (message, body, window) is borrowed.
        """
        request = probe.request()
        reply = self.ws.call(
            request.node, request.msg_type, request.body,
            window=request.window,
            wait_full_window=request.wait_full_window,
        )
        return probe.decode(_reply_body(reply), self.testbed.namespace)

    def _run_params(self, name: str, args: list[str], rounds: int,
                    port: int) -> tuple[int, dict[str, int]]:
        """A run command's target and parameters, checked before sending."""
        if not args:
            raise ParameterError(
                f"usage: {name} <node> [round=] [length=] [port=]")
        target = self.testbed.namespace.resolve(args[0])
        params = _parse_kv(args[1:], dict(round=rounds, length=32, port=port))
        REQUEST_LAYOUTS[MsgType.RUN_PING].encode(target=target, **params)
        return target, params

    def _cmd_run(self, name: str, port: int, args: list[str]) -> str:
        """``ping``/``traceroute`` run on the current node, by probe."""
        target, params = self._run_params(name, args, 1, port)
        from repro.diag.probe import LinkProbe, PathProbe
        probe = LinkProbe if name == "ping" else PathProbe
        self.last_result = self._probe_call(probe(
            src=self._current(), dst=target, rounds=params["round"],
            length=params["length"], port=params["port"],
        ))
        return self.last_result.render()

    def _cmd_diagnose(self, args: list[str]) -> str:
        """Automated verdicts: trace the path, survey its hop links,
        name what's wrong (``repro.diag`` engine behind the shell)."""
        target, params = self._run_params("diagnose", args, 5,
                                          WellKnownPorts.GEOGRAPHIC)
        src = self._current()
        from repro.diag.engine import DiagnosisEngine
        report = DiagnosisEngine(self.ws).diagnose(
            src, target, rounds=params["round"],
            length=params["length"], port=params["port"],
        )
        self.last_report = report
        # The engine walked the workstation along the path; come home so
        # follow-up shell commands still reach the current node.
        self.ws.attach_near(src)
        return report.explain()

    def _cmd_radio(self, name: str, args: list[str]) -> str:
        """``power``/``channel``: read the radio state, or set ``name``."""
        request = _radio_request(name, args)
        return _radio_line(_reply_body(self.ws.call(self._current(), *request)))

    def _cmd_scan(self, args: list[str]) -> str:
        """Survey ambient energy across channels on the current node."""
        params = _parse_kv(args, {"first": 11, "count": 16, "samples": 4,
                                  "dwell": 10})
        from repro.diag.probe import ChannelScanProbe
        rows = self._probe_call(ChannelScanProbe(
            node=self._current(), first=params["first"],
            count=params["count"], samples=params["samples"],
            dwell_ms=params["dwell"],
        ))
        lines = ["channel  peak RSSI"]
        for channel, reading in rows:
            bar = "#" * max(0, (reading + 60) // 3)
            lines.append(f"{channel:>7}  {reading:>9}  {bar}")
        return "\n".join(lines)

    def _cmd_ps(self, args: list[str]) -> str:
        """List the current node's live kernel threads."""
        threads = decode_threads(self._call(MsgType.GET_THREADS))
        if not threads:
            return "no live threads"
        return "\n".join(["tid  started_s  name", *(
            f"{tid:>3}  {started_s:9.3f}  {name}"
            for tid, started_s, name in threads)])

    def _cmd_kill(self, args: list[str]) -> str:
        """Kill one of the current node's threads by tid."""
        if len(args) != 1:
            raise ParameterError("usage: kill <tid>")
        tid = _parse_int("tid", args[0])
        self._call(MsgType.KILL_THREAD, tid=tid)
        return f"thread {tid} killed"

    def _cmd_events(self, args: list[str]) -> str:
        """Dump the current node's kernel event log."""
        params = _parse_kv(args, {"limit": 16})
        events = decode_events(self._call(MsgType.GET_EVENTS,
                                          limit=min(255, params["limit"])))
        return ("\n".join(event.render() for event in events)
                or "event log is empty")

    def _cmd_group(self, args: list[str]) -> str:
        """Broadcast a command to every node in radio range.

        ``group radio`` reads power/channel from all reachable nodes;
        ``group power <level>`` / ``group channel <ch>`` set them
        everywhere at once.  Replies are collected for the full response
        window ("these nodes wait for random backoff delays before
        sending responses").
        """
        if not (args == ["radio"]
                or (len(args) == 2 and args[0] in _RADIO_SETTERS)):
            raise ParameterError("usage: group radio|power|channel [value]")
        replies = self.ws.group_call(*_radio_request(args[0], args[1:]))
        if not replies:
            return "no replies (no nodes in range?)"
        namespace = self.testbed.namespace
        lines = []
        for node_id, reply in sorted(replies.items()):
            name = (namespace.name_of(node_id)
                    if node_id in namespace else str(node_id))
            lines.append(f"{name}: " + (_radio_line(reply.body) if reply.ok
                                        else "error"))
        lines.append(f"({len(replies)} nodes replied)")
        return "\n".join(lines)

    # -- observability commands --------------------------------------------------------

    def _cmd_stats(self, args: list[str]) -> str:
        """Snapshot of the metrics registry (counters, gauges, histograms).

        Workstation-local: reads the simulation's shared monitor, no
        radio traffic involved.  An optional name prefix narrows the
        table to one subsystem: ``stats mac.``.
        """
        if len(args) > 1:
            raise ParameterError("usage: stats [name-prefix]")
        prefix = args[0] if args else ""
        return self.testbed.monitor.registry.render(prefix)

    def _cmd_trace(self, args: list[str]) -> str:
        """Packet-lifecycle tracing: toggle it, or explain one packet."""
        if len(args) != 1:
            raise ParameterError(
                "usage: trace on|off|last|<origin:port:seq>"
            )
        tracer = self.testbed.env.tracer
        sub = args[0]
        if sub == "on":
            tracer.enable()
            return "tracing enabled"
        if sub == "off":
            tracer.disable()
            return "tracing disabled"
        if sub == "last":
            packet_id = self._last_diagnostic_packet(tracer)
            if packet_id is None:
                return ("no traced packets yet"
                        + ("" if tracer.enabled
                           else " (tracing is off; `trace on` first)"))
            return tracer.explain(packet_id)
        return tracer.explain(sub)

    @staticmethod
    def _last_diagnostic_packet(tracer) -> str | None:
        """The most recent traced packet that is not shell plumbing.

        Every shell command rides the reliable control channel, and
        neighbor beacons flow constantly in the background — so the
        literal last packet is almost never the user's probe.  ``trace
        last`` should answer "what happened to my *probe*", so both are
        skipped unless they are all there is.
        """
        background = (f":{WellKnownPorts.CONTROL}:",
                      f":{WellKnownPorts.NEIGHBOR}:")
        for event in reversed(tracer.events):
            packet = event.packet
            if packet is not None and not any(p in packet
                                              for p in background):
                return packet
        return tracer.last_packet_id

    def _cmd_watch(self, args: list[str]) -> str:
        """Passive anomaly watch: listen to beacons, never probe.

        ``watch on`` taps the shared monitor's beacon stream with an
        :class:`~repro.diag.online.OnlineMonitor`; ``watch report``
        (or bare ``watch``) renders the current passive verdict —
        zero packets sent, so watching costs the network nothing.
        """
        if len(args) > 1 or (args and args[0] not in
                             ("on", "off", "report")):
            raise ParameterError("usage: watch [on|off|report]")
        sub = args[0] if args else "report"
        if sub == "on":
            if self.online is None:
                from repro.diag.online import OnlineMonitor
                self.online = OnlineMonitor(self.testbed).attach()
            return "passive watch enabled (listening to beacons)"
        if sub == "off":
            if self.online is not None:
                self.online.detach()
            return "passive watch disabled"
        if self.online is None:
            return "watch has never been enabled (`watch on` first)"
        report = self.online.report()
        self.last_report = report
        heard = (f"[watch] {self.online.beacons_seen} beacons heard on "
                 f"{self.online.links_tracked} links, 0 probes sent")
        return f"{heard}\n{report.explain()}"

    def _cmd_profile(self, args: list[str]) -> str:
        """Wall-clock profiling of the event loop: on, off, or report."""
        if len(args) != 1 or args[0] not in ("on", "off", "report"):
            raise ParameterError("usage: profile on|off|report")
        env = self.testbed.env
        sub = args[0]
        if sub == "on":
            if env.profiler is None:
                self._profiler = SimProfiler().attach(env)
            return "profiler attached"
        if sub == "off":
            SimProfiler.detach(env)
            return "profiler detached"
        profiler = env.profiler or self._profiler
        if profiler is None:
            return "profiler has never been attached (`profile on` first)"
        return profiler.report()

    # -- neighborhood-management mode ----------------------------------------------------

    def _cmd_neighborsetup(self, args: list[str]) -> str:
        self._current()  # require a node context
        self.neighbor_mode = True
        return "entering neighborhood management mode"

    def _cmd_exit_mode(self, args: list[str]) -> str:
        self.neighbor_mode = False
        return ""

    def _cmd_list(self, args: list[str]) -> str:
        from repro.diag.probe import NeighborProbe
        views = self._probe_call(NeighborProbe(node=self._current()))
        if not views:
            return "neighbor table is empty"
        namespace = self.testbed.namespace
        return "\n".join(
            v.render(namespace.name_of(v.node_id)
                     if v.node_id in namespace else None)
            for v in views
        )

    def _cmd_blacklist(self, args: list[str]) -> str:
        if len(args) != 2 or args[0] not in ("add", "remove"):
            raise ParameterError("usage: blacklist add|remove <node>")
        neighbor = self.testbed.namespace.resolve(args[1])
        self._call(MsgType.BLACKLIST_ADD if args[0] == "add"
                   else MsgType.BLACKLIST_REMOVE, neighbor=neighbor)
        return f"blacklist {args[0]}: {args[1]}"

    def _cmd_update(self, args: list[str]) -> str:
        params = _parse_kv(args, {"freq": 2000})
        self._call(MsgType.SET_BEACON, freq=params["freq"])
        return f"beacon interval set to {params['freq']} ms"
