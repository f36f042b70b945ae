"""The fleet server: routes, tickers, and the serving loop.

:class:`ServeApp` hosts one or more :class:`~repro.serve.fleet.
FleetSupervisor` instances behind the hand-rolled HTTP core:

====================================  =======================================
``GET /``                             index: fleets + endpoints
``GET /metrics``                      Prometheus text format, all fleets
                                      (``?fleet=NAME`` filters), plus
                                      serve-layer gauges (clients, drops,
                                      per-subject traffic lights)
``GET /health``                       traffic-light JSON for every fleet
``GET /fleets/<name>/health``         one fleet's health payload
``GET /fleets/<name>/stats``          one fleet's metrics snapshot (JSON)
``GET /events``                       SSE stream of trace batches, new
                                      findings, health transitions and
                                      fault installations
                                      (``?fleet=NAME``: that fleet's only)
``POST /fleets/<name>/faults``        inject a canonical-JSON FaultPlan
``GET /fleets/<name>/faults``         the plans injected so far
``POST /campaigns``                   launch a campaign (202 + status
                                      URL)
``GET /campaigns``                    all submitted campaigns' status
``GET /campaigns/<name>``             one campaign: digest, counts, wall
====================================  =======================================

Concurrency model — the whole point of the design: everything runs on
one asyncio loop.  ``advance`` (the only sim mutation) is a synchronous
call made by the ticker task, so request handlers *by construction* run
only between advances, at event-loop-safe points; reads see either the
world before a tick or after it, never mid-heap.  Slow SSE consumers
are isolated by the hub's bounded queues (drop-counted, never
blocking), so no client — polling or streaming, fast or stalled — can
perturb the simulation.  ``tests/serve`` proves the digest identity.

Campaigns are the one deliberately off-loop workload: ``POST
/campaigns`` coordinates :func:`~repro.campaign.runner.run_campaign`
from a worker thread, and every cell, whatever ``workers`` is, executes
in the process-wide **warm pool**'s worker processes — separate
interpreters with their own RNG state, so a campaign can saturate every
core, a cell's timeout is armed where the cell runs, and a cell that
exits, crashes or hangs costs one failed run, never the server.  Each
cell builds its own world, so the served fleets' determinism is
untouched.

A fleet whose ``advance`` raises stops ticking and is marked
``failed``, with the error, in ``GET /`` and ``/health``; one
``fleet_error`` event goes out on the SSE stream, and the other fleets
and every endpoint carry on.
"""

from __future__ import annotations

import asyncio
import math
import typing as _t

from repro.errors import PlanError
from repro.obs.export import metrics_to_prometheus, prometheus_line
from repro.plan import decode
from repro.serve.fleet import FleetSupervisor, positive_seconds
from repro.serve.http import (
    HttpError,
    Request,
    json_response,
    read_request,
    sse_headers,
    text_response,
)
from repro.serve.hub import EventHub, format_sse

__all__ = ["ServeApp"]

#: Per-SSE-client cap on transport write buffering.  Together with the
#: hub's bounded queue this bounds the total memory a stalled client can
#: pin: beyond kernel socket buffers plus this, its pump parks and the
#: hub sheds events for it.
SSE_WRITE_HIGH = 16 * 1024


class ServeApp:
    """One server process: fleets + hub + HTTP front end."""

    def __init__(self, fleets: _t.Iterable[FleetSupervisor], *,
                 tick_s: float = 0.25, step_s: float = 1.0):
        #: Wall-clock pause between ticks and simulated seconds per tick.
        #: A pause of 0 ticks as fast as the loop allows; NaN would never
        #: pause and infinity would never tick again.
        self.tick_s = float(tick_s)
        if not (math.isfinite(self.tick_s) and self.tick_s >= 0):
            raise ValueError(f"tick_s must be a finite number of seconds "
                             f"of at least 0, got {self.tick_s:g}")
        self.step_s = positive_seconds("step_s", step_s)
        self.fleets: dict[str, FleetSupervisor] = {}
        self.hub = EventHub()
        for fleet in fleets:
            if fleet.name in self.fleets:
                raise ValueError(f"duplicate fleet name {fleet.name!r}")
            fleet.hub = self.hub
            self.fleets[fleet.name] = fleet
        self._server: asyncio.base_events.Server | None = None
        self._tasks: set[asyncio.Task] = set()
        self._running = False
        self.host: str | None = None
        self.port: int | None = None
        #: Campaign submissions by name: status records served by
        #: ``GET /campaigns[/name]`` and mutated only on this loop.
        self.campaigns: dict[str, dict] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0, *,
                    auto_tick: bool = True) -> None:
        """Bind and start serving (and, by default, ticking).

        ``port=0`` binds an ephemeral port; the chosen one lands in
        :attr:`port`.  ``auto_tick=False`` leaves advancing to the
        caller — the deterministic-test mode.
        """
        self._running = True
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        if auto_tick:
            for fleet in self.fleets.values():
                self._spawn(self._ticker(fleet))

    async def stop(self) -> None:
        """Stop ticking, close the listener and every live connection."""
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    async def serve_forever(self, host: str = "127.0.0.1",
                            port: int = 8700) -> None:
        """CLI entry: start and run until cancelled."""
        await self.start(host=host, port=port)
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    def _spawn(self, coro: _t.Coroutine) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _ticker(self, fleet: FleetSupervisor) -> None:
        """Advance one fleet forever: sim cadence, then yield to I/O.

        A raising ``advance`` fails this fleet only: it stops ticking
        and reports the error (:meth:`FleetSupervisor.fail`)."""
        while self._running:
            try:
                fleet.advance(self.step_s)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                fleet.fail(exc)
                return
            await asyncio.sleep(self.tick_s)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._tasks.add(asyncio.current_task())  # type: ignore[arg-type]
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                if request.method == "GET" and request.path == "/events":
                    await self._serve_events(request, writer)
                    return
            except HttpError as exc:
                writer.write(json_response(exc.status,
                                           {"error": exc.message}))
                await writer.drain()
                return
            writer.write(self._dispatch(request))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._tasks.discard(asyncio.current_task())  # type: ignore[arg-type]
            writer.close()
            # Bounded graceful close: a stalled peer may never ack the
            # flush, and this runs after a swallowed cancellation, so an
            # unbounded wait_closed() would wedge stop() forever.
            try:
                await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.TimeoutError):
                transport = writer.transport
                if transport is not None:
                    transport.abort()

    def _dispatch(self, request: Request) -> bytes:
        try:
            return self._route(request)
        except HttpError as exc:
            return json_response(exc.status, {"error": exc.message})
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            return json_response(500, {"error": f"{type(exc).__name__}: "
                                                f"{exc}"})

    def _route(self, request: Request) -> bytes:
        method, path = request.method, request.path
        if path == "/" and method == "GET":
            return json_response(200, self._index())
        if path == "/metrics" and method == "GET":
            return text_response(
                200, self._metrics_text(request.param("fleet")),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        if path == "/health" and method == "GET":
            return json_response(200, {
                "fleets": {name: fleet.health_payload
                           for name, fleet in sorted(self.fleets.items())},
            })
        if path == "/campaigns" and method == "POST":
            return self._launch_campaign(request)
        if path == "/campaigns" and method == "GET":
            return json_response(200, {
                "campaigns": [self.campaigns[name]
                              for name in sorted(self.campaigns)],
            })
        parts = [p for p in path.split("/") if p]
        if len(parts) == 2 and parts[0] == "campaigns" and method == "GET":
            record = self.campaigns.get(parts[1])
            if record is None:
                raise HttpError(404, f"unknown campaign {parts[1]!r} "
                                     f"(have: {sorted(self.campaigns)})")
            return json_response(200, record)
        if len(parts) == 3 and parts[0] == "fleets":
            fleet = self._fleet(parts[1])
            if parts[2] == "health" and method == "GET":
                return json_response(200, fleet.health_payload)
            if parts[2] == "faults" and method == "POST":
                return self._inject(fleet, request)
            if parts[2] == "faults" and method == "GET":
                return json_response(200, {
                    "fleet": fleet.name,
                    "plans": [plan.to_dict()
                              for plan in fleet.injected_plans],
                })
            if parts[2] == "stats" and method == "GET":
                # Registry-only snapshot: no packet digest — cheap
                # enough to poll every second.
                snap = fleet.monitor.snapshot()
                snap["fleet"] = fleet.name
                snap["sim_time"] = round(fleet.sim_time, 6)
                return json_response(200, snap)
        raise HttpError(404, f"no route for {method} {path}")

    def _fleet(self, name: str) -> FleetSupervisor:
        fleet = self.fleets.get(name)
        if fleet is None:
            raise HttpError(404, f"unknown fleet {name!r} "
                                 f"(have: {sorted(self.fleets)})")
        return fleet

    # -- endpoint bodies -----------------------------------------------------

    def _index(self) -> dict:
        return {
            "service": "repro.serve",
            "fleets": [fleet.describe()
                       for _, fleet in sorted(self.fleets.items())],
            "endpoints": [
                "GET /metrics", "GET /health", "GET /events",
                "GET /fleets/<name>/health",
                "GET /fleets/<name>/stats",
                "POST /fleets/<name>/faults",
                "GET /fleets/<name>/faults",
                "POST /campaigns", "GET /campaigns",
                "GET /campaigns/<name>",
            ],
            "sse_clients": len(self.hub),
            "sse_dropped_total": self.hub.total_dropped,
        }

    def _metrics_text(self, only_fleet: str | None) -> str:
        """All fleets' registries plus serve-layer samples.

        Reads happen here, in the handler, which the single-threaded
        design guarantees is between advances — a consistent snapshot
        without copying the registry.
        """
        from repro.diag.render import LIGHT_ORDER

        chunks: list[str] = []
        names = ([only_fleet] if only_fleet else sorted(self.fleets))
        for name in names:
            fleet = self._fleet(name)
            chunks.append(metrics_to_prometheus(
                fleet.monitor.registry, labels={"fleet": name}))
        lines = [
            "# TYPE serve_sse_clients gauge",
            prometheus_line("serve_sse_clients", None, len(self.hub)),
            "# TYPE serve_sse_dropped_total counter",
            prometheus_line("serve_sse_dropped_total", None,
                            self.hub.total_dropped),
            "# TYPE serve_events_published_total counter",
            prometheus_line("serve_events_published_total", None,
                            self.hub.total_published),
        ]
        for name in names:
            fleet = self._fleet(name)
            labels = {"fleet": name}
            lines += [
                "# TYPE serve_fleet_sim_time_seconds gauge",
                prometheus_line("serve_fleet_sim_time_seconds", labels,
                                round(fleet.sim_time, 6)),
                "# TYPE serve_fleet_ticks_total counter",
                prometheus_line("serve_fleet_ticks_total", labels,
                                fleet.ticks),
                "# TYPE serve_assessments_total counter",
                prometheus_line("serve_assessments_total", labels,
                                fleet.assessor.assessments),
            ]
            payload = fleet.health_payload
            status = payload.get("status")
            if status in LIGHT_ORDER:
                lines.append("# TYPE serve_health_status gauge")
                lines.append(prometheus_line(
                    "serve_health_status", labels,
                    LIGHT_ORDER.index(status)))  # type: ignore[arg-type]
                for group, label in (("nodes", "node"), ("links", "link")):
                    entries = payload.get(group, {})
                    if not isinstance(entries, dict):
                        continue
                    metric = f"serve_health_{label}_status"
                    lines.append(f"# TYPE {metric} gauge")
                    for key, entry in entries.items():
                        light = entry.get("status")
                        if light in LIGHT_ORDER:
                            lines.append(prometheus_line(
                                metric, {**labels, label: key},
                                LIGHT_ORDER.index(light)))
        chunks.append("\n".join(lines) + "\n")
        return "".join(chunks)

    def _inject(self, fleet: FleetSupervisor, request: Request) -> bytes:
        if fleet.error is not None:  # no tick would ever install it
            raise HttpError(409, f"fleet {fleet.name!r} has failed: "
                                 f"{fleet.error}")
        payload = request.json()
        try:
            plan = fleet.queue_fault_plan(payload)  # type: ignore[arg-type]
        except PlanError as exc:
            raise HttpError(400, f"invalid fault plan: {exc}") from exc
        return json_response(202, {
            "fleet": fleet.name,
            "queued": True,
            "plan": plan.to_dict(),
            "applies_at_sim_time": round(fleet.sim_time, 6),
        })

    # -- campaigns -----------------------------------------------------------

    def _launch_campaign(self, request: Request) -> bytes:
        """``POST /campaigns``: check, record, and launch off-loop.

        The body is a :class:`~repro.campaign.runner.CampaignRequest`:
        ``{"scenario": ..., "name"?, "seed"?, "repeats"?, "base_params"?,
        "grid"?, "shard"?: [k, of], "workers"?, "timeout_s"?,
        "retries"?}``.  It passes the checks every campaign caller gets
        before anything launches; any failure is a 400 here, not a
        failure in every cell later.

        ``workers`` is clamped to :func:`~repro.campaign.default_workers`
        (the usable CPUs, or ``REPRO_WORKERS``): the warm pool is shared
        and lives as long as the server, so one request must not grow it
        past the host.  The status record reports the clamped count.
        """
        from repro.campaign import CampaignRequest, default_workers

        try:
            body = decode(CampaignRequest, request.json(), "campaign")
            target, workers, timeout_s, retries = body.checked()
        except ValueError as exc:
            raise HttpError(400, f"invalid campaign: {exc}") from exc
        workers = min(workers, default_workers())
        name = target.name
        running = self.campaigns.get(name)
        if running is not None and running["status"] == "running":
            raise HttpError(409, f"campaign {name!r} is already running")
        record = {
            "name": name, "status": "running", "scenario": body.scenario,
            "seed": body.seed, "total": len(target), "workers": workers,
            "shard": list(body.shard) if body.shard else None,
        }
        self.campaigns[name] = record
        self._spawn(self._run_campaign(record, target, workers, timeout_s,
                                       retries))
        return json_response(202, {
            "accepted": True, "campaign": record,
            "status_url": f"/campaigns/{name}",
        })

    async def _run_campaign(self, record: dict, target, workers: int,
                            timeout_s: float | None, retries: int) -> None:
        """Coordinate one campaign in a thread, its cells in the warm
        pool; publish the verdict."""
        from repro.campaign import get_warm_pool, run_campaign

        def coordinate():
            pool = get_warm_pool(workers)
            if pool is None:
                raise RuntimeError("no usable multiprocessing start method,"
                                   " and served cells run only in workers")
            return run_campaign(target, workers=workers, timeout_s=timeout_s,
                                retries=retries, pool=pool)

        try:
            out = await asyncio.to_thread(coordinate)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            record.update(status="failed",
                          error=f"{type(exc).__name__}: {exc}")
        else:
            record.update(
                status="done", digest=out.digest(), runs=len(out.runs),
                ok=len(out.ok), failed=len(out.failures),
                cached=out.n_cached, wall_s=round(out.wall_s, 3),
                failures=[{"run": r.spec.label(),
                           "error": ((r.error or "").strip().splitlines()
                                     or ["?"])[-1]}
                          for r in out.failures[:5]],
            )
        self.hub.publish({
            "type": "campaign", "campaign": record["name"],
            "status": record["status"],
        })

    # -- SSE -----------------------------------------------------------------

    async def _serve_events(self, request: Request,
                            writer: asyncio.StreamWriter) -> None:
        """Stream hub events to one client until it disconnects.

        The subscription queue is bounded: if this client stops
        reading, ``drain()`` below parks *this* coroutine only, the
        queue fills, and the hub drops (and counts) further events for
        it — the sim and every other client proceed untouched.  A
        ``?fleet=`` client subscribes to that fleet's events alone, and
        turns tracing on for that fleet alone.  An unknown ``?fleet=``
        is a 404 before subscribing.
        """
        only_fleet = request.param("fleet")
        if only_fleet:
            self._fleet(only_fleet)
        sub = self.hub.subscribe(only_fleet)
        try:
            writer.transport.set_write_buffer_limits(high=SSE_WRITE_HIGH)
            writer.write(sse_headers())
            writer.write(b": repro.serve event stream\n\n")
            await writer.drain()
            event_id = 0
            while True:
                event = await sub.get()
                event_id += 1
                writer.write(format_sse(event, event_id))
                await writer.drain()
        finally:
            self.hub.unsubscribe(sub)

