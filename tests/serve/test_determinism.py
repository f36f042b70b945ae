"""The serving determinism contract, proven on packet digests.

The tentpole guarantee: hosting a fleet behind HTTP — any number of
pollers, SSE subscribers (including stalled ones), however the advances
are sliced — leaves the simulation *byte-identical* to an unserved run
of the same configuration.  These tests compare
``Monitor.packet_digest()`` (the order-sensitive SHA-256 the golden
suite uses) between served and unserved worlds.
"""

import asyncio

from repro.serve import ServeApp, build_fleet

from tests.serve.conftest import fetch

FLEET_KW = dict(seed=11, assess_every=20.0, warm_up=10.0)


def unserved_digest(spec, total, slices, **kw):
    """The golden: same fleet config advanced with no server at all."""
    fleet = build_fleet(spec, **kw)
    for _ in range(slices):
        fleet.advance(total / slices)
    return fleet.monitor.packet_digest()


def test_advance_slicing_is_not_an_input():
    """One 40 s advance == 8x5 s == 40x1 s, to the last packet bit."""
    digests = {
        unserved_digest("chain:5", 40.0, slices, **FLEET_KW)
        for slices in (1, 8, 40)
    }
    assert len(digests) == 1


def test_served_run_matches_unserved_golden_under_polling_load():
    """~100 concurrent pollers hammering every endpoint while the sim
    advances must not move a single bit of the packet log."""
    golden = unserved_digest("chain:5", 40.0, 8, **FLEET_KW)

    async def main():
        fleet = build_fleet("chain:5", **FLEET_KW)
        app = ServeApp([fleet])
        await app.start(auto_tick=False)
        try:
            paths = ("/metrics", "/health", "/",
                     f"/fleets/{fleet.name}/health",
                     f"/fleets/{fleet.name}/stats")

            async def poller(i):
                status, _, _ = await fetch(app.port, paths[i % len(paths)])
                assert status == 200

            for _ in range(8):
                clients = [asyncio.ensure_future(poller(i))
                           for i in range(100)]
                # Interleave the advance with the in-flight requests —
                # the single-threaded loop serializes them at safe
                # points, which is exactly the claim under test.
                await asyncio.sleep(0)
                fleet.advance(5.0)
                await asyncio.gather(*clients)
            return fleet.monitor.packet_digest()
        finally:
            await app.stop()

    assert asyncio.run(main()) == golden


def test_stalled_sse_client_drops_events_but_not_packets():
    """One subscriber that never reads: its queue fills, its drop
    counter climbs, and the sim stays byte-identical to the golden."""
    golden = unserved_digest("chain:5", 40.0, 8, **FLEET_KW)

    async def main():
        import socket

        fleet = build_fleet("chain:5", **FLEET_KW)
        # A tiny queue bound makes the stall observable quickly, and
        # tiny kernel buffers make the pump park after a few frames
        # instead of letting the kernel absorb the whole run's events.
        app = ServeApp([fleet])
        app.hub.queue_limit = 4
        await app.start(auto_tick=False)
        # Accepted connections inherit the listener's buffer sizing.
        app._server.sockets[0].setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        try:
            # The stalled client: opens the stream, reads only the HTTP
            # head, then never drains another byte.
            client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            client.setblocking(False)
            await asyncio.get_running_loop().sock_connect(
                client, ("127.0.0.1", app.port))
            reader, writer = await asyncio.open_connection(sock=client)
            writer.write(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            await asyncio.sleep(0.05)
            assert len(app.hub) == 1
            (sub,) = app.hub.subscribers

            for _ in range(8):
                fleet.advance(5.0)
                await asyncio.sleep(0)

            assert sub.dropped > 0, "stall never hit the queue bound"
            assert app.hub.total_dropped == sub.dropped
            writer.close()
            return fleet.monitor.packet_digest()
        finally:
            await app.stop()

    assert asyncio.run(main()) == golden


def test_healthy_and_stalled_subscribers_coexist():
    """A reading client keeps receiving while a stalled one sheds —
    drops are per-subscriber, not global."""

    async def main():
        import socket

        fleet = build_fleet("chain:5", **FLEET_KW)
        # queue_limit=2 plus tiny kernel buffers: the stalled reader
        # must start shedding well inside the run's event volume.
        app = ServeApp([fleet])
        app.hub.queue_limit = 2
        await app.start(auto_tick=False)
        app._server.sockets[0].setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        try:
            async def open_stream(rcvbuf=None):
                if rcvbuf is None:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", app.port)
                else:
                    raw = socket.socket(socket.AF_INET,
                                        socket.SOCK_STREAM)
                    raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                                   rcvbuf)
                    raw.setblocking(False)
                    await asyncio.get_running_loop().sock_connect(
                        raw, ("127.0.0.1", app.port))
                    reader, writer = await asyncio.open_connection(
                        sock=raw)
                writer.write(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")
                return reader, writer

            healthy_reader, healthy_writer = await open_stream()
            _stalled_reader, stalled_writer = await open_stream(
                rcvbuf=4096)
            await asyncio.sleep(0.05)
            assert len(app.hub) == 2

            frames = 0

            async def drain_healthy():
                nonlocal frames
                while True:
                    await healthy_reader.readuntil(b"\n\n")
                    frames += 1

            drainer = asyncio.ensure_future(drain_healthy())
            for _ in range(16):
                fleet.advance(5.0)
                await asyncio.sleep(0.01)
            drainer.cancel()

            subs = {s.id: s for s in app.hub.subscribers}
            dropped = sorted(s.dropped for s in subs.values())
            assert frames > 0
            assert dropped[-1] > 0          # the stalled one shed
            assert dropped[0] < dropped[-1]  # the healthy one shed less
            healthy_writer.close()
            stalled_writer.close()
        finally:
            await app.stop()

    asyncio.run(main())


def test_acceptance_hundred_node_fleet_under_hundred_clients():
    """ISSUE acceptance: a 100-node fleet served to >=100 concurrent
    polling clients produces a digest byte-identical to the unserved
    run, and /health goes red (with a recommendation) within one
    assessment period of an injected link_degrade."""
    kw = dict(seed=3, assess_every=25.0, warm_up=10.0)
    plan = {"enabled": True,
            "specs": [{"kind": "link_degrade", "link": [1, 2],
                       "loss_db": 80.0, "at": 0.0}]}

    # Golden: unserved, fault queued before the same tick (tick 3).
    golden_fleet = build_fleet("hundred", **kw)
    for step in range(6):
        if step == 3:
            golden_fleet.queue_fault_plan(plan)
        golden_fleet.advance(10.0)
    golden = golden_fleet.monitor.packet_digest()
    assert golden_fleet.health_payload["status"] == "red"

    async def main():
        from tests.serve.conftest import fetch_json

        fleet = build_fleet("hundred", **kw)
        app = ServeApp([fleet])
        await app.start(auto_tick=False)
        try:
            async def poller(i):
                path = "/metrics" if i % 2 else \
                    f"/fleets/{fleet.name}/health"
                status, _, _ = await fetch(app.port, path)
                assert status == 200

            for step in range(6):
                if step == 3:
                    status, _ = await fetch_json(
                        app.port, f"/fleets/{fleet.name}/faults",
                        "POST", plan)
                    assert status == 202
                clients = [asyncio.ensure_future(poller(i))
                           for i in range(100)]
                await asyncio.sleep(0)
                fleet.advance(10.0)
                await asyncio.gather(*clients)

            status, payload = await fetch_json(
                app.port, f"/fleets/{fleet.name}/health")
            assert payload["status"] == "red"
            link = payload["links"]["1->2"]
            assert link["status"] == "red"
            assert link["recommendation"]
            return fleet.monitor.packet_digest()
        finally:
            await app.stop()

    assert asyncio.run(main()) == golden
