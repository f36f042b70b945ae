"""End-to-end tests of the fleet server's HTTP surface.

Each test runs a real ``ServeApp`` on an ephemeral port inside its own
event loop (``auto_tick=False``: the test drives the sim by hand, so
assertions never race a background ticker).
"""

import asyncio
import json

from repro.serve import ServeApp, build_fleet

from tests.serve.conftest import (
    fetch,
    fetch_json,
    open_events,
    parse_prometheus,
)

LINK_DEGRADE = {
    "enabled": True,
    "specs": [{"kind": "link_degrade", "link": [2, 3],
               "loss_db": 80.0, "at": 0.0}],
}


def make_app(spec="chain:5", **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("assess_every", 20.0)
    kw.setdefault("warm_up", 10.0)
    fleet = build_fleet(spec, **kw)
    return ServeApp([fleet]), fleet


def test_index_lists_fleets_and_endpoints():
    async def main():
        app, fleet = make_app()
        await app.start(auto_tick=False)
        try:
            status, payload = await fetch_json(app.port, "/")
            assert status == 200
            assert payload["service"] == "repro.serve"
            (card,) = payload["fleets"]
            assert card["name"] == fleet.name
            assert card["nodes"] == len(fleet.testbed)
            assert "GET /events" in payload["endpoints"]
        finally:
            await app.stop()

    asyncio.run(main())


def test_every_listed_endpoint_routes():
    """Each entry of ``GET /``'s ``endpoints``, with ``<name>`` filled
    in, reaches a handler: none answers ``404 no route``.  The POST
    bodies are malformed JSON, so those answer 400 and change nothing,
    and ``/events`` is read only as far as its opening comment."""
    async def main():
        app, fleet = make_app()
        await app.start(auto_tick=False)
        try:
            _, index = await fetch_json(app.port, "/")
            assert "GET /fleets/<name>/faults" in index["endpoints"]
            for entry in index["endpoints"]:
                method, path = entry.split(" ")
                path = path.replace("<name>", fleet.name)
                if path == "/events":
                    head, _, _, writer = await open_events(app.port, path)
                    status = int(head.split(b" ")[1])
                    writer.close()
                    body = b""
                else:
                    status, _, body = await fetch(
                        app.port, path, method,
                        b"not json" if method == "POST" else None)
                assert not (status == 404 and b"no route" in body), entry
        finally:
            await app.stop()

    asyncio.run(main())


def test_events_with_a_trailing_slash_streams():
    """``/events/`` is ``/events``, as ``/metrics/`` is ``/metrics``."""
    async def main():
        app, _ = make_app()
        await app.start(auto_tick=False)
        try:
            head, comment, _, writer = await open_events(app.port,
                                                         "/events/")
            assert head.startswith(b"HTTP/1.1 200")
            assert comment == b": repro.serve event stream\n\n"
            assert len(app.hub) == 1
            writer.close()
        finally:
            await app.stop()

    asyncio.run(main())


def test_assessor_health_names_the_fleet():
    """``HealthAssessor.health(fleet=...)`` is the path that puts a
    fleet's name into ``/health``: pending, and after an assessment,
    where the payload stays JSON-ready."""
    fleet = build_fleet("chain:3", seed=7, assess_every=20.0, warm_up=5.0)
    assert fleet.health_payload["fleet"] == fleet.name
    assert fleet.assessor.health(fleet="field") == {
        "status": "pending", "mode": "active", "assessments": 0,
        "sim_time": round(fleet.sim_time, 6), "fleet": "field"}
    fleet.assessor.assess()
    view = json.loads(json.dumps(fleet.assessor.health(fleet="field")))
    assert view["fleet"] == "field"
    assert view["assessments"] == 1
    assert view["status"] == "green"


def test_metrics_exposition_parses_and_carries_fleet_label():
    async def main():
        app, fleet = make_app()
        await app.start(auto_tick=False)
        try:
            fleet.advance(25.0)  # past one assessment
            status, headers, body = await fetch(app.port, "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            samples = parse_prometheus(body.decode())
            assert samples  # non-empty after traffic
            # Sim metrics carry the fleet label, sanitized names.
            assert any(k.startswith("mac_sent_frames{")
                       and 'fleet="chain5"' in k for k in samples)
            # Serve-layer samples are present.
            assert samples["serve_sse_clients"] == 0
            assert samples['serve_fleet_ticks_total{fleet="chain5"}'] == 1
            assert samples['serve_assessments_total{fleet="chain5"}'] == 1
            # Health gauges: all green = 0 on the healthy chain.
            assert samples['serve_health_status{fleet="chain5"}'] == 0
        finally:
            await app.stop()

    asyncio.run(main())


def test_health_pending_before_first_assessment_then_green():
    async def main():
        app, fleet = make_app()
        await app.start(auto_tick=False)
        try:
            status, payload = await fetch_json(
                app.port, f"/fleets/{fleet.name}/health")
            assert status == 200
            assert payload["status"] == "pending"
            fleet.advance(25.0)
            status, payload = await fetch_json(
                app.port, f"/fleets/{fleet.name}/health")
            assert payload["status"] == "green"
            assert payload["healthy"] is True
            assert payload["assessments"] == 1
            # Every watched node and link is painted.
            assert set(payload["nodes"]) == {"1", "2", "3", "4", "5"}
            assert all(e["status"] == "green"
                       for e in payload["links"].values())
        finally:
            await app.stop()

    asyncio.run(main())


def test_fault_injection_turns_link_red_with_recommendation():
    """The acceptance path: POST a link_degrade, and within one
    assessment period /health shows the link red and says what to do."""

    async def main():
        app, fleet = make_app()
        await app.start(auto_tick=False)
        try:
            fleet.advance(25.0)  # establish a green baseline
            status, reply = await fetch_json(
                app.port, f"/fleets/{fleet.name}/faults", "POST",
                LINK_DEGRADE)
            assert status == 202
            assert reply["queued"] is True
            assert reply["plan"]["specs"][0]["kind"] == "link_degrade"
            fleet.advance(20.0)  # exactly one assessment period
            status, payload = await fetch_json(
                app.port, f"/fleets/{fleet.name}/health")
            assert payload["status"] == "red"
            link = payload["links"]["2->3"]
            assert link["status"] == "red"
            assert link["kind"] == "broken_link"
            assert "nodes 2 and 3" in link["recommendation"]
            assert payload["recommendations"]  # plain-language advice
            # The injected plan is visible for audit.
            status, audit = await fetch_json(
                app.port, f"/fleets/{fleet.name}/faults")
            assert len(audit["plans"]) == 1
            # And the metrics gauge went red (= 2) for that link.
            _, _, body = await fetch(app.port, "/metrics")
            samples = parse_prometheus(body.decode())
            key = ('serve_health_link_status{fleet="chain5",link="2->3"}')
            assert samples[key] == 2
        finally:
            await app.stop()

    asyncio.run(main())


def test_malformed_fault_plan_rejected_with_400():
    async def main():
        app, fleet = make_app()
        await app.start(auto_tick=False)
        try:
            for bad in (
                {"enabled": True, "specs": [{"kind": "nope"}]},
                {"enabled": True,
                 "specs": [{"kind": "link_degrade"}]},  # missing link
            ):
                status, reply = await fetch_json(
                    app.port, f"/fleets/{fleet.name}/faults", "POST", bad)
                assert status == 400
                assert "invalid fault plan" in reply["error"]
            # Not JSON at all.
            status, _, raw = await fetch(
                app.port, f"/fleets/{fleet.name}/faults", "POST",
                b"not json")
            assert status == 400
            # Nothing was queued by any of the rejects.
            status, audit = await fetch_json(
                app.port, f"/fleets/{fleet.name}/faults")
            assert audit["plans"] == []
        finally:
            await app.stop()

    asyncio.run(main())


def test_unknown_routes_and_fleets_get_404():
    async def main():
        app, _ = make_app()
        await app.start(auto_tick=False)
        try:
            status, _ = await fetch_json(app.port, "/nope")
            assert status == 404
            status, reply = await fetch_json(app.port,
                                             "/fleets/ghost/health")
            assert status == 404
            assert "ghost" in reply["error"]
        finally:
            await app.stop()

    asyncio.run(main())


def test_malformed_request_line_gets_400():
    async def main():
        app, _ = make_app()
        await app.start(auto_tick=False)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.port)
            writer.write(b"GARBAGE\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            assert b"400" in raw.split(b"\r\n", 1)[0]
            writer.close()
        finally:
            await app.stop()

    asyncio.run(main())


def test_stats_endpoint_serves_registry_snapshot():
    async def main():
        app, fleet = make_app()
        await app.start(auto_tick=False)
        try:
            fleet.advance(5.0)
            status, payload = await fetch_json(
                app.port, f"/fleets/{fleet.name}/stats")
            assert status == 200
            assert payload["fleet"] == fleet.name
            assert payload["counters"]  # beacon traffic counted
            assert "packet_sha256" not in payload  # the cheap snapshot
            assert payload["n_packets"] > 0
        finally:
            await app.stop()

    asyncio.run(main())


def test_sse_stream_delivers_trace_health_and_finding_events():
    async def main():
        app, fleet = make_app()
        await app.start(auto_tick=False)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.port)
            writer.write(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"200 OK" in head and b"text/event-stream" in head
            await asyncio.sleep(0.05)
            assert len(app.hub) == 1

            # Break a link before the first assessment: the stream must
            # carry the finding the assessor discovers.
            fleet.queue_fault_plan(LINK_DEGRADE)
            for _ in range(5):
                fleet.advance(5.0)
                await asyncio.sleep(0)

            kinds, findings = set(), []
            with_deadline = asyncio.wait_for
            while {"trace", "health", "finding"} - kinds:
                frame = await with_deadline(
                    reader.readuntil(b"\n\n"), timeout=10)
                text = frame.decode()
                kind = text.split("\n", 1)[0].removeprefix("event: ")
                kinds.add(kind)
                if kind == "finding":
                    data = text.split("data: ", 1)[1]
                    findings.append(json.loads(data))
            (finding,) = findings[:1]
            assert finding["status"] in ("red", "yellow")
            assert finding["recommendation"]
            assert finding["finding"]["kind"]
            writer.close()
        finally:
            await app.stop()

    asyncio.run(main())


def test_events_for_an_unknown_fleet_is_a_404_with_no_subscriber():
    """Like ``/metrics?fleet=nope``: a stream filtered to a fleet the
    server lacks would carry nothing."""
    async def main():
        app, _ = make_app()
        await app.start(auto_tick=False)
        try:
            status, payload = await fetch_json(app.port,
                                               "/events?fleet=nope")
            assert status == 404
            assert payload["error"].startswith("unknown fleet 'nope'")
            assert len(app.hub) == 0
        finally:
            await app.stop()

    asyncio.run(main())


def test_a_standing_finding_is_published_once():
    """Passive evidence (``silent_s``) changes at every assessment; the
    stream still names the broken link once, not once per assessment."""
    fleet = build_fleet("chain:5", mode="passive", seed=7,
                        assess_every=10.0, warm_up=10.0,
                        fault_plan=dict(LINK_DEGRADE, specs=[
                            dict(LINK_DEGRADE["specs"][0], at=30.0)]))
    sub = fleet.hub.subscribe()
    fleet.advance(80.0)
    events = [sub.queue.get_nowait() for _ in range(sub.queue.qsize())]
    findings = [(e["finding"]["kind"], e["finding"]["link"])
                for e in events if e["type"] == "finding"]
    assert findings == [("broken_link", [2, 3])]
    standing = [e["findings"] for e in events if e["type"] == "health"]
    assert standing[-5:] == [1] * 5


def test_raising_advance_fails_only_that_fleet():
    """A tick that raises stops that fleet's ticker and reports it as
    ``failed``, with the error, in ``GET /`` and ``/health`` — once,
    as one ``fleet_error`` event — while the other fleet keeps ticking
    and the server keeps answering.  A fault plan for the failed fleet,
    which no tick would install, is a 409."""
    async def main():
        good, bad = (build_fleet("chain:3", name=name, seed=7,
                                 assess_every=20.0, warm_up=5.0)
                     for name in ("good", "bad"))
        app = ServeApp([good, bad], tick_s=0.001, step_s=0.5)
        ticked = asyncio.Event()
        good_advance, bad_calls = good.advance, []

        def counted_advance(sim_seconds):
            good_advance(sim_seconds)
            ticked.set()

        def broken_advance(sim_seconds):
            bad_calls.append(sim_seconds)
            raise RuntimeError("the sim fell over")

        good.advance, bad.advance = counted_advance, broken_advance
        sub = app.hub.subscribe()
        await app.start()
        try:
            while (event := await asyncio.wait_for(sub.get(), 30))[
                    "type"] != "fleet_error":
                pass
            assert event["fleet"] == "bad"
            assert event["error"] == "RuntimeError: the sim fell over"
            ticked.clear()
            await asyncio.wait_for(ticked.wait(), 30)  # good still ticks

            status, index = await fetch_json(app.port, "/")
            assert status == 200
            cards = {card["name"]: card for card in index["fleets"]}
            assert cards["bad"]["status"] == "failed"
            assert cards["bad"]["error"] == event["error"]
            assert cards["good"]["error"] is None
            status, health = await fetch_json(app.port, "/health")
            assert status == 200
            assert health["fleets"]["bad"]["status"] == "failed"
            assert health["fleets"]["bad"]["error"] == event["error"]
            assert health["fleets"]["good"]["status"] != "failed"
            status, _, _ = await fetch(app.port, "/metrics")
            assert status == 200
            status, reply = await fetch_json(
                app.port, "/fleets/bad/faults", "POST", LINK_DEGRADE)
            assert status == 409 and "has failed" in reply["error"]
            assert len(bad_calls) == 1
            later = [sub.queue.get_nowait()["type"]
                     for _ in range(sub.queue.qsize())]
            assert "fleet_error" not in later
        finally:
            await app.stop()

    asyncio.run(main())
