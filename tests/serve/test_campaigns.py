"""Campaigns over HTTP: launch, poll, digest parity with local runs.

``POST /campaigns`` coordinates the campaign off the event loop (every
cell executes in warm-pool worker processes, whatever ``workers`` is),
so the served digest must be identical to calling :func:`run_campaign`
directly — the serve layer is plumbing, never a second execution
semantics — and no cell can end the server.
"""

import asyncio
import json
import os
import threading

import repro.campaign
from repro.campaign import MAX_RETRIES, Campaign, run_campaign
from repro.serve import ServeApp, build_fleet

from tests.serve.conftest import fetch_json

SCN = "tests.campaign._pool_scenarios"

BODY = {
    "scenario": "chain_beacons", "name": "served", "seed": 9,
    "base_params": {"seconds": 5.0}, "grid": {"nodes": [3, 4]},
    "workers": 1,
}
LOCAL = Campaign(
    name="served", scenario="chain_beacons", seed=9,
    base_params={"seconds": 5.0}, grid={"nodes": [3, 4]},
)


def make_app():
    fleet = build_fleet("chain:5", seed=7, assess_every=20.0, warm_up=10.0)
    return ServeApp([fleet])


async def poll_until_settled(port, name, timeout=60.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while True:
        status, record = await fetch_json(port, f"/campaigns/{name}")
        assert status == 200
        if record["status"] != "running":
            return record
        assert asyncio.get_event_loop().time() < deadline, record
        await asyncio.sleep(0.05)


def test_posted_campaign_runs_to_the_local_digest():
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            status, reply = await fetch_json(
                app.port, "/campaigns", "POST", BODY)
            assert status == 202
            assert reply["accepted"] is True
            assert reply["status_url"] == "/campaigns/served"
            assert reply["campaign"]["total"] == 2
            record = await poll_until_settled(app.port, "served")
            assert record["status"] == "done", record
            assert record["runs"] == 2 and record["failed"] == 0
            assert record["failures"] == []
            assert record["digest"] == run_campaign(LOCAL,
                                                    workers=1).digest()
            status, listing = await fetch_json(app.port, "/campaigns")
            assert status == 200
            assert [c["name"] for c in listing["campaigns"]] == ["served"]
        finally:
            await app.stop()

    asyncio.run(main())


def test_sharded_campaign_over_http():
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            body = dict(BODY, name="half", shard=[0, 2])
            status, reply = await fetch_json(
                app.port, "/campaigns", "POST", body)
            assert status == 202
            assert reply["campaign"]["shard"] == [0, 2]
            assert reply["campaign"]["total"] == 1
            record = await poll_until_settled(app.port, "half")
            assert record["status"] == "done", record
            assert record["runs"] == 1
            local = run_campaign(LOCAL.shard(0, 2), workers=1)
            assert record["digest"] == local.digest()
        finally:
            await app.stop()

    asyncio.run(main())



def test_campaign_verdict_is_an_sse_campaign_frame():
    """The campaign verdict goes out as ``event: campaign``, named by
    its ``type`` like every other event, not as a bare ``message``."""
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.port)
            writer.write(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            await reader.readuntil(b"\n\n")  # the stream's comment line
            body = dict(BODY, name="framed", grid={"nodes": [3]})
            status, _ = await fetch_json(app.port, "/campaigns", "POST",
                                         body)
            assert status == 202
            frame = await asyncio.wait_for(reader.readuntil(b"\n\n"),
                                           timeout=60)
            name, _, data = frame.decode().split("\n")[:3]
            assert name == "event: campaign"
            assert json.loads(data.removeprefix("data: ")) == {
                "type": "campaign", "campaign": "framed", "status": "done"}
            writer.close()
        finally:
            await app.stop()

    asyncio.run(main())


def test_campaign_validation_and_lookup_errors(capsys):
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            for bad in (
                {},                                   # no scenario
                {"scenario": "no-such-scenario"},     # unknown scenario
                {"scenario": "sys:exit"},             # callable, no scenario
                {"scenario": "sys:exit", "workers": 1},
                {"scenario": "sys:exit", "workers": 2},
                {"scenario": "this:x"},               # never imported
                ["chain_beacons"],                    # not an object
                dict(BODY, repeats=0),                # invalid repeats
                dict(BODY, repeats=True),
                dict(BODY, repeats=1_000_000_000),    # past MAX_RUNS
                dict(BODY, seed=1.5),
                dict(BODY, grid={"nodes": "345"}),    # a string is no axis
                dict(BODY, grid={"nodes": [3], "seconds": []}),
                dict(BODY, repeat=2),                 # an unknown key
                dict(BODY, fault_plan=None),          # plans: base_params
                dict(BODY, shard=[5, 2]),             # index out of range
                dict(BODY, shard=[0]),
                dict(BODY, workers=True),
                dict(BODY, timeout_s=float("nan")),   # non-finite timeout
                dict(BODY, timeout_s=-1),             # negative timeout
                dict(BODY, timeout_s=float("inf")),
                dict(BODY, timeout_s=1e10),           # past TIMEOUT_MAX
                dict(BODY, retries=-1),               # retries out of range
                dict(BODY, retries=MAX_RETRIES + 1),
                dict(BODY, retries=1_000_000_000),
            ):
                status, reply = await fetch_json(
                    app.port, "/campaigns", "POST", bad)
                assert status == 400, (bad, reply)
                assert reply["error"].startswith("invalid campaign: ")
            assert app.campaigns == {}  # nothing launched
            status, _ = await fetch_json(app.port, "/")
            assert status == 200
            status, _ = await fetch_json(app.port, "/campaigns/ghost")
            assert status == 404
        finally:
            await app.stop()

    asyncio.run(main())
    # Checking a reference ran no module code (`this` prints when
    # imported).
    assert "Zen of Python" not in capsys.readouterr().out


def test_retries_and_timeout_accepted_at_their_bounds():
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            body = dict(BODY, name="bounded", timeout_s=120,
                        retries=MAX_RETRIES)
            status, reply = await fetch_json(
                app.port, "/campaigns", "POST", body)
            assert status == 202, reply
            record = await poll_until_settled(app.port, "bounded")
            assert record["status"] == "done", record
            assert record["failed"] == 0
        finally:
            await app.stop()

    asyncio.run(main())


def test_negative_workers_normalized_to_serial():
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            body = dict(BODY, name="neg", workers=-3)
            status, reply = await fetch_json(
                app.port, "/campaigns", "POST", body)
            assert status == 202
            # Clamped to >= 1, never passed through as a bogus count
            # that would silently degrade inside the worker thread.
            assert reply["campaign"]["workers"] == 1
            record = await poll_until_settled(app.port, "neg")
            assert record["status"] == "done", record
            assert record["digest"] == run_campaign(LOCAL,
                                                    workers=1).digest()
        finally:
            await app.stop()

    asyncio.run(main())


def test_served_workers_are_clamped_to_the_host(monkeypatch):
    """The warm pool is shared and outlives every request, so a served
    campaign runs on at most ``default_workers()`` workers, whatever it
    asks for, and its record says so."""
    from repro.campaign import pool as pool_mod
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setattr(pool_mod, "_POOLS", {})

    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            body = dict(BODY, name="wide", workers=64)
            status, reply = await fetch_json(
                app.port, "/campaigns", "POST", body)
            assert status == 202
            assert reply["campaign"]["workers"] == 2
            record = await poll_until_settled(app.port, "wide")
            assert record["status"] == "done", record
            assert record["workers"] == 2
            assert record["digest"] == run_campaign(LOCAL,
                                                    workers=1).digest()
        finally:
            await app.stop()

    try:
        asyncio.run(main())
        assert [p.workers for p in pool_mod._POOLS.values()] == [2]
    finally:
        for p in pool_mod._POOLS.values():
            p.close()


def test_duplicate_running_campaign_is_conflict(monkeypatch):
    # The server imports run_campaign when a campaign starts and calls
    # it from a coordinator thread, so a wrapper that waits on a gate
    # holds the first campaign open until the duplicate POST has been
    # answered — no bet on the run's length.
    gate = threading.Event()

    def gated_run_campaign(*args, **kwargs):
        assert gate.wait(timeout=60.0), "gate never released"
        return run_campaign(*args, **kwargs)

    monkeypatch.setattr(repro.campaign, "run_campaign", gated_run_campaign)

    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            slow = dict(BODY, name="dup",
                        base_params={"seconds": 30.0},
                        grid={"nodes": [3, 4, 5]})
            status, _ = await fetch_json(app.port, "/campaigns", "POST",
                                         slow)
            assert status == 202
            status, _ = await fetch_json(app.port, "/campaigns", "POST",
                                         slow)
            assert status == 409
            gate.set()
            record = await poll_until_settled(app.port, "dup")
            assert record["status"] == "done"
            # Settled campaigns may be re-posted (a re-run).
            status, _ = await fetch_json(app.port, "/campaigns", "POST",
                                         slow)
            assert status == 202
            await poll_until_settled(app.port, "dup")
        finally:
            gate.set()  # never leave the worker thread parked
            await app.stop()

    asyncio.run(main())


def test_one_cell_crashing_campaign_leaves_the_server_running():
    """``workers > 1`` runs even a lone cell in the warm pool: a cell
    that kills its process costs one failed run, not the server."""
    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            body = {"scenario": "tests.campaign._pool_scenarios:hard_crash",
                    "name": "crashy", "seed": 4, "workers": 2,
                    "retries": 0,
                    "base_params": {"cell": 0, "crash_cell": 0}}
            status, reply = await fetch_json(
                app.port, "/campaigns", "POST", body)
            assert status == 202, reply
            record = await poll_until_settled(app.port, "crashy",
                                              timeout=120.0)
            assert record["status"] == "done", record
            assert record["runs"] == 1 and record["failed"] == 1
            assert "died mid-run" in record["failures"][0]["error"]
        finally:
            await app.stop()

    asyncio.run(main())


def served_run(body, monkeypatch=None):
    """POST ``body``, wait for its status to settle, and return the
    record plus the server's own ``CampaignResult`` (via a spy)."""
    outs = []
    if monkeypatch is not None:
        def spy(*args, **kwargs):
            outs.append(run_campaign(*args, **kwargs))
            return outs[-1]
        monkeypatch.setattr(repro.campaign, "run_campaign", spy)

    async def main():
        app = make_app()
        await app.start(auto_tick=False)
        try:
            status, reply = await fetch_json(
                app.port, "/campaigns", "POST", body)
            assert status == 202, reply
            record = await poll_until_settled(app.port, body["name"],
                                              timeout=120.0)
            status, _ = await fetch_json(app.port, "/")
            assert status == 200  # the server outlived the cell
            return record
        finally:
            await app.stop()

    return asyncio.run(main()), outs


def test_one_worker_crashing_cell_leaves_the_server_running():
    record, _ = served_run({
        "scenario": f"{SCN}:hard_crash", "name": "crashy1", "seed": 4,
        "workers": 1, "retries": 0,
        "base_params": {"cell": 0, "crash_cell": 0}})
    assert record["status"] == "done", record
    assert record["runs"] == 1 and record["failed"] == 1
    assert "died mid-run" in record["failures"][0]["error"]


def test_one_worker_timeout_is_enforced():
    record, _ = served_run({
        "scenario": f"{SCN}:sleepy", "name": "sleepy1", "seed": 4,
        "workers": 1, "timeout_s": 1, "retries": 0,
        "base_params": {"duration": 30.0}})
    assert record["status"] == "done", record
    assert record["failed"] == 1
    assert "timeout after 1s" in record["failures"][0]["error"]


def test_one_worker_cells_run_outside_the_server(monkeypatch):
    record, (out,) = served_run({
        "scenario": f"{SCN}:echo_pid", "name": "pid1", "seed": 4,
        "workers": 1}, monkeypatch)
    assert record["status"] == "done" and record["failed"] == 0, record
    assert out.runs[0].values["pid"] != os.getpid()
