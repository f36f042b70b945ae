"""Shared helpers for the fleet-server tests.

No pytest-asyncio in the dependency set, so every async test drives its
own loop via ``asyncio.run`` inside a plain sync test function; the
helpers here are ordinary coroutines those tests await.
"""

import asyncio
import json


async def fetch(port: int, path: str, method: str = "GET",
                body: bytes | None = None) -> tuple[int, dict, bytes]:
    """One HTTP exchange against a ServeApp; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        writer.write(head.encode() + b"\r\n" + (body or b""))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=10)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


async def fetch_json(port: int, path: str, method: str = "GET",
                     payload: object = None) -> tuple[int, object]:
    body = (None if payload is None
            else json.dumps(payload).encode())
    status, _, raw = await fetch(port, path, method, body)
    return status, json.loads(raw)


def parse_prometheus(text: str) -> dict[str, float]:
    """Samples of a Prometheus exposition, keyed name{labels} -> value.

    Doubles as a format check: every non-comment line must parse.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        assert key, f"unparseable sample line: {line!r}"
        samples[key] = float(value)
    return samples


async def open_events(port: int, path: str = "/events"):
    """Open an SSE stream on ``path``.

    Returns ``(head, comment, reader, writer)`` once the response head
    and the server's opening comment have arrived; by then the client's
    subscription exists.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode())
    await writer.drain()
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=10)
    comment = await asyncio.wait_for(reader.readuntil(b"\n\n"), timeout=10)
    return head, comment, reader, writer
