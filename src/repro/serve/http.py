"""A minimal, dependency-free HTTP/1.1 server core over asyncio streams.

Exactly the subset the fleet server needs, hand-rolled on stdlib
``asyncio`` so ``repro.serve`` adds no dependencies: request-line +
header parsing, ``Content-Length`` bodies, one-shot responses with
``Connection: close``, and long-lived Server-Sent Events responses.
No chunked encoding, no keep-alive, no TLS — pollers open a fresh
connection per scrape, exactly like a Prometheus scraper does.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = ["Request", "HttpError", "read_request", "response",
           "json_response", "text_response", "sse_headers"]

#: Reasonable ceilings so one hostile client cannot balloon memory.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024
REQUEST_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 500: "Internal Server Error",
}


class HttpError(Exception):
    """A client-visible failure; the handler turns it into a response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    #: The URL path with trailing slashes stripped (``/events/`` is
    #: ``/events``; the root stays ``/``), so every route matches once.
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def param(self, name: str, default: str | None = None) -> str | None:
        """First value of query parameter ``name``."""
        values = self.query.get(name)
        return values[0] if values else default

    def json(self) -> object:
        """The body decoded as JSON (400 on malformed input)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from exc


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off ``reader``.

    Returns ``None`` on a cleanly closed idle connection (client went
    away before sending anything); raises :class:`HttpError` on
    malformed or oversized input.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=REQUEST_TIMEOUT_S)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "request head too large") from exc
    except asyncio.TimeoutError as exc:
        raise HttpError(408, "timed out reading request") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError as exc:
            raise HttpError(400, "bad Content-Length") from exc
        if n < 0 or n > MAX_BODY_BYTES:
            raise HttpError(413, "body too large")
        try:
            body = await asyncio.wait_for(
                reader.readexactly(n), timeout=REQUEST_TIMEOUT_S)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "truncated body") from exc
        except asyncio.TimeoutError as exc:
            raise HttpError(408, "timed out reading body") from exc

    return Request(
        method=method.upper(),
        path=unquote(split.path).rstrip("/") or "/",
        query=parse_qs(split.query),
        headers=headers,
        body=body,
    )


def response(status: int, body: bytes, content_type: str) -> bytes:
    """A complete one-shot HTTP/1.1 response (``Connection: close``)."""
    reason = _REASONS.get(status, "Unknown")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    return ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body


def text_response(status: int, text: str,
                  content_type: str = "text/plain; charset=utf-8") -> bytes:
    return response(status, text.encode("utf-8"), content_type)


def json_response(status: int, payload: object) -> bytes:
    body = json.dumps(payload, sort_keys=True, indent=2).encode("utf-8")
    return response(status, body + b"\n",
                    "application/json; charset=utf-8")


def sse_headers() -> bytes:
    """The header block that opens a Server-Sent Events stream.

    No ``Content-Length`` — the stream stays open until either side
    closes; the body is ``format_sse`` frames.
    """
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-cache\r\n"
        "Connection: close\r\n"
        "X-Accel-Buffering: no\r\n"
        "\r\n"
    ).encode("latin-1")
