"""A minimal HTTP/1.1 server on asyncio streams (stdlib only).

The repo is deliberately dependency-free, so the serving layer speaks
hand-rolled HTTP/1.1: request-line + headers + ``Content-Length`` bodies,
keep-alive connections, JSON responses.  It implements exactly what the
``repro.serve`` API needs — no chunked encoding, no TLS, no pipelining
fan-out — and fails closed (``400``/``413``, connection dropped) on
anything outside that envelope.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

from ..obs.logs import get_logger, kv
from ..obs.metrics import REGISTRY

__all__ = ["Request", "Response", "HTTPError", "json_response",
           "serve_http", "STATUS_PHRASES"]

_LOG = get_logger("serve.http")

#: Client connections that ended outside the normal request/response
#: cycle — reset mid-request, cancelled on shutdown, or failing to close.
#: Labelled so a chaos run can tell shed load from a sick network.
_CONNECTION_ABORTS = REGISTRY.counter(
    "repro_http_connection_aborts_total",
    "client connections torn down outside a clean request cycle",
    labels=("reason",))

#: Hard limits keeping a misbehaving client from ballooning memory.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 1024 * 1024

STATUS_PHRASES = {
    200: "OK", 202: "Accepted", 204: "No Content", 304: "Not Modified",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 409: "Conflict", 413: "Payload Too Large",
    422: "Unprocessable Entity", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """Raised by handlers to produce a clean JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str                                  # decoded, no query string
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)  # lower-cased keys
    body: bytes = b""

    def json(self) -> object:
        """The body parsed as JSON (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HTTPError(400, f"request body is not valid JSON: {exc}")


@dataclass
class Response:
    """One response a handler produced."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self, keep_alive: bool, head_only: bool = False) -> bytes:
        """The response on the wire.

        ``head_only`` answers a ``HEAD`` request: the header block —
        including the ``Content-Length`` the equivalent ``GET`` would carry
        — without the body octets.
        """
        phrase = STATUS_PHRASES.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {phrase}",
                 f"Content-Length: {len(self.body)}"]
        if self.body or self.status not in (204, 304):
            lines.append(f"Content-Type: {self.content_type}")
        for key, value in self.headers.items():
            lines.append(f"{key}: {value}")
        lines.append("Connection: " + ("keep-alive" if keep_alive
                                       else "close"))
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head if head_only else head + self.body


def json_response(payload: object, status: int = 200,
                  headers: Optional[Dict[str, str]] = None) -> Response:
    """A JSON response (deterministic key order, trailing newline for
    curl-friendliness)."""
    body = (json.dumps(payload, sort_keys=True, indent=1) + "\n"
            ).encode("utf-8")
    return Response(status=status, body=body, headers=dict(headers or {}))


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None                       # client closed between requests
        raise HTTPError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HTTPError(413, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HTTPError(413, "request head too large")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:
        raise HTTPError(400, "undecodable request head")
    request_line, _, header_block = text.partition("\r\n")
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HTTPError(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for raw in header_block.strip().split("\r\n"):
        if not raw:
            continue
        name, sep, value = raw.partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        split = urlsplit(target)
    except ValueError as exc:              # e.g. an unclosed IPv6 bracket
        raise HTTPError(400, f"malformed request target: {exc}")
    query = {key: value for key, value in parse_qsl(split.query,
                                                    keep_blank_values=True)}
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HTTPError(400, "malformed Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HTTPError(413, "request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HTTPError(400, "truncated request body")
    elif headers.get("transfer-encoding"):
        raise HTTPError(400, "chunked request bodies are not supported")
    return Request(method=method.upper(), path=unquote(split.path) or "/",
                   query=query, headers=headers, body=body)


Handler = Callable[[Request], Awaitable[Response]]

#: Predicate consulted per response: truthy means the server is draining
#: (SIGTERM received) and open connections should be told to go away.
Draining = Callable[[], bool]


async def _serve_connection(handler: Handler, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            draining: Optional[Draining] = None) -> None:
    try:
        while True:
            try:
                request = await _read_request(reader)
            except HTTPError as exc:
                # The stream may be desynchronised: answer and hang up.
                writer.write(json_response({"error": exc.message},
                                           exc.status).encode(False))
                await writer.drain()
                return
            if request is None:
                return
            keep_alive = request.headers.get("connection",
                                             "keep-alive").lower() != "close"
            if draining is not None and draining():
                # Graceful drain: answer this request, then shed the
                # connection (``Connection: close``) so keep-alive clients
                # don't pin the server past its drain deadline.
                keep_alive = False
            try:
                response = await handler(request)
            except HTTPError as exc:
                response = json_response({"error": exc.message}, exc.status)
            except Exception as exc:   # noqa: BLE001 — a handler bug must
                # not take the server down; surface it to the client.
                response = json_response(
                    {"error": f"internal error: {type(exc).__name__}: {exc}"},
                    500)
            writer.write(response.encode(
                keep_alive, head_only=request.method == "HEAD"))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, asyncio.CancelledError) as exc:
        # Peer reset mid-cycle or the server is shutting down: the
        # connection is gone either way, but count it so chaos runs can
        # distinguish shed load from a sick network.
        reason = ("cancelled" if isinstance(exc, asyncio.CancelledError)
                  else "reset")
        _CONNECTION_ABORTS.labels(reason=reason).inc()
        _LOG.debug("event=connection_abort %s",
                   kv(reason=reason, error=type(exc).__name__))
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError) as exc:
            # The close handshake failed on an already-dead socket; the
            # fd is released regardless.
            _CONNECTION_ABORTS.labels(reason="close_failed").inc()
            _LOG.debug("event=connection_close_failed %s",
                       kv(error=type(exc).__name__))


async def serve_http(handler: Handler, host: str = "127.0.0.1",
                     port: int = 0,
                     draining: Optional[Draining] = None
                     ) -> "asyncio.base_events.Server":
    """Start serving ``handler``; returns the listening asyncio server.

    ``port=0`` binds an ephemeral port; read the actual one off
    ``server.sockets[0].getsockname()[1]``.  ``draining`` (optional)
    marks responses ``Connection: close`` while it returns true.
    """
    return await asyncio.start_server(
        lambda r, w: _serve_connection(handler, r, w, draining),
        host=host, port=port, limit=MAX_HEADER_BYTES)
