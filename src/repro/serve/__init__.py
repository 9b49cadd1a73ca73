"""``repro.serve`` — the async results/scenario API.

A stdlib-only asyncio HTTP/JSON service over everything the repo computes:
the scenario registry (:mod:`repro.scenarios` + imported families), the
JSONL sweep result store (indexed for O(matches) queries by
:mod:`repro.serve.store`), and pipeline execution (queued onto the shared
sweep worker pool by :mod:`repro.serve.jobs`).

Quick start::

    $ repro serve --port 8765
    $ curl localhost:8765/scenarios
    $ curl localhost:8765/results?scenario=star-hub-8
    $ curl -X POST localhost:8765/runs -d '{"scenario": "star-hub-8"}'

See README.md, "Serving results".
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from typing import Tuple

from ..obs.logs import get_logger, kv
from .app import LRUCache, ReproApp
from .catalog import catalog_etag, catalog_json, catalog_payload, \
    scenario_record
from .http import HTTPError, Request, Response, json_response, serve_http
from .jobs import Job, JobQueue, QueueFull
from .store import ResultStore, index_path

__all__ = [
    "ReproApp", "LRUCache",
    "ResultStore", "index_path",
    "Job", "JobQueue", "QueueFull",
    "Request", "Response", "HTTPError", "json_response", "serve_http",
    "scenario_record", "catalog_payload", "catalog_etag", "catalog_json",
    "start_server", "run_server",
]


async def start_server(app: ReproApp, host: str = "127.0.0.1",
                       port: int = 0) -> Tuple["asyncio.base_events.Server",
                                               int]:
    """Start ``app``'s background machinery and its HTTP listener.

    Returns ``(server, bound_port)`` — with ``port=0`` the kernel picks an
    ephemeral port.
    """
    app.start()
    server = await serve_http(app.handle, host=host, port=port,
                              draining=lambda: app.draining)
    bound = server.sockets[0].getsockname()[1]
    return server, bound


def run_server(app: ReproApp, host: str = "127.0.0.1", port: int = 8765,
               announce=None, drain_timeout_s: float = 10.0) -> None:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

    The blocking CLI entry point.  On the first SIGTERM (or Ctrl-C) the
    server stops accepting connections, refuses new job submissions,
    waits up to ``drain_timeout_s`` for in-flight jobs, flushes the
    result store's in-memory fallback records and exits 0 — no
    half-written state, no abandoned clients.  A second signal during the
    drain aborts it.

    ``announce`` is called once with the bound port — the CLI prints the
    URL from it, and ``--port 0`` smoke harnesses parse that line to learn
    the ephemeral port.
    """
    async def _main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
        server, bound = await start_server(app, host=host, port=port)
        if announce is not None:
            announce(bound)
        try:
            await stop.wait()
        finally:
            # Stop accepting first (close the listener; responses on live
            # keep-alive connections now carry Connection: close via the
            # draining predicate), then drain jobs + flush the store, then
            # tear the machinery down.
            server.close()
            await server.wait_closed()
            await app.drain(timeout_s=drain_timeout_s)
            await app.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        # Fallback for platforms without add_signal_handler: still exit
        # cleanly, just without the async drain.
        get_logger("serve").info("event=interrupt %s",
                                 kv(drain="skipped"))
