"""The HTTP/JSON surface of the placement service (stdlib only).

Built on :class:`http.server.ThreadingHTTPServer` — no web framework,
matching the repo's zero-new-dependency rule. Routes:

====================  =====================================================
``POST /jobs``        submit ``{"request": <request dict>, "priority": n}``
                      -> 201 with the job snapshot (cache hits come back
                      already ``done`` with ``cached: true``)
``GET /jobs``         every tracked job (without result payloads)
``GET /jobs/<id>``    one job, including its result when done
``DELETE /jobs/<id>`` cancel a pending job -> ``{"cancelled": bool}``
``GET /health``       liveness: status, worker count, uptime
``GET /stats``        queue counters, result-cache hit/miss/eviction,
                      aggregated StageCache statistics
====================  =====================================================

Request/response bodies use :mod:`repro.service.schemas` exclusively,
so the HTTP path serves the same floats the library computes — the
verify subsystem's service tier holds this to tolerance 0.0. Errors
are JSON too: 400 for malformed payloads (including a non-integer or
negative ``Content-Length``), 404 for unknown ids/routes, 405 for
unsupported methods, 413 for a body above :data:`MAX_BODY_BYTES`.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.service.schemas import request_from_dict
from repro.service.workers import PlacementService
from repro.util.errors import ReproError

#: Largest ``POST`` body the service reads. A request announcing more
#: is answered 413 before any of its body is read.
MAX_BODY_BYTES = 1 << 20


class PlacementServer:
    """One service instance bound to an HTTP listener.

    Parameters
    ----------
    service:
        The :class:`~repro.service.workers.PlacementService` to expose
        (a default two-worker one is created when omitted).
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back
        from :attr:`port` — the pattern the tests use).
    """

    def __init__(
        self,
        service: Optional[PlacementService] = None,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.service = service or PlacementService()
        self.started_at = time.monotonic()
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PlacementServer":
        """Start workers and serve HTTP on a background thread."""
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Start workers and serve on the calling thread (CLI path)."""
        self.service.start()
        self.httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting HTTP, then shut the worker pool down."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.service.stop()

    def __enter__(self) -> "PlacementServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def make_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    cache_entries: int = 1024,
    job_timeout: Optional[float] = None,
) -> PlacementServer:
    """Build a :class:`PlacementServer` with a fresh service."""
    from repro.service.cache import ResultCache

    service = PlacementService(
        workers=workers,
        result_cache=ResultCache(max_entries=cache_entries),
        job_timeout=job_timeout,
    )
    return PlacementServer(service=service, host=host, port=port)


def _make_handler(server: PlacementServer):
    service = server.service

    class Handler(BaseHTTPRequestHandler):
        # the service speaks JSON everywhere, including errors
        protocol_version = "HTTP/1.1"

        def log_message(self, *args) -> None:  # quiet by default
            pass

        # -- plumbing -------------------------------------------------------
        def _send(
            self, status: int, payload: dict, close: bool = False
        ) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                # also sets close_connection: nothing more is read
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _error(
            self, status: int, message: str, close: bool = False
        ) -> None:
            self._send(status, {"error": message}, close)

        def _route(self) -> Tuple[str, Optional[str]]:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if not parts:
                return "", None
            if len(parts) == 1:
                return parts[0], None
            return parts[0], "/".join(parts[1:])

        # -- verbs ----------------------------------------------------------
        def do_GET(self) -> None:
            head, rest = self._route()
            if head == "health" and rest is None:
                self._send(
                    200,
                    {
                        "status": "ok",
                        "workers": service.num_workers,
                        "uptime_s": time.monotonic() - server.started_at,
                    },
                )
            elif head == "stats" and rest is None:
                self._send(200, service.stats())
            elif head == "jobs" and rest is None:
                self._send(
                    200,
                    {
                        "jobs": [
                            j.to_dict(include_result=False)
                            for j in service.queue.jobs()
                        ]
                    },
                )
            elif head == "jobs":
                job = service.queue.poll(rest)
                if job is None:
                    self._error(404, f"unknown job {rest!r}")
                else:
                    self._send(200, job.to_dict())
            else:
                self._error(404, f"no route GET {self.path}")

        def do_POST(self) -> None:
            head, rest = self._route()
            if head != "jobs" or rest is not None:
                self._error(404, f"no route POST {self.path}")
                return
            declared = self.headers.get("Content-Length") or "0"
            try:
                length = int(declared)
            except ValueError:
                length = -1
            # an unread body must not be parsed as the next request, so
            # a refused body also closes the connection
            if length < 0:
                self._error(
                    400,
                    f"bad request: Content-Length {declared!r} is not "
                    f"a non-negative integer",
                    close=True,
                )
                return
            if length > MAX_BODY_BYTES:
                self._error(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                    close=True,
                )
                return
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(raw.decode("utf-8") or "{}")
                request = request_from_dict(payload["request"])
                priority = int(payload.get("priority", 0))
                job = service.submit(request, priority=priority)
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                self._error(400, f"bad request: {exc}")
                return
            self._send(201, job.to_dict())

        def do_DELETE(self) -> None:
            head, rest = self._route()
            if head != "jobs" or rest is None:
                self._error(404, f"no route DELETE {self.path}")
                return
            if service.queue.poll(rest) is None:
                self._error(404, f"unknown job {rest!r}")
                return
            self._send(200, {"id": rest, "cancelled": service.queue.cancel(rest)})

    return Handler
