"""The HTTP front of the scheduling service (stdlib only).

``ThreadingHTTPServer`` accepts connections on per-connection threads,
but those threads never schedule anything themselves: every POST body
is decoded on the handler thread and then dispatched through the
bounded :class:`~repro.service.pool.WorkerPool`, so the number of
graphs being scheduled at once is exactly ``config.workers`` no matter
how many sockets are open.  GET endpoints (``/healthz``, ``/stats``)
bypass the pool -- they must answer even when the pool is saturated,
or the health check would report the overload it is supposed to survive.

Transport-level failures map onto the same error contract the
dispatcher uses:

* unparsable / non-UTF-8 body -> 400,
* body over ``max_body_bytes`` -> 413 (checked against Content-Length
  *before* reading, so an oversized upload costs one header read),
* saturated pool -> 503 with a ``Retry-After`` hint,
* pool job timeout -> 504.

Startup logs the *actual* worker count and queue bound -- the
configuration is never silently capped, per the scaling rules.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.sanitize import make_lock
from repro.service.app import SchedulingService, ServiceConfig
from repro.service.pool import JobTimeoutError, PoolSaturatedError, WorkerPool

LOGGER = logging.getLogger("repro.service")


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns the service core and worker pool."""

    daemon_threads = True

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.service = SchedulingService(self.config)
        self.pool = WorkerPool(workers=self.config.workers,
                               queue_capacity=self.config.queue_capacity)
        super().__init__((self.config.host, self.config.port),
                         _ServiceHandler)
        # Port 0 binds an ephemeral port; expose what we actually got.
        self.port = self.server_address[1]
        LOGGER.info(
            "scheduling service on %s:%d -- %d workers, queue bound %d",
            self.config.host, self.port, self.pool.workers,
            self.pool.queue_capacity)
        if self.config.journal_dir is not None:
            LOGGER.info(
                "session journals in %s -- %d session(s) recovered",
                self.config.journal_dir, self.service.recovered_sessions)
        # io_ok: shutdown closes sockets and drains the pool while
        # held -- teardown-only, declared in the sanitizer policy.
        self._down = make_lock("server.down", io_ok=True)

    def shutdown(self) -> None:
        # Guard the teardown: the SIGTERM drain thread and serve()'s
        # finally block may both get here.
        with self._down:
            super().shutdown()
            self.pool.shutdown(wait=True)
            self.service.close()

    def drain(self) -> None:
        """Graceful drain (the SIGTERM path): stop session admission
        (503 + Retry-After), then stop accepting connections, finish
        queued work, and fsync every journal -- in that order, so a
        kill arriving mid-drain loses nothing acknowledged.

        Must not run on the ``serve_forever`` thread (``shutdown``
        would deadlock there); the signal handler spawns a thread.
        """
        self.service.draining.set()
        self.shutdown()


class _ServiceHandler(BaseHTTPRequestHandler):
    """One request: read, decode, dispatch through the pool, respond."""

    protocol_version = "HTTP/1.1"
    # Responses are written as two small segments (headers, body);
    # Nagle + the peer's delayed ACK would add ~40 ms per request.
    disable_nagle_algorithm = True
    server: ServiceServer  # narrowed for the attribute accesses below

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        LOGGER.debug("%s -- %s", self.address_string(), format % args)

    def _respond(self, status: int, body: Any,
                 extra_headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> Optional[Any]:
        """Decode the JSON body, or respond with the error and None."""
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            self._respond(400, {"error": "Content-Length required",
                                "error_type": "MalformedInputError"})
            return None
        if length > self.server.config.max_body_bytes:
            self._respond(413, {
                "error": f"request body of {length} bytes exceeds the "
                         f"{self.server.config.max_body_bytes} byte limit",
                "error_type": "BudgetExceededError"})
            return None
        raw = self.rfile.read(length)

        def reject_nonfinite(token: str) -> float:
            raise ValueError(f"non-finite number {token}")

        try:
            return json.loads(raw.decode("utf-8"),
                              parse_constant=reject_nonfinite)
        except (UnicodeDecodeError, ValueError) as error:
            self._respond(400, {
                "error": f"request body is not valid JSON: {error}",
                "error_type": "MalformedInputError"})
            return None

    # -- verbs ---------------------------------------------------------

    def _respond_dispatch(self, status: int, body: Any) -> None:
        # Every 503 -- saturation, drain, journal outage -- carries a
        # Retry-After hint so the client's bounded retry has a cadence.
        self._respond(status, body,
                      extra_headers=((("Retry-After", "1"),)
                                     if status == 503 else ()))

    def do_GET(self) -> None:
        path = self.path.split("?", 1)[0]
        # Health and stats answer on the handler thread: they must work
        # while the pool is saturated.
        status, body = self.server.service.dispatch("GET", path, None)
        self._respond_dispatch(status, body)

    def do_POST(self) -> None:
        path = self.path.split("?", 1)[0]
        payload = self._read_body()
        if payload is None:
            return
        self._pooled_dispatch("POST", path, payload)

    def do_DELETE(self) -> None:
        # DELETE bodies are ignored (none of the endpoints take one);
        # the verb mutates state, so it goes through the pool like POST.
        self._pooled_dispatch("DELETE", self.path.split("?", 1)[0], None)

    def _pooled_dispatch(self, method: str, path: str,
                         payload: Any) -> None:
        tenant = self.headers.get("X-Tenant")
        service = self.server.service
        try:
            status, body = self.server.pool.run(
                lambda: service.dispatch(method, path, payload, tenant),
                timeout=self.server.config.request_timeout_s)
        except PoolSaturatedError as error:
            self._respond(503, {"error": str(error),
                                "error_type": "PoolSaturatedError"},
                          extra_headers=(("Retry-After", "1"),))
            return
        except JobTimeoutError as error:
            self._respond(504, {"error": str(error),
                                "error_type": "JobTimeoutError"})
            return
        self._respond_dispatch(status, body)


def serve(config: Optional[ServiceConfig] = None, *,
          ready: Optional[threading.Event] = None) -> None:
    """Run the service until interrupted (the ``repro serve`` path).

    Args:
        config: service configuration; defaults bind 127.0.0.1:8080.
        ready: optional event set once the socket is bound -- lets
            tests and the smoke harness start a server on port 0 in a
            thread and learn the real port race-free (via the server
            object they construct themselves; this helper is the
            blocking convenience wrapper).
    """
    server = ServiceServer(config)
    if ready is not None:
        ready.set()
    try:
        # SIGTERM -> graceful drain: refuse new session work with
        # 503 + Retry-After, stop the acceptor, finish queued jobs,
        # fsync every journal, exit 0.  The handler must hand the
        # actual shutdown to another thread -- calling it from the
        # serve_forever thread would deadlock.
        signal.signal(
            signal.SIGTERM,
            lambda signum, frame: threading.Thread(
                target=server.drain, name="drain", daemon=True).start())
    except ValueError:
        pass  # not the main thread (test harnesses): no signal hook
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
