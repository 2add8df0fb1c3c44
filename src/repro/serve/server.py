"""Stdlib HTTP front-end of the serve broker.

A :class:`ThreadingHTTPServer` whose handler threads translate HTTP
into :class:`~repro.serve.broker.Broker` calls — every policy decision
(quota, coalescing, backpressure, recovery) lives in the broker; this
module only speaks wire format:

* JSON request/response bodies with explicit ``Content-Length``;
* typed :class:`~repro.serve.protocol.ProtocolError` → its HTTP status,
  with ``Retry-After`` on 429/503;
* ``GET /v1/events`` as Server-Sent-Events (one ``data:`` line per job
  lifecycle event, ``: keepalive`` comments while idle);
* ``GET /v1/telemetry`` streams the raw telemetry JSONL file so
  ``miniamr-sim top --follow <url>`` works against a remote server.
"""

from __future__ import annotations

import json
import queue
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .protocol import ProtocolError, envelope

#: Largest accepted request body (a pipeline spec is a few KB; anything
#: near this bound is abuse, not a spec).
MAX_BODY_BYTES = 4 << 20

#: Seconds between SSE keepalive comments on an idle event stream.
SSE_KEEPALIVE = 5.0


class ServeHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/...`` onto ``self.server.broker``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    # Quiet by default: the broker journal is the record, not stderr.
    def log_message(self, format, *args):
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def broker(self):
        return self.server.broker

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def do_DELETE(self):
        self._dispatch("DELETE")

    def _dispatch(self, method):
        try:
            self._route(method)
        except ProtocolError as exc:
            self._send_error(exc)
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as exc:  # never leak a traceback as HTML
            self._send_error(
                ProtocolError("server_error", f"{type(exc).__name__}: {exc}")
            )

    def _route(self, method):
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != "v1":
            raise ProtocolError(
                "not_found", f"unknown path {self.path!r} (try /v1/...)",
            )
        parts = parts[1:]
        if parts == ["jobs"] and method == "POST":
            body = self.broker.submit(self._read_json())
            status = 200 if body.get("mode") in ("coalesced", "cached") \
                else 201
            return self._send_json(body, status=status)
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            if len(parts) == 2:
                if method == "GET":
                    return self._send_json(self.broker.job_view(job_id))
                if method == "DELETE":
                    return self._send_json(self.broker.cancel(job_id))
            elif len(parts) == 3 and method == "GET":
                if parts[2] == "result":
                    return self._send_json(self.broker.result(job_id))
                if parts[2] == "profile":
                    return self._send_json(self.broker.profile(job_id))
        if method == "GET":
            if parts == ["queue"]:
                return self._send_json(self.broker.queue_snapshot())
            if parts == ["metrics"]:
                return self._send_json(self.broker.metrics())
            if parts == ["events"]:
                return self._stream_events()
            if parts == ["telemetry"]:
                return self._send_telemetry()
            if parts == ["health"]:
                return self._send_json(envelope(ok=True))
        raise ProtocolError(
            "not_found", f"no route for {method} {self.path!r}",
        )

    # ------------------------------------------------------------------
    # Bodies
    # ------------------------------------------------------------------
    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise ProtocolError(
                "invalid_request", "malformed Content-Length",
            ) from None
        if length <= 0:
            raise ProtocolError(
                "invalid_request", "request needs a JSON body",
            )
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                "invalid_request",
                f"body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap",
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(
                "invalid_request", f"body is not valid JSON: {exc}",
            ) from None

    def _send_json(self, body: dict, *, status=200, extra_headers=()):
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_error(self, exc: ProtocolError):
        extra = []
        if exc.retry_after is not None:
            extra.append(("Retry-After", str(int(exc.retry_after))))
        try:
            self._send_json(
                exc.body(), status=exc.http_status, extra_headers=extra,
            )
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def _stream_events(self):
        """SSE job-lifecycle stream; runs until the client disconnects
        or the broker shuts down (a final ``server_stop`` event)."""
        q = self.broker.subscribe()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-store")
            # One long-lived response per connection; no keep-alive
            # bookkeeping for a stream that never ends normally.
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            while True:
                try:
                    event = q.get(timeout=SSE_KEEPALIVE)
                except queue.Empty:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                payload = json.dumps(event, sort_keys=True)
                self.wfile.write(
                    f"data: {payload}\n\n".encode("utf-8")
                )
                self.wfile.flush()
                if event.get("event") == "server_stop":
                    return
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            self.broker.unsubscribe(q)

    def _send_telemetry(self):
        """The raw telemetry JSONL (whole current file, then EOF)."""
        path = getattr(self.broker.telemetry, "path", None)
        if path is None:
            raise ProtocolError(
                "not_found",
                "server was started without --telemetry",
            )
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ProtocolError(
                "server_error", f"telemetry stream unreadable: {exc}",
            ) from None
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class ServeServer(ThreadingHTTPServer):
    """The listener: a threading HTTP server owning one broker."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, addr, broker, *, verbose=False):
        super().__init__(addr, ServeHandler)
        self.broker = broker
        self.verbose = verbose


def serve_forever(broker, *, host="127.0.0.1", port=8742, verbose=False):
    """Run the HTTP front-end until interrupted.

    Binds, starts the broker thread, emits ``serve_start``, then serves
    until KeyboardInterrupt (the CLI translates SIGTERM to one).  On
    stop the broker drains per its ``drain_timeout`` and the journal is
    compacted.  Returns the bound ``(host, port)``.
    """
    server = ServeServer((host, port), broker, verbose=verbose)
    addr = server.server_address[:2]
    broker.start()
    if broker.telemetry is not None:
        broker.telemetry.emit("serve_start", addr=f"{addr[0]}:{addr[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # Stop accepting first, then drain: a submit racing shutdown
        # gets connection-refused rather than a half-served job.
        server.server_close()
        broker.shutdown()
    return addr
