"""Stdlib HTTP client for the serve protocol (urllib, no deps).

:class:`ServeClient` wraps the ``/v1`` endpoints 1:1; every typed error
the server returns surfaces as :class:`ServeError` carrying the protocol
code, the HTTP status, ``Retry-After`` when present, and the CLI exit
code the error maps to — so the ``submit``/``status``/``result``/
``cancel`` subcommands are thin shells around this class.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from .protocol import ERRORS, PROTOCOL_VERSION

#: Default per-request timeout (seconds); ``wait`` passes its own.
DEFAULT_TIMEOUT = 30.0

#: Seconds between the status requests of :meth:`ServeClient.wait`.
_WAIT_POLL_S = 0.2


class ServeError(Exception):
    """A typed protocol error relayed from the server."""

    def __init__(self, code, message, *, http_status=None,
                 retry_after=None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.http_status = http_status
        self.retry_after = retry_after

    @property
    def exit_code(self) -> int:
        """The CLI exit code this error maps to (2 for malformed/unknown,
        1 for failed work — the protocol's own table)."""
        return ERRORS.get(self.code, (None, 2))[1]

    def __str__(self):
        suffix = ""
        if self.retry_after is not None:
            suffix = f" (retry after {self.retry_after}s)"
        return f"{self.code}: {self.message}{suffix}"


class ServeClient:
    """One server URL; every method is one HTTP round trip."""

    def __init__(self, base_url, *, timeout=DEFAULT_TIMEOUT):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(self, method, path, body=None):
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise self._decode_error(exc) from None
        except urllib.error.URLError as exc:
            raise ServeError(
                "server_error", f"cannot reach {self.base_url}: "
                f"{exc.reason}",
            ) from None

    @staticmethod
    def _decode_error(exc: "urllib.error.HTTPError") -> ServeError:
        retry_after = exc.headers.get("Retry-After")
        if retry_after is not None:
            try:
                retry_after = int(retry_after)
            except ValueError:
                retry_after = None
        try:
            error = json.loads(exc.read().decode("utf-8"))["error"]
            return ServeError(
                error["code"], error["message"],
                http_status=exc.code,
                retry_after=error.get("retry_after", retry_after),
            )
        except (ValueError, KeyError, TypeError):
            return ServeError(
                "server_error", f"HTTP {exc.code}: {exc.reason}",
                http_status=exc.code, retry_after=retry_after,
            )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def submit(self, spec_dict, *, kind="run", tenant="anon",
               priority=0.0) -> dict:
        """Submit one spec; returns the response envelope (``job`` view
        plus ``mode`` ∈ new/coalesced/cached)."""
        return self._request("POST", "/v1/jobs", body={
            "v": PROTOCOL_VERSION, "kind": kind, "spec": spec_dict,
            "tenant": tenant, "priority": priority,
        })

    def job(self, job_id) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def profile(self, job_id) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/profile")

    def cancel(self, job_id) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def queue(self) -> dict:
        return self._request("GET", "/v1/queue")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def wait(self, job_id, *, timeout=300.0) -> dict:
        """Poll until the job is terminal; returns its final view.

        Raises :class:`ServeError` (``not_ready``) on timeout — the job
        keeps running server-side.
        """
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)["job"]
            if view["state"] in ("done", "failed", "blocked", "canceled"):
                return view
            if time.monotonic() >= deadline:
                raise ServeError(
                    "not_ready",
                    f"job {job_id} still {view['state']} after "
                    f"{timeout}s",
                )
            time.sleep(_WAIT_POLL_S)

    def events(self, *, timeout=None):
        """Generator over the SSE stream's decoded event dicts.

        Blocks on the connection; ends when the server closes it (on
        shutdown, after a final ``server_stop`` event).  Keepalive
        comments are skipped.
        """
        request = urllib.request.Request(
            f"{self.base_url}/v1/events",
            headers={"Accept": "text/event-stream"},
        )
        with urllib.request.urlopen(request, timeout=timeout) as stream:
            for raw in stream:
                line = raw.decode("utf-8").strip()
                if not line.startswith("data:"):
                    continue
                try:
                    yield json.loads(line[len("data:"):].strip())
                except ValueError:
                    continue
