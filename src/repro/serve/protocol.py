"""Versioned JSON protocol of the ``repro.serve`` HTTP service.

Every request and response body is a JSON object carrying the protocol
version under ``"v"`` (:data:`PROTOCOL_VERSION`).  The server rejects
versions it does not speak with ``unsupported_version`` rather than
guessing — clients and servers evolve independently once a journal can
outlive either side.

Errors are *typed*: a failing response is ``{"v": 1, "error": {"code":
..., "message": ...}}`` where ``code`` is a key of :data:`ERRORS`, which
also fixes the HTTP status and the exit code the client CLI maps it to —
the same convention the CLI already uses everywhere (0 success, 1 failed
work, 2 invalid spec/arguments).

Endpoints (all under ``/v1``)::

    POST   /v1/jobs            submit a RunSpec or PipelineSpec
    GET    /v1/jobs/<id>        job status view
    GET    /v1/jobs/<id>/result RunResult / pipeline results JSON
    GET    /v1/jobs/<id>/profile ProfileReport of a profiled run
    DELETE /v1/jobs/<id>        cancel (cooperative; best-effort running)
    GET    /v1/queue            queued/running introspection
    GET    /v1/metrics          broker aggregates (quota, cache, waits)
    GET    /v1/events           Server-Sent-Events job lifecycle stream
    GET    /v1/telemetry        raw telemetry JSONL (for ``top --follow``)

A submit body is::

    {"v": 1, "kind": "run" | "pipeline" | "tune", "spec": {...},
     "tenant": "alice", "priority": 0.0}

where ``spec`` is :meth:`RunSpec.to_dict` / :meth:`PipelineSpec.to_dict`
/ :meth:`TuneSpec.to_dict` output.  The response echoes the created job view plus ``mode``:
``"new"`` (an execution was scheduled), ``"coalesced"`` (an identical
fingerprint is already queued/running — this job attaches to that one
execution), or ``"cached"`` (the content-addressed cache already holds
the result; the job is born ``done``).
"""

from __future__ import annotations

import hashlib
import json

from ..core import RunSpec
from ..pipeline import PipelineSpec

#: Protocol version spoken by this package (bump on breaking change).
PROTOCOL_VERSION = 1

#: error code -> (HTTP status, client CLI exit code).  Exit codes follow
#: the CLI convention: 1 = the work failed, 2 = the request was invalid.
ERRORS = {
    "invalid_request": (400, 2),
    "invalid_spec": (400, 2),
    "unsupported_version": (400, 2),
    "not_found": (404, 2),
    "not_ready": (409, 1),
    "job_failed": (409, 1),
    "conflict": (409, 1),
    "quota_exceeded": (429, 1),
    "queue_full": (429, 1),
    "server_error": (500, 1),
    "shutting_down": (503, 1),
}

#: Job lifecycle states, in rough order.  ``blocked`` mirrors the
#: engine's distinct "never attempted" terminal state.
JOB_STATES = ("queued", "running", "done", "failed", "blocked", "canceled")
TERMINAL_STATES = ("done", "failed", "blocked", "canceled")

#: job terminal state -> client CLI exit code.
STATE_EXIT_CODES = {"done": 0, "failed": 1, "blocked": 1, "canceled": 1}

SUBMIT_KINDS = ("run", "pipeline", "tune")


class ProtocolError(Exception):
    """A typed request/response failure (see :data:`ERRORS`)."""

    def __init__(self, code, message, *, retry_after=None):
        if code not in ERRORS:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        #: Seconds after which retrying may succeed (429/503 responses
        #: surface it as the ``Retry-After`` header, rounded up).
        self.retry_after = retry_after

    @property
    def http_status(self) -> int:
        return ERRORS[self.code][0]

    @property
    def exit_code(self) -> int:
        return ERRORS[self.code][1]

    def body(self) -> dict:
        error = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return envelope(error=error)


def envelope(**fields) -> dict:
    """A versioned response body."""
    body = {"v": PROTOCOL_VERSION}
    body.update(fields)
    return body


def check_version(body: dict):
    """Reject bodies speaking a different protocol version.

    A body without ``"v"`` is accepted as the current version (curl
    convenience); anything explicit must match exactly.
    """
    version = body.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_version",
            f"protocol v{version!r} not supported (server speaks "
            f"v{PROTOCOL_VERSION})",
        )


# ----------------------------------------------------------------------
# Submit
# ----------------------------------------------------------------------
def parse_submit(body):
    """Validate a submit body into ``(kind, payload, tenant, priority)``.

    ``payload`` is the constructed :class:`RunSpec`/:class:`PipelineSpec`
    (construction *is* the validation — the same errors a local run
    would raise surface here as ``invalid_spec``).
    """
    if not isinstance(body, dict):
        raise ProtocolError(
            "invalid_request",
            f"submit body must be a JSON object, got "
            f"{type(body).__name__}",
        )
    check_version(body)
    kind = body.get("kind", "run")
    if kind not in SUBMIT_KINDS:
        raise ProtocolError(
            "invalid_request",
            f"kind must be one of {list(SUBMIT_KINDS)}, got {kind!r}",
        )
    spec_dict = body.get("spec")
    if not isinstance(spec_dict, dict):
        raise ProtocolError(
            "invalid_request", 'submit body needs a "spec" object',
        )
    tenant = body.get("tenant", "anon")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise ProtocolError(
            "invalid_request",
            "tenant must be a non-empty string of at most 64 chars",
        )
    priority = body.get("priority", 0.0)
    if not isinstance(priority, (int, float)) or isinstance(priority, bool):
        raise ProtocolError(
            "invalid_request", "priority must be a number",
        )
    try:
        payload = decode_spec(kind, spec_dict)
    except (ValueError, KeyError, TypeError) as exc:
        message = exc.args[0] if exc.args else exc
        raise ProtocolError(
            "invalid_spec", f"invalid {kind} spec: {message}",
        ) from None
    return kind, payload, tenant, float(priority)


def decode_spec(kind, spec_dict):
    """The :class:`RunSpec`/:class:`TuneSpec`/:class:`PipelineSpec` of
    one submit ``kind`` (construction *is* the validation)."""
    if kind == "run":
        return RunSpec.from_dict(spec_dict)
    if kind == "tune":
        from ..tune import TuneSpec

        return TuneSpec.from_dict(spec_dict)
    return PipelineSpec.from_dict(spec_dict)


def submit_fingerprint(kind, payload) -> str:
    """Content address used for coalescing and cache lookup.

    Run specs use their native :meth:`RunSpec.fingerprint` so the
    service shares cache entries with ad-hoc CLI runs byte-for-byte.
    Tunes use :meth:`TuneSpec.fingerprint` (same reason: identical to
    local ``miniamr-sim tune`` declarations).  Pipelines hash their
    canonical JSON plus the package version (the same discipline, a
    distinct keyspace).
    """
    if kind in ("run", "tune"):
        return payload.fingerprint()
    from .. import __version__

    blob = json.dumps(
        {"pipeline": payload.to_dict(), "version": __version__},
        sort_keys=True, separators=(",", ":"), allow_nan=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
