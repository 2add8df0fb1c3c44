"""``repro.serve`` — a long-running multi-tenant sweep service.

The serving layer turns the batch :class:`~repro.exec.SweepEngine` into
a resident HTTP service (stdlib only): clients submit
:class:`~repro.core.RunSpec`/:class:`~repro.pipeline.PipelineSpec`/
:class:`~repro.tune.TuneSpec` JSON, the broker coalesces identical
fingerprints onto one execution, enforces per-tenant token-bucket
quotas with 429 + Retry-After backpressure, journals every job
transition crash-safely, and streams job lifecycle events over SSE.
Every job kind finishes through one completion path, and its result
lives only in the shared :class:`~repro.exec.cache.ResultCache`, so a
restarted server serves every finished job again.  See DESIGN.md §11.

Layers (each importable on its own):

* :mod:`~repro.serve.protocol` — versioned request/response schemas and
  typed error codes (wire format, no I/O);
* :mod:`~repro.serve.store` — the append-only JSONL job journal;
* :mod:`~repro.serve.broker` — quotas, coalescing, scheduling policy;
* :mod:`~repro.serve.server` / :mod:`~repro.serve.client` — the
  stdlib HTTP front-end and its urllib client.

Serving is fingerprint-neutral by construction: tenant ids, priorities,
and job ids live in :class:`~repro.serve.store.JobRecord`, never in a
spec — a run served remotely caches, fingerprints, and results
byte-identically to the same run executed by the CLI.
"""

from .broker import Broker, TokenBucket
from .client import ServeClient, ServeError
from .protocol import (
    ERRORS,
    JOB_STATES,
    PROTOCOL_VERSION,
    STATE_EXIT_CODES,
    TERMINAL_STATES,
    ProtocolError,
    envelope,
    parse_submit,
    submit_fingerprint,
)
from .server import ServeServer, serve_forever
from .store import JobRecord, JobStore

__all__ = [
    "Broker",
    "ERRORS",
    "JOB_STATES",
    "JobRecord",
    "JobStore",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "STATE_EXIT_CODES",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "TERMINAL_STATES",
    "TokenBucket",
    "envelope",
    "parse_submit",
    "serve_forever",
    "submit_fingerprint",
]
