"""``repro.obs.telemetry`` — the engine-wide structured telemetry bus.

Everything *above* a single run — the :class:`~repro.exec.SweepEngine`
scheduling jobs, pipeline nodes changing state, the
:class:`~repro.exec.cache.ResultCache` hitting or missing, the
:class:`~repro.exec.stats.RunStatsStore` reconciling predictions with
measurements, and the partitioned-PDES workers flushing time windows —
emits into one append-only JSONL stream.  The per-run
:class:`~repro.obs.ProfileReport` explains *one* simulation; this stream
explains the fleet that executed it.

Design rules (see DESIGN.md §10 for the full schema):

* **One record per line, one line per write.**  Every record is a single
  compact-JSON line written with one ``os.write`` to an ``O_APPEND`` file
  descriptor, so concurrent emitters — the engine parent, its pool
  children (via a queue the parent drains), and PDES worker grandchildren
  (attached through the ``REPRO_TELEMETRY`` environment variable) —
  interleave *whole lines*, never bytes.  Records are kept far below the
  POSIX atomic-append bound (long fields are truncated).
* **Monotonic clock, one domain.**  ``t`` is ``time.monotonic()`` of the
  emitting process: on the platforms we target this is CLOCK_MONOTONIC,
  system-wide, so records from different processes on one host share a
  timeline.  Absolute values are meaningless across hosts/reboots;
  consumers normalize to the stream's ``engine_start`` (or earliest)
  record.
* **Zero-cost and fingerprint-neutral when disabled.**  Telemetry is
  *not* a :class:`~repro.core.RunSpec` field: enabling it cannot change
  a fingerprint, a cache key, or a golden.  Every emission site guards on
  ``bus is None`` (one attribute test), and with no ``REPRO_TELEMETRY``
  set and no bus passed, nothing is ever opened or written.
* **Identity on every record.**  Records carry the run fingerprint
  (``run``), the job-graph node name (``node``), and the engine worker id
  (``wid``) whenever the emitter knows them, so one stream serving many
  sweeps still attributes every event.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: Environment variable carrying the telemetry JSONL path.  Child
#: processes inherit it, which is how PDES workers (grandchildren of the
#: sweep engine) find the stream without any spec plumbing.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Hard cap on one serialized record; far below the POSIX atomic-append
#: guarantee (PIPE_BUF, >= 4096).  Long free-text fields are truncated at
#: emission instead (see :data:`TRUNCATE_FIELDS`).
MAX_RECORD_BYTES = 4096

#: Free-text fields truncated to keep records under the atomic bound.
TRUNCATE_FIELDS = {"reason": 200, "error": 200}

#: Fields stamped on every record by the bus itself.
BASE_FIELDS = ("type", "t", "pid")

#: record type -> fields required beyond :data:`BASE_FIELDS`.  Context
#: fields (``run``, ``node``, ``wid``) are listed where the emitter
#: always knows them; elsewhere they are optional but recommended.
RECORD_TYPES = {
    # -- engine lifecycle ------------------------------------------------
    "engine_start": ("graph", "jobs", "total"),
    "engine_stop": ("graph", "makespan", "executed", "cached", "failed",
                    "blocked"),
    # -- job-graph node lifecycle (pipeline nodes and sweep runs alike) --
    "job_queued": ("node",),
    "job_launched": ("node", "wid", "slots", "attempt"),
    "job_retry": ("node", "attempt", "reason"),
    "job_done": ("node", "status", "attempts", "wall_time"),
    "job_failed": ("node", "attempts"),
    "job_blocked": ("node", "blocker"),
    "job_cached": ("node", "run"),
    # -- in-worker run spans (queued to the parent, drained to the file) -
    "run_start": ("node", "wid", "run"),
    "run_end": ("node", "wid", "run", "ok"),
    # -- stats store: prediction vs measurement --------------------------
    "stats_update": ("sig", "actual", "cached"),
    # -- partitioned-PDES kernel -----------------------------------------
    "pdes_window": ("run", "wid", "window", "dur", "stall", "batches"),
    "pdes_run": ("run", "workers", "windows", "lookahead", "stall",
                 "elapsed"),
    # -- design-space exploration (repro.tune) ---------------------------
    "tune_start": ("tune", "strategy", "objective", "budget", "space",
                   "feasible"),
    "tune_round": ("tune", "round", "tier", "evaluated"),
    "tune_prune": ("tune", "candidate", "reason"),
    "tune_stop": ("tune", "evaluations", "pruned", "best"),
    # -- serve layer (repro.serve broker; job records carry no tenant,
    # these carry it with the same ``run`` fingerprint) ------------------
    "serve_start": ("addr",),
    "serve_stop": ("reason",),
    "serve_submit": ("job", "tenant", "mode"),   # new | coalesced | cached
    "serve_done": ("job", "tenant", "state"),
    "serve_cancel": ("job", "tenant"),
    "serve_reject": ("tenant", "code"),
}


class TelemetryError(ValueError):
    """A telemetry record or stream violates the schema."""


def validate_record(record) -> dict:
    """Check one decoded record against the schema; returns it.

    Raises :class:`TelemetryError` naming the first violated rule.
    """
    if not isinstance(record, dict):
        raise TelemetryError(f"record is {type(record).__name__}, not dict")
    for field in BASE_FIELDS:
        if field not in record:
            raise TelemetryError(f"record missing base field {field!r}")
    rtype = record["type"]
    if rtype not in RECORD_TYPES:
        raise TelemetryError(f"unknown record type {rtype!r}")
    if not isinstance(record["t"], (int, float)):
        raise TelemetryError(f"t must be a number, got {record['t']!r}")
    if not isinstance(record["pid"], int):
        raise TelemetryError(f"pid must be an int, got {record['pid']!r}")
    missing = [f for f in RECORD_TYPES[rtype] if f not in record]
    if missing:
        raise TelemetryError(f"{rtype} record missing fields {missing}")
    return record


def iter_records(path, *, validate=True):
    """Yield decoded records from a telemetry JSONL file in order.

    With ``validate`` (the default) every line must parse and pass
    :func:`validate_record` — a torn or corrupt line raises
    :class:`TelemetryError` with its line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TelemetryError(
                    f"{path}:{lineno}: corrupt JSONL line ({exc})"
                ) from None
            if validate:
                try:
                    validate_record(record)
                except TelemetryError as exc:
                    raise TelemetryError(
                        f"{path}:{lineno}: {exc}"
                    ) from None
            yield record


def read_records(path, *, validate=True) -> list:
    """All records of a telemetry file as a list (see :func:`iter_records`)."""
    return list(iter_records(path, validate=validate))


def validate_file(path) -> int:
    """Schema-validate a whole stream; returns the record count."""
    return sum(1 for _ in iter_records(path, validate=True))


# ----------------------------------------------------------------------
# Emitters
# ----------------------------------------------------------------------
class _EmitterBase:
    """Context stamping and record shaping shared by every emitter."""

    __slots__ = ("wid", "run", "node")

    def __init__(self, wid=None, run=None, node=None):
        self.wid = wid
        self.run = run
        self.node = node

    def _record(self, rtype, fields) -> dict:
        record = {"type": rtype, "t": time.monotonic(), "pid": os.getpid()}
        if self.wid is not None:
            record["wid"] = self.wid
        if self.run is not None:
            record["run"] = self.run
        if self.node is not None:
            record["node"] = self.node
        for key, value in fields.items():
            if value is None:
                continue
            limit = TRUNCATE_FIELDS.get(key)
            if limit is not None and isinstance(value, str):
                value = value[:limit]
            record[key] = value
        return record

    def emit(self, rtype, **fields):
        self.write_record(self._record(rtype, fields))

    def write_record(self, record):  # pragma: no cover - interface
        raise NotImplementedError


class TelemetryBus(_EmitterBase):
    """A line-atomic JSONL writer bound to one stream file.

    Any number of processes may hold a bus on the same path: each record
    is one ``os.write`` to an ``O_APPEND`` descriptor, so lines never
    tear.  Construction is the only filesystem cost; a disabled stack
    simply never constructs one.
    """

    __slots__ = ("path", "_fd")

    def __init__(self, path, *, wid=None, run=None, node=None):
        super().__init__(wid=wid, run=run, node=node)
        self.path = str(path)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    @classmethod
    def from_env(cls, *, wid=None, run=None, node=None):
        """A bus attached to ``$REPRO_TELEMETRY``, or ``None`` when unset.

        The one-line enablement check for emitters living in worker
        processes (PDES partitions, pool children): the environment is
        inherited, a spec field is not — and must not be, because
        telemetry may never move a fingerprint.
        """
        path = os.environ.get(TELEMETRY_ENV)
        if not path:
            return None
        try:
            return cls(path, wid=wid, run=run, node=node)
        except OSError:
            return None  # an unwritable stream must never fail a run

    def write_record(self, record):
        line = json.dumps(
            record, separators=(",", ":"), sort_keys=True, default=str
        )
        data = (line + "\n").encode("utf-8")
        if len(data) > MAX_RECORD_BYTES:
            # Oversized records lose atomicity; drop payload, keep shape.
            record = {
                "type": record["type"], "t": record["t"],
                "pid": record["pid"], "truncated": True,
            }
            data = (json.dumps(record, separators=(",", ":"),
                               sort_keys=True) + "\n").encode("utf-8")
        try:
            os.write(self._fd, data)
        except OSError:
            pass  # telemetry is best-effort; never fail the workload

    def close(self):
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class QueueEmitter(_EmitterBase):
    """Emit records onto a ``multiprocessing`` queue instead of a file.

    The sweep engine hands one of these to each pool child; the parent
    drains the queue into its own :class:`TelemetryBus` between
    scheduling steps.  Children therefore never touch the stream file —
    the parent is the single writer for everything it spawned directly
    (PDES grandchildren attach via the environment instead, because a
    queue cannot cross their extra process boundary cheaply).
    """

    __slots__ = ("queue",)

    def __init__(self, queue, *, wid=None, run=None, node=None):
        super().__init__(wid=wid, run=run, node=node)
        self.queue = queue

    def write_record(self, record):
        try:
            self.queue.put(record)
        except Exception:
            pass  # a closed queue must never fail the run


class ProgressPrinter(_EmitterBase):
    """The CLI's stderr progress line, a view over the job records.

    One ``[k/N] <node>: <status> (<wall>s)`` line per settled job (but a
    canceled one) and per retry.  ``N`` is ``engine_start.total``, raised
    to ``k`` once a fan-out's later children pass it, and ``k`` counts the
    jobs settled since.  Every record goes on, unchanged, to ``bus``.
    """

    __slots__ = ("bus", "path", "_total", "_settled", "_launched")
    #: Job record -> the status its line shows (``job_done`` has one).
    _STATUS = dict(job_done="ok", job_cached="cached", job_failed="failed",
                   job_blocked="blocked", job_retry="retrying")

    def __init__(self, bus=None):
        super().__init__()
        self.bus, self.path = bus, getattr(bus, "path", None)
        self._total = self._settled = 0
        self._launched = {}  # node -> launch time of its running attempt

    def write_record(self, record):
        rtype, t, node = record["type"], record["t"], record.get("node")
        if rtype == "engine_start":
            self._total, self._settled = record["total"], 0
        elif rtype == "job_launched":
            self._launched[node] = t
        elif rtype in self._STATUS:
            start = self._launched.pop(node, t)
            status = record.get("status", self._STATUS[rtype])
            if status != "canceled":
                self._settled += rtype != "job_retry"
                self._total = max(self._total, self._settled)
                wall = record.get("wall_time", t - start)
                print(f"[{self._settled}/{self._total}] {node}: {status} "
                      f"({wall:.2f}s)", file=sys.stderr)
        if self.bus is not None:
            self.bus.write_record(record)


def drain_queue(queue, bus) -> int:
    """Move every currently-queued record onto ``bus``; returns the count.

    Non-blocking: used by the engine's scheduling loop and once more
    after the last child has been joined.  ``queue`` is a
    ``multiprocessing`` ``SimpleQueue`` (the engine's choice: a child's
    ``put`` writes the pipe directly instead of starting a feeder
    thread) or ``Queue``.
    """
    moved = 0
    try:
        while not queue.empty():
            bus.write_record(queue.get())
            moved += 1
    except (OSError, EOFError):
        pass
    return moved
