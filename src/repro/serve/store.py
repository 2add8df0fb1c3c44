"""Crash-safe on-disk job journal for the serve broker.

One append-only JSONL file (``jobs.jsonl``) holds the full record of
every job mutation: each line is the *complete* serialized
:class:`JobRecord` after the mutation, written with a single ``os.write``
to an ``O_APPEND`` descriptor — the same one-line-one-write discipline as
:mod:`repro.obs.telemetry`, so a crash can tear at most the final line
(replay skips it).  Replay is last-wins by job id, which makes updates,
compaction, and recovery all the same trivial operation.

Compaction rewrites the journal as one line per live job via temp-file +
atomic ``os.replace`` every :attr:`JobStore.compact_every` appends, so
the file stays proportional to the job population rather than the
mutation history.

Results never live here: a ``done`` job holds only its spec fingerprint,
and the result is re-attached from the content-addressed
:class:`~repro.exec.cache.ResultCache` — which is exactly what lets a
restarted server serve results it computed in a previous life.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .protocol import JOB_STATES, TERMINAL_STATES

#: Journal file name inside the serve directory.
JOURNAL_NAME = "jobs.jsonl"


@dataclass
class JobRecord:
    """One tenant-visible job: identity, spec, lifecycle, attribution."""

    id: str
    tenant: str
    kind: str                       # "run" | "pipeline" | "tune"
    fingerprint: str
    #: Serialized RunSpec/PipelineSpec/TuneSpec dict (replayable).
    spec: dict
    state: str = "queued"
    #: Wall-clock epoch seconds (human-facing; never fingerprinted).
    submitted_at: float = field(default_factory=time.time)
    started_at: float = None
    finished_at: float = None
    error: str = None
    #: Primary job id whose execution this job attached to (coalescing);
    #: ``None`` for primaries and cache hits.
    coalesced_with: str = None
    #: Served straight from the result cache at submit time.
    cached: bool = False
    priority: float = 0.0
    attempts: int = 0

    def __post_init__(self):
        if self.state not in JOB_STATES:
            raise ValueError(f"unknown job state {self.state!r}")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def view(self) -> dict:
        """The API-facing status dict (spec omitted: it can be large)."""
        view = {
            "id": self.id,
            "tenant": self.tenant,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cached": self.cached,
            "coalesced_with": self.coalesced_with,
            "priority": self.priority,
            "attempts": self.attempts,
        }
        if self.error is not None:
            view["error"] = self.error
        return view

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


class JobStore:
    """The journal plus its in-memory materialized view.

    Thread-safe (the HTTP handler pool and the broker scheduler thread
    both write).  Single-writer by design: one server process owns one
    journal directory — the multi-process sharing story belongs to the
    result cache, not here.
    """

    def __init__(self, root, *, compact_every=256):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / JOURNAL_NAME
        self.compact_every = compact_every
        self.jobs = {}                # id -> JobRecord, insertion order
        self._lock = threading.Lock()
        self._appends = 0
        self._torn_lines = 0
        self._replay()
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
        )

    # ------------------------------------------------------------------
    def _replay(self):
        """Rebuild the job map from the journal (last line wins per id).

        A corrupt line is tolerated only in final position — that is
        the one place a crash mid-``os.write`` can tear; anywhere else
        it means the file was edited and deserves a loud error.
        """
        if not self.path.is_file():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = JobRecord.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                if lineno == len(lines):
                    self._torn_lines += 1
                    continue
                raise ValueError(
                    f"{self.path}:{lineno}: corrupt journal line ({exc})"
                ) from None
            self.jobs[record.id] = record

    # ------------------------------------------------------------------
    def record(self, job: JobRecord):
        """Persist a job's current state (both insert and update)."""
        line = (
            json.dumps(job.to_dict(), sort_keys=True,
                       separators=(",", ":"), default=str)
            + "\n"
        ).encode("utf-8")
        with self._lock:
            self.jobs[job.id] = job
            os.write(self._fd, line)
            self._appends += 1
            if self._appends >= self.compact_every:
                self._compact_locked()

    def get(self, job_id: str):
        with self._lock:
            return self.jobs.get(job_id)

    def all_jobs(self) -> list:
        with self._lock:
            return list(self.jobs.values())

    def __len__(self):
        with self._lock:
            return len(self.jobs)

    # ------------------------------------------------------------------
    def compact(self):
        """Rewrite the journal as one line per live job (atomic)."""
        with self._lock:
            self._compact_locked()

    def _compact_locked(self):
        tmp = self.path.with_suffix(".jsonl.part")
        with open(tmp, "w", encoding="utf-8") as fh:
            for job in self.jobs.values():
                fh.write(json.dumps(
                    job.to_dict(), sort_keys=True,
                    separators=(",", ":"), default=str,
                ) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        if self._fd is not None:
            os.close(self._fd)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
        )
        self._appends = 0

    def close(self):
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
