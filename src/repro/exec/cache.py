"""Content-addressed on-disk result cache.

Layout: ``<root>/<fp[:2]>/<fp>.json`` where ``fp`` is the run's
:meth:`~repro.core.RunSpec.fingerprint` (sha256 over the fully-resolved
spec plus the package version).  Each entry is a self-describing JSON
envelope::

    {"fingerprint": ..., "version": ..., "spec": ..., "result": ...,
     "wall_time": ...}

``wall_time`` records how long the original *execution* took on the host;
a cache hit feeds it back into the :class:`~repro.exec.stats.RunStatsStore`
so served-from-cache runs still contribute duration history ("updated
from every completed run, including cached ones").  Entries written
before the field existed simply read back as ``wall_time=None``.

*Analysis* entries (``"kind": "analysis"``, a JSON ``value`` instead of
``spec``/``result``) hold pipeline analysis-node values, keyed by the
builder, its parameters and the predecessors' fingerprints, and the
serve broker's finished pipeline and tune payloads, keyed by submit
fingerprint.

Invalidation is automatic by construction: any change to any spec field,
to the machine description, or to the package version changes the
fingerprint, so stale entries are simply never looked up again.  Corrupt
or mismatched entries are treated as misses and removed.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..core import RunResult, RunSpec

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CacheEntry:
    """One decoded cache envelope: the payload plus its metadata."""

    #: ``"result"`` (a run) or ``"analysis"`` (any JSON value).
    kind: str
    #: :class:`RunResult` for runs, the stored JSON value for analyses.
    value: object
    #: Host wall seconds of the original execution (``None`` for entries
    #: written before durations were recorded).
    wall_time: float = None


class ResultCache:
    """Maps run fingerprints to serialized :class:`RunResult` entries.

    ``hits``/``misses`` count :meth:`get_entry` lookups over this
    instance's lifetime; the sweep engine folds them into its
    ``engine_stop`` telemetry record.  They are observability counters
    only — nothing on disk depends on them.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    def get(self, fingerprint: str):
        """The cached :class:`RunResult`, or ``None`` on a miss.

        A corrupt, unreadable, or mismatched entry is deleted and reported
        as a miss — one bad file must never poison a sweep.  Analysis
        entries are not run results and read as a miss here; use
        :meth:`get_entry` for kind-aware lookups.
        """
        entry = self.get_entry(fingerprint)
        if entry is None or entry.kind != "result":
            return None
        return entry.value

    def get_entry(self, fingerprint: str):
        """The decoded :class:`CacheEntry`, or ``None`` on a miss."""
        path = self.path(fingerprint)
        inode = None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                inode = os.fstat(fh.fileno()).st_ino
                envelope = json.load(fh)
            if not isinstance(envelope, dict):
                raise ValueError(
                    f"cache envelope is {type(envelope).__name__}, not dict"
                )
            if envelope.get("fingerprint") != fingerprint:
                raise ValueError("fingerprint mismatch")
            wall_time = envelope.get("wall_time")
            kind = envelope.get("kind", "result")
            if kind == "analysis":
                self.hits += 1
                return CacheEntry(
                    kind="analysis",
                    value=envelope["value"],
                    wall_time=wall_time,
                )
            if kind != "result":
                raise ValueError(f"unknown cache entry kind {kind!r}")
            entry = CacheEntry(
                kind="result",
                value=RunResult.from_dict(envelope["result"]),
                wall_time=wall_time,
            )
            if envelope["spec"].get("trace") and entry.value.tracer is None:
                # Written before traces serialized with the result.
                raise ValueError("traced run cached without its trace")
            self.hits += 1
            return entry
        except FileNotFoundError:
            self.misses += 1
            return None
        except (
            ValueError,  # includes json.JSONDecodeError
            KeyError,
            TypeError,
            AttributeError,
            OSError,
        ) as exc:
            logger.warning(
                "discarding corrupt cache entry %s (%s: %s)",
                path,
                type(exc).__name__,
                exc,
            )
            # Inode-guarded unlink: another process may have atomically
            # republished a good entry since we opened the corrupt one —
            # only remove the exact file we read.
            try:
                if inode is not None and os.stat(path).st_ino == inode:
                    os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None

    def put(self, fingerprint: str, spec: RunSpec, result_dict: dict,
            *, wall_time=None):
        """Atomically store one result (write-to-temp + rename).

        ``result_dict`` is the run's :meth:`RunResult.to_dict` — the dict
        a sweep worker already sends back, stored without a second
        serialization.
        """
        envelope = {
            "spec": spec.to_dict(),
            "result": result_dict,
        }
        self._write(fingerprint, envelope, wall_time)

    def put_value(self, fingerprint: str, meta: dict, value, *,
                  wall_time=None):
        """Atomically store one analysis value (any JSON value).

        ``meta`` describes how the value was produced (builder name,
        parameters and predecessor fingerprints, or a served job's kind
        and spec) — the same role the spec plays in a result envelope.
        """
        envelope = {
            "kind": "analysis",
            "meta": dict(meta),
            "value": value,
        }
        self._write(fingerprint, envelope, wall_time)

    def _write(self, fingerprint: str, envelope: dict, wall_time):
        from .. import __version__

        path = self.path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = dict(envelope)
        envelope["fingerprint"] = fingerprint
        envelope["version"] = __version__
        if wall_time is not None:
            envelope["wall_time"] = float(wall_time)
        # The ".part" suffix keeps in-progress writes out of every
        # "*/*.json" glob (``__len__``, ``clear``), and the fsync before
        # the atomic replace means a published entry is never half a
        # file — concurrent writer processes racing on one fingerprint
        # each publish a complete envelope and last-replace wins.
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(envelope, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def __contains__(self, fingerprint: str) -> bool:
        return self.path(fingerprint).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self):
        # ".tmp-*.part" files are abandoned in-progress writes (a writer
        # that died between mkstemp and replace); sweep them too.
        for pattern in ("*/*.json", "*/.tmp-*.part"):
            for entry in list(self.root.glob(pattern)):
                try:
                    os.unlink(entry)
                except OSError:
                    pass
