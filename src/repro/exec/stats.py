"""Persistent run-duration statistics keyed by *normalized* spec signature.

The DAG scheduler of :class:`~repro.exec.SweepEngine` orders the ready
set critical-path-first, which needs a predicted host-side duration for
every node.  Predictions come from history: every completed run —
including cache hits, whose execution wall time rides in the cache
envelope — updates a small persistent JSON store.

The store key is deliberately *not* the cache fingerprint.  Two specs
that differ only in observational knobs (``profile``, ``trace``,
``pdes_partition``) or in an inactive
:class:`~repro.faults.FaultPlan` execute the same simulation with
near-identical cost, so they must share one duration history; and
unlike cache entries, history stays valid across package versions (a
version bump invalidates cached *results*, not how long a run takes).
:func:`spec_signature` therefore strips the observational fields from
the fully-resolved spec and omits the package version — the
``resolve()`` step already normalizes inactive fault plans to ``None``
and equivalent preset/explicit machine spellings to one form.  Knobs
that change *host* cost without changing the simulation — today just
``pdes_workers``, which divides wall time across worker processes —
stay in the key: mixing their durations into one entry would mislead
every consumer (see :data:`SEMANTIC_FIELDS`).

When a signature has no history the engine falls back to
:func:`fallback_cost`, a conservative work estimate derived from the
machine's cost model (conservative = it assumes maximal refinement, so
unknown work sorts *early*, which is the safe direction for
critical-path scheduling).

A corrupt or unreadable stats file is treated as a cold start — exactly
the corrupt-JSON-as-miss contract of :meth:`ResultCache.get` — one bad
file must never fail a sweep.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path

from ..core.spec import RunSpec

logger = logging.getLogger(__name__)

#: ``RunSpec`` fields stripped from the signature: they change how a run
#: is *observed* (the profiler and its trace view), not what it
#: computes or how long the host works on it.  ``pdes_partition`` stays
#: here: with the worker count fixed, the rank→worker policy shifts
#: host time by at most the window-barrier slack, and one EWMA history
#: per worker count beats fragmenting it per policy.  Inactive fault
#: plans need no entry here: :meth:`RunSpec.resolve` already normalizes
#: them to ``None``.
OBSERVATIONAL_FIELDS = (
    "profile", "trace", "pdes_partition",
)

#: Every other ``RunSpec`` field: these define *what* is simulated — or,
#: for ``pdes_workers``, change host wall time by integer factors — so
#: they stay in the signature.  ``pdes_workers`` used to be stripped as
#: observational, which let partitioned wall-clocks pollute serial
#: predictions (and vice-versa) through one shared EWMA entry, skewing
#: the HEFT critical-path ordering; a 4-worker run finishes in a
#: fraction of the serial host time, so each worker count keeps its own
#: history.  The two tuples must jointly cover the full ``RunSpec`` — a
#: completeness test enforces it, so a new spec field cannot silently
#: leak into (or out of) duration-history keys the way ``profile`` once
#: did.
SEMANTIC_FIELDS = (
    "config", "machine", "variant", "num_nodes", "ranks_per_node",
    "scheduler", "sched_seed", "check_access", "delayed_checksum",
    "stage_barrier", "cost_overrides", "faults", "pdes_workers",
)

#: Version mixed into every signature.  Bumping it orphans every
#: existing store entry at once — the graceful-migration lever for
#: changes to the normalization itself (entries written under the old
#: rules are never read again; predictions degrade to the fallback
#: model and re-learn within a few runs).  Bumped 1 → 2 when
#: ``pdes_workers`` moved into the signature: entries keyed under v1
#: blended serial and partitioned durations, so carrying them forward
#: would perpetuate the pollution the move fixes.
SIGNATURE_VERSION = 2

#: Safety factor applied to :func:`fallback_cost` estimates when mixing
#: them with measured history (cold nodes are assumed expensive, so the
#: scheduler starts them early — the conservative direction).
FALLBACK_CONSERVATISM = 1.5


def spec_signature(spec: RunSpec) -> str:
    """Normalized duration-history key of ``spec``.

    The sha256 of the canonical JSON of the fully-resolved spec with the
    observational fields removed and *no* package version mixed in, so:

    * specs identical modulo ``profile`` / ``trace`` /
      ``pdes_partition`` / an inactive ``FaultPlan`` share one key;
    * specs differing in ``pdes_workers`` get distinct keys (the worker
      count divides host wall time, so sharing a history would corrupt
      both predictions);
    * preset-name and expanded-machine spellings share one key (both
      resolve to the same explicit machine);
    * history survives package version bumps (but not
      :data:`SIGNATURE_VERSION` bumps, which deliberately orphan
      entries keyed under outdated normalization rules).
    """
    d = spec.resolve().to_dict()
    for field in OBSERVATIONAL_FIELDS:
        d.pop(field, None)
    blob = json.dumps(
        {"sig": SIGNATURE_VERSION, "spec": d},
        sort_keys=True, separators=(",", ":"), allow_nan=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fallback_cost(spec: RunSpec) -> float:
    """Conservative cold-start work estimate for one run (relative units).

    Estimated total stencil CPU-seconds on the resolved machine's cost
    model, assuming every root block refines to ``max_refine_level`` —
    a deliberate overestimate: with critical-path-first ordering, an
    overestimated unknown starts earlier, never later.  The absolute
    scale is meaningless (host time != simulated time); the engine
    rescales these against measured history when any exists.
    """
    rs = spec.resolve()
    cfg, machine = rs.config, rs.machine
    cells = cfg.nx * cfg.ny * cfg.nz
    root_blocks = (
        cfg.npx * cfg.init_x * cfg.npy * cfg.init_y * cfg.npz * cfg.init_z
    )
    blocks = root_blocks * 8 ** cfg.max_refine_level
    sweeps = max(1, cfg.num_tsteps * cfg.stages_per_ts)
    flops = machine.cost.stencil_flops(
        cells, cfg.num_vars, flops_per_cell=float(cfg.stencil)
    )
    return blocks * sweeps * flops / machine.cost.stencil_flops_per_sec


class RunStatsStore:
    """Persistent signature → duration-statistics map (one JSON file).

    Layout::

        {"version": 1,
         "entries": {"<signature>": {
             "runs": 3, "cached": 1, "ewma": 1.08,
             "mean": 1.12, "total": 3.37, "last": 1.01}}}

    ``record`` buffers in memory; ``flush`` persists atomically
    (write-to-temp + rename, like the result cache).  The engine flushes
    once per sweep, not once per run.
    """

    VERSION = 1

    def __init__(self, path, *, alpha=0.5, telemetry=None):
        self.path = Path(path)
        #: EWMA smoothing: weight of the newest observation.
        self.alpha = alpha
        #: Optional :class:`~repro.obs.telemetry.TelemetryBus`: every
        #: :meth:`record` emits a ``stats_update`` reconciling the store's
        #: prediction (the pre-update EWMA) with the measured duration.
        #: The engine routes its own bus here automatically.
        self.telemetry = telemetry
        self._entries = None
        self._dirty = False

    # ------------------------------------------------------------------
    def _load(self) -> dict:
        if self._entries is not None:
            return self._entries
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or not isinstance(
                doc.get("entries"), dict
            ):
                raise ValueError("stats document is not a versioned dict")
            entries = {}
            for sig, entry in doc["entries"].items():
                if not isinstance(entry, dict):
                    raise ValueError(f"entry for {sig!r} is not a dict")
                entries[sig] = entry
            self._entries = entries
        except FileNotFoundError:
            self._entries = {}
        except (ValueError, KeyError, TypeError, OSError) as exc:
            # Cold start, mirroring ResultCache.get's corrupt-JSON-as-miss:
            # predictions degrade to the fallback model, nothing fails.
            logger.warning(
                "discarding corrupt run-stats store %s (%s: %s)",
                self.path, type(exc).__name__, exc,
            )
            self._entries = {}
            self._dirty = True  # overwrite the corrupt file on flush
        return self._entries

    # ------------------------------------------------------------------
    def get(self, signature: str):
        """The raw statistics entry for ``signature`` (or ``None``)."""
        return self._load().get(signature)

    def predict(self, signature: str):
        """Predicted execution wall seconds, or ``None`` without history."""
        entry = self._load().get(signature)
        if entry is None:
            return None
        ewma = entry.get("ewma")
        return float(ewma) if ewma is not None else None

    def record(self, signature: str, wall_time, *, cached=False):
        """Fold one completed run into the store.

        ``cached=True`` marks a cache hit; its ``wall_time`` is the
        *original execution's* duration recorded in the cache envelope
        (``None`` for entries written before durations were recorded —
        those only bump the hit counter).
        """
        entries = self._load()
        entry = entries.setdefault(
            signature,
            {"runs": 0, "cached": 0, "ewma": None, "mean": 0.0,
             "total": 0.0, "last": None},
        )
        if cached:
            entry["cached"] = int(entry.get("cached", 0)) + 1
        if wall_time is None:
            self._dirty = True
            return
        wall_time = float(wall_time)
        runs = int(entry.get("runs", 0)) + 1
        entry["runs"] = runs
        entry["total"] = float(entry.get("total", 0.0)) + wall_time
        entry["mean"] = entry["total"] / runs
        entry["last"] = wall_time
        prev = entry.get("ewma")
        entry["ewma"] = (
            wall_time
            if prev is None
            else self.alpha * wall_time + (1.0 - self.alpha) * float(prev)
        )
        self._dirty = True
        if self.telemetry is not None:
            # Predicted (pre-update EWMA) vs measured, for trend/ETA
            # consumers; ``predicted`` is absent on a cold signature.
            self.telemetry.emit(
                "stats_update", sig=signature, actual=wall_time,
                cached=bool(cached),
                predicted=float(prev) if prev is not None else None,
                ewma=entry["ewma"], runs=runs,
            )

    # ------------------------------------------------------------------
    def flush(self):
        """Persist atomically if anything changed since the last flush."""
        if not self._dirty or self._entries is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"version": self.VERSION, "entries": self._entries}
        fd, tmp = tempfile.mkstemp(
            dir=self.path.parent, prefix=".tmp-stats-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._dirty = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._load())

    def __contains__(self, signature: str) -> bool:
        return signature in self._load()
