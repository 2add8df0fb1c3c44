"""``EngineReport`` — aggregate one telemetry stream into engine insight.

The per-run :class:`~repro.obs.ProfileReport` answers "where did *this
simulation* spend its time"; this module answers the layer above: how
well the :class:`~repro.exec.SweepEngine` used its worker slots, how
long jobs queued, what the cache saved, what crashed and was retried,
how efficient each PDES partition's windows were, and how the predicted
makespan compared with the achieved one.

Input is a telemetry JSONL stream (see :mod:`repro.obs.telemetry` and
DESIGN.md §10).  Outputs:

* :meth:`EngineReport.ascii_summary` — terminal rendering;
* :meth:`EngineReport.chrome_trace_events` — the engine-level Chrome
  trace: one lane per engine worker (the complement of the per-run
  trace's one-lane-per-core view), loadable in Perfetto;
* :meth:`EngineReport.normalized` — a timestamp- and
  assignment-insensitive dict, identical across two runs of the same
  graph (used by determinism tests and safe to diff).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .export import _bar, _us
from .telemetry import iter_records


@dataclass
class JobLedger:
    """Everything the stream said about one job-graph node."""

    node: str
    run: str = None
    status: str = None          # ok / failed / blocked / cached
    attempts: int = 0
    wid: int = None
    slots: int = 1
    queued_t: float = None
    first_launch_t: float = None
    done_t: float = None
    predicted: float = None
    wall_time: float = None
    exec_time: float = None
    wait_time: float = None
    blocker: str = None
    retries: list = field(default_factory=list)   # (t, attempt, reason)
    #: Executed attempt spans for the trace: (wid, t_start, t_end, ok).
    spans: list = field(default_factory=list)

    @property
    def queue_wait(self):
        if self.queued_t is None or self.first_launch_t is None:
            return None
        return max(0.0, self.first_launch_t - self.queued_t)


@dataclass
class PdesLedger:
    """Window/stall accounting of one partitioned run."""

    run: str
    workers: int = None
    windows: int = None
    lookahead: float = None
    stall: float = None
    elapsed: float = None
    #: partition wid -> [windows, dur_total, stall_total, batches_total]
    partitions: dict = field(default_factory=dict)

    @property
    def window_efficiency(self):
        """1 - (barrier stall / elapsed), summed over workers."""
        if not self.elapsed or self.stall is None:
            return None
        return max(0.0, 1.0 - self.stall / self.elapsed)


class EngineReport:
    """Aggregated view of one engine telemetry stream."""

    def __init__(self, records):
        self.records = list(records)
        self.graph = None
        self.jobs = None
        self.total = None
        self.predicted_makespan = None
        self.makespan = None
        self.executed = self.cached = self.failed = self.blocked = None
        self.cache_hits = None
        self.cache_misses = None
        self.t0 = None
        self.t_end = None
        self.ledgers = {}           # node -> JobLedger
        self.pdes = {}              # run fingerprint -> PdesLedger
        self.stats_updates = []     # (sig, predicted, actual, cached)
        self._aggregate()

    @classmethod
    def from_file(cls, path, *, validate=True):
        return cls(iter_records(path, validate=validate))

    # ------------------------------------------------------------------
    def _ledger(self, record) -> JobLedger:
        node = record.get("node", "?")
        ledger = self.ledgers.get(node)
        if ledger is None:
            ledger = self.ledgers[node] = JobLedger(node=node)
        if record.get("run") is not None:
            ledger.run = record["run"]
        return ledger

    def _aggregate(self):
        open_spans = {}  # node -> (wid, t_start)
        for r in self.records:
            t = r["t"]
            if self.t0 is None or t < self.t0:
                self.t0 = t
            if self.t_end is None or t > self.t_end:
                self.t_end = t
            rtype = r["type"]
            # One stream may hold several engine sessions (e.g. a cold
            # and a warm invocation appending to the same file): scalar
            # session fields take the latest value, durations and
            # counters accumulate, so utilization fractions stay <= 1.
            if rtype == "engine_start":
                self.graph = r["graph"]
                self.jobs = r["jobs"]
                self.total = r["total"]
                if r.get("predicted_makespan") is not None:
                    self.predicted_makespan = (
                        (self.predicted_makespan or 0.0)
                        + r["predicted_makespan"]
                    )
            elif rtype == "engine_stop":
                self.makespan = (self.makespan or 0.0) + r["makespan"]
                self.executed = (self.executed or 0) + r["executed"]
                self.cached = (self.cached or 0) + r["cached"]
                self.failed = (self.failed or 0) + r["failed"]
                self.blocked = (self.blocked or 0) + r["blocked"]
                if r.get("cache_hits") is not None:
                    self.cache_hits = (
                        (self.cache_hits or 0) + r["cache_hits"]
                    )
                if r.get("cache_misses") is not None:
                    self.cache_misses = (
                        (self.cache_misses or 0) + r["cache_misses"]
                    )
            elif rtype == "job_queued":
                ledger = self._ledger(r)
                ledger.queued_t = t
                ledger.predicted = r.get("predicted")
                ledger.slots = r.get("slots", 1)
            elif rtype == "job_launched":
                ledger = self._ledger(r)
                ledger.attempts = max(ledger.attempts, r["attempt"])
                ledger.wid = r["wid"]
                ledger.slots = r.get("slots", ledger.slots)
                if ledger.first_launch_t is None:
                    ledger.first_launch_t = t
                if r.get("predicted") is not None:
                    ledger.predicted = r["predicted"]
                open_spans[ledger.node] = (r["wid"], t)
            elif rtype == "job_retry":
                ledger = self._ledger(r)
                ledger.attempts = max(ledger.attempts, r["attempt"])
                ledger.retries.append(
                    (t, r["attempt"], r.get("reason", ""))
                )
                start = open_spans.pop(ledger.node, None)
                if start is not None:
                    ledger.spans.append((start[0], start[1], t, False))
            elif rtype in ("job_done", "job_failed"):
                ledger = self._ledger(r)
                ok = rtype == "job_done"
                ledger.status = r["status"] if ok else "failed"
                ledger.attempts = max(ledger.attempts, r["attempts"])
                ledger.done_t = t
                ledger.wall_time = r.get("wall_time")
                ledger.exec_time = r.get("exec_time")
                ledger.wait_time = r.get("wait_time")
                if r.get("wid") is not None:
                    ledger.wid = r["wid"]
                if r.get("predicted") is not None:
                    ledger.predicted = r["predicted"]
                start = open_spans.pop(ledger.node, None)
                if start is not None:
                    ledger.spans.append((start[0], start[1], t, ok))
            elif rtype == "job_blocked":
                ledger = self._ledger(r)
                ledger.status = "blocked"
                ledger.blocker = r["blocker"]
            elif rtype == "job_cached":
                ledger = self._ledger(r)
                ledger.status = "cached"
            elif rtype == "stats_update":
                self.stats_updates.append((
                    r["sig"], r.get("predicted"), r["actual"],
                    bool(r.get("cached")),
                ))
            elif rtype == "pdes_run":
                run = r.get("run", "?")
                entry = self.pdes.setdefault(run, PdesLedger(run=run))
                entry.workers = r["workers"]
                entry.windows = r["windows"]
                entry.lookahead = r["lookahead"]
                entry.stall = r["stall"]
                entry.elapsed = r["elapsed"]
            elif rtype == "pdes_window":
                run = r.get("run", "?")
                entry = self.pdes.setdefault(run, PdesLedger(run=run))
                part = entry.partitions.setdefault(
                    r["wid"], [0, 0.0, 0.0, 0]
                )
                part[0] += 1
                part[1] += r["dur"]
                part[2] += r["stall"]
                part[3] += r["batches"]
        if self.makespan is None and self.t0 is not None:
            self.makespan = self.t_end - self.t0
        if self.executed is None:
            by = self.status_counts()
            self.executed = by.get("ok", 0)
            self.cached = by.get("cached", 0)
            self.failed = by.get("failed", 0)
            self.blocked = by.get("blocked", 0)

    # ------------------------------------------------------------------
    def status_counts(self) -> dict:
        counts = {}
        for ledger in self.ledgers.values():
            key = ledger.status or "unknown"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def worker_busy(self) -> dict:
        """wid -> busy wall seconds (executed attempt spans)."""
        busy = {}
        for ledger in self.ledgers.values():
            for wid, start, end, _ok in ledger.spans:
                busy[wid] = busy.get(wid, 0.0) + (end - start)
        return busy

    def worker_runs(self) -> dict:
        """wid -> attempts executed on that worker."""
        runs = {}
        for ledger in self.ledgers.values():
            for wid, _s, _e, _ok in ledger.spans:
                runs[wid] = runs.get(wid, 0) + 1
        return runs

    def slot_occupancy(self) -> float:
        """Mean fraction of the pool busy over the makespan."""
        if not self.makespan or not self.jobs:
            return 0.0
        slot_seconds = 0.0
        for ledger in self.ledgers.values():
            for _wid, start, end, _ok in ledger.spans:
                slot_seconds += (end - start) * (ledger.slots or 1)
        return slot_seconds / (self.makespan * self.jobs)

    def queue_waits(self) -> list:
        waits = [
            ledger.queue_wait for ledger in self.ledgers.values()
            if ledger.queue_wait is not None
        ]
        return sorted(waits)

    def queue_wait_histogram(self, buckets=(0.001, 0.01, 0.1, 1.0, 10.0)):
        """[(upper_bound_or_inf, count), ...] over per-node queue waits."""
        counts = [0] * (len(buckets) + 1)
        for wait in self.queue_waits():
            for i, bound in enumerate(buckets):
                if wait < bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        bounds = list(buckets) + [float("inf")]
        return list(zip(bounds, counts))

    def cache_hit_rate(self):
        """Engine-level hit fraction (``None`` when nothing was looked up)."""
        hits, misses = self.cache_hits, self.cache_misses
        if hits is None or misses is None:
            by = self.status_counts()
            hits = by.get("cached", 0)
            misses = by.get("ok", 0) + by.get("failed", 0)
        total = hits + misses
        return hits / total if total else None

    def retry_ledger(self) -> list:
        """Every retry: (node, attempt, reason), stream order."""
        entries = []
        for ledger in self.ledgers.values():
            for t, attempt, reason in ledger.retries:
                entries.append((t, ledger.node, attempt, reason))
        entries.sort()
        return [(node, attempt, reason)
                for _t, node, attempt, reason in entries]

    # ------------------------------------------------------------------
    def normalized(self) -> dict:
        """Timestamp- and worker-assignment-insensitive digest.

        Two runs of the same graph with the same outcome produce the
        same dict, regardless of scheduling interleavings: no clocks, no
        worker ids, no completion order.
        """
        nodes = {}
        for name in sorted(self.ledgers):
            ledger = self.ledgers[name]
            nodes[name] = {
                "status": ledger.status,
                "attempts": ledger.attempts,
                "slots": ledger.slots,
                "run": ledger.run,
                "blocker": ledger.blocker,
            }
        pdes = {}
        for run in sorted(self.pdes):
            entry = self.pdes[run]
            pdes[run] = {
                "workers": entry.workers,
                "windows": entry.windows,
                "partition_windows": {
                    str(w): entry.partitions[w][0]
                    for w in sorted(entry.partitions)
                },
            }
        return {
            "graph": self.graph,
            "jobs": self.jobs,
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "blocked": self.blocked,
            "nodes": nodes,
            "pdes": pdes,
        }

    # ------------------------------------------------------------------
    def chrome_trace_events(self) -> list:
        """The engine timeline as Chrome trace events: one lane per worker.

        ``pid`` 0 is the engine; ``tid`` is the worker id + 1 (lane 0
        holds engine-scope instants).  Same schema as the per-run
        exporter: every event has ``name``/``ph``/``pid``/``tid``; ``X``
        spans add ``ts``/``dur`` in microseconds.
        """
        t0 = self.t0 or 0.0
        events = []
        lanes = set()
        for ledger in self.ledgers.values():
            for wid, start, end, ok in ledger.spans:
                tid = wid + 1
                lanes.add(tid)
                events.append({
                    "name": ledger.node,
                    "cat": "job",
                    "ph": "X",
                    "ts": _us(start - t0),
                    "dur": _us(end - start),
                    "pid": 0,
                    "tid": tid,
                    "args": {
                        "ok": ok,
                        "slots": ledger.slots,
                        "run": ledger.run,
                    },
                })
            for t, attempt, reason in ledger.retries:
                events.append({
                    "name": f"{ledger.node}:retry",
                    "cat": "retry",
                    "ph": "i",
                    "ts": _us(t - t0),
                    "s": "g",
                    "pid": 0,
                    "tid": 0,
                    "args": {"attempt": attempt, "reason": reason},
                })
            if ledger.status == "cached":
                events.append({
                    "name": f"{ledger.node}:cached",
                    "cat": "cache",
                    "ph": "i",
                    "ts": 0.0 if self.t0 is None else _us(
                        (ledger.done_t or self.t0) - t0
                    ),
                    "s": "g",
                    "pid": 0,
                    "tid": 0,
                    "args": {},
                })
        meta = [
            {
                "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                "args": {"name": f"engine {self.graph or ''}".strip()},
            },
            {
                "name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
                "args": {"name": "engine"},
            },
        ]
        for tid in sorted(lanes):
            meta.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": f"worker {tid - 1}"},
            })
        return meta + events

    def write_chrome_trace(self, path) -> int:
        events = self.chrome_trace_events()
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return len(events)

    # ------------------------------------------------------------------
    def ascii_summary(self) -> str:
        lines = [
            f"== engine: {self.graph or '?'} "
            f"({self.jobs or '?'} workers, {self.total or 0} nodes) ==",
        ]
        if self.makespan is not None:
            row = f"makespan        {self.makespan:10.3f} s"
            if self.predicted_makespan:
                ratio = self.makespan / self.predicted_makespan
                row += (
                    f"  (predicted {self.predicted_makespan:.3f} s, "
                    f"x{ratio:.2f})"
                )
            lines.append(row)
        lines.append(
            f"outcomes        {self.executed or 0} executed, "
            f"{self.cached or 0} cached, {self.failed or 0} failed, "
            f"{self.blocked or 0} blocked"
        )
        rate = self.cache_hit_rate()
        if rate is not None:
            hits = self.cache_hits
            misses = self.cache_misses
            detail = (
                f" ({hits} hits / {misses} misses)"
                if hits is not None and misses is not None
                else ""
            )
            lines.append(f"cache hit rate  {rate:10.3f}{detail}")
        lines.append(
            f"slot occupancy  {self.slot_occupancy():10.3f}  "
            f"[{_bar(self.slot_occupancy())}]"
        )

        busy = self.worker_busy()
        if busy and self.makespan:
            runs = self.worker_runs()
            lines.append("-- worker utilization --")
            for wid in sorted(busy):
                frac = busy[wid] / self.makespan
                lines.append(
                    f"  w{wid:<7}{busy[wid]:9.3f} s  "
                    f"{frac:6.1%}  [{_bar(frac)}]  "
                    f"{runs.get(wid, 0)} attempt(s)"
                )

        waits = self.queue_waits()
        if waits:
            p50 = waits[len(waits) // 2]
            lines.append(
                f"-- queue wait: n={len(waits)} p50={p50:.4f}s "
                f"max={waits[-1]:.4f}s --"
            )
            for bound, count in self.queue_wait_histogram():
                if count == 0:
                    continue
                label = "inf" if bound == float("inf") else f"{bound:g}s"
                lines.append(f"  < {label:<8}{count:4d}")

        retries = self.retry_ledger()
        if retries:
            lines.append(f"-- retries/crashes ({len(retries)}) --")
            for node, attempt, reason in retries:
                lines.append(f"  {node}: attempt {attempt}: {reason}")

        if self.pdes:
            lines.append("-- PDES window efficiency --")
            for run in sorted(self.pdes):
                entry = self.pdes[run]
                eff = entry.window_efficiency
                eff_s = f"{eff:.3f}" if eff is not None else "n/a"
                lines.append(
                    f"  {run[:12]}: {entry.workers or '?'} workers, "
                    f"{entry.windows or '?'} windows, efficiency {eff_s}"
                )
                for wid in sorted(entry.partitions):
                    windows, dur, stall, batches = entry.partitions[wid]
                    frac = stall / dur if dur else 0.0
                    lines.append(
                        f"    p{wid}: {windows} windows, "
                        f"stall {frac:6.1%}, {batches} batches"
                    )

        if self.stats_updates:
            with_pred = [
                (pred, actual)
                for _sig, pred, actual, cached in self.stats_updates
                if pred is not None and not cached
            ]
            lines.append(
                f"-- stats updates: {len(self.stats_updates)} "
                f"({len(with_pred)} with prior prediction) --"
            )
            if with_pred:
                err = [abs(a - p) / a for p, a in with_pred if a > 0]
                if err:
                    mean_err = sum(err) / len(err)
                    lines.append(
                        f"  mean |predicted-actual|/actual: {mean_err:.2%}"
                    )
        return "\n".join(lines) + "\n"
