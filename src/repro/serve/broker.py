"""Admission control and scheduling policy of the serve layer.

The broker sits between the HTTP handlers and a resident
:class:`~repro.exec.EngineSession`:

* **Quotas** — each tenant draws from a token bucket (``quota_burst``
  capacity, ``quota_rate`` tokens/second refill); an empty bucket maps
  to HTTP 429 with a ``Retry-After`` telling the client when one token
  will have refilled.
* **Backpressure** — at most ``queue_cap`` *executions* (unique
  fingerprints, not attached jobs) may be queued or running; beyond
  that a new fingerprint gets 429 ``queue_full`` + Retry-After.
* **Request coalescing** — a submit whose fingerprint is already
  queued/running attaches to that one execution: both tenants' jobs
  complete from the same run, and the engine executes it exactly once.
  A fingerprint already in the content-addressed
  :class:`~repro.exec.cache.ResultCache` never executes at all — the
  job is born ``done`` (the cache-hit fast path).
* **Priority aging** — an execution's submit priority grows by
  ``aging_rate`` per second from its admission into the session (a
  graph's nodes age with their execution), so nothing starves.

Every kind runs on the one session and enters it the one way: as a job
graph admitted through a :class:`~repro.exec.engine.GraphRun` (a run as
a one-node graph, a tune lowered by :func:`~repro.tune.tune_pipeline`),
whose head starts at the execution's priority.  Every node shares the
worker pool, the timeout/retry settings, ``busy_slots``, and cancel with
every other job.  Each execution starts (once its graph launched a run
or settled) and finishes through the same
:meth:`Broker._start`/:meth:`Broker._finish_graph`/:meth:`Broker._complete`,
and admission treats every kind alike: tune and pipeline jobs draw quota
tokens, count against ``queue_cap``, and coalesce by fingerprint.

One thread drives the session: the scheduler thread alone builds,
cancels, polls and closes it and its graphs, off the broker lock (the
caller of :meth:`Broker.shutdown` closes it if :meth:`Broker.start` was
never called).  An HTTP thread only journals and wakes it, so no build
or cancel ever blocks a submit.

The :class:`~repro.exec.cache.ResultCache` is the broker's only result
store: the session writes run results, and ``_complete`` writes a
finished pipeline or tune payload as an ``analysis`` entry under its
submit fingerprint.  State is journaled through
:class:`~repro.serve.store.JobStore` on every transition, so a
restarted broker resumes exactly where the journal says: ``running``
jobs demote to ``queued`` (their execution died with the old process)
and re-execute; ``done`` jobs of every kind re-attach results from the
cache.
"""

from __future__ import annotations

import math
import queue
import threading
import time
import uuid

from ..exec.engine import GraphRun, SweepReport
from ..pipeline import JobGraph
from ..tune import tune_pipeline
from ..tune.engine import finish_tune
from .protocol import (
    ProtocolError,
    decode_spec,
    envelope,
    parse_submit,
    submit_fingerprint,
)
from .store import JobRecord

#: Engine outcome status -> terminal job state.
_JOB_STATES = {"ok": "done", "cached": "done", "failed": "failed",
               "canceled": "canceled"}

#: Queue-wait histogram: power-of-two millisecond buckets up to ~17 min.
WAIT_BUCKET_MAX_EXP = 20

#: Queue-full ``Retry-After``: seconds per in-flight execution (at least 1).
QUEUE_FULL_RETRY_S = 0.2

#: Bound on one scheduler wait: an idle session's ``wait`` returns at once
#: (nothing runs or is due), so an unbounded one would spin.  Submit,
#: cancel and stop wake the scheduler long before.
_IDLE_WAIT_S = 60.0


class TokenBucket:
    """Classic token bucket: ``capacity`` burst, ``rate`` tokens/sec."""

    __slots__ = ("capacity", "rate", "tokens", "t")

    def __init__(self, capacity, rate):
        self.capacity = float(capacity)
        self.rate = float(rate)
        self.tokens = float(capacity)
        self.t = None

    def take(self, now) -> float:
        """Consume one token; returns 0.0 on success, else the seconds
        until one token will have refilled (the Retry-After)."""
        if self.t is not None:
            self.tokens = min(
                self.capacity, self.tokens + (now - self.t) * self.rate
            )
        self.t = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        if self.rate <= 0:
            return 60.0
        return (1.0 - self.tokens) / self.rate


class _Execution:
    """One unique fingerprint's run: the unit coalescing attaches to."""

    __slots__ = ("fingerprint", "kind", "payload", "primary", "job_ids",
                 "graph", "state", "priority", "canceled", "tenant")

    def __init__(self, fingerprint, kind, payload, primary, priority,
                 tenant):
        self.fingerprint = fingerprint
        self.kind = kind                  # "run" | "pipeline" | "tune"
        self.payload = payload            # RunSpec | PipelineSpec | TuneSpec
        self.primary = primary            # primary job id (names the run)
        self.job_ids = [primary]
        self.graph = None                 # its GraphRun, once admitted
        self.state = "queued"
        self.priority = priority
        self.canceled = False
        self.tenant = tenant


class Broker:
    """See the module docstring; one broker per server process."""

    def __init__(self, *, engine, store, queue_cap=64, quota_rate=5.0,
                 quota_burst=10, aging_rate=0.05):
        self.engine = engine
        self.cache = engine.cache
        if self.cache is None:
            raise ValueError(
                "the serve broker requires a ResultCache: results are "
                "re-attached from it after a restart and shared with "
                "ad-hoc CLI runs"
            )
        self.store = store
        self.queue_cap = queue_cap
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.aging_rate = aging_rate
        self.telemetry = engine.telemetry
        self.session = engine.session()

        self._lock = threading.RLock()
        self._buckets = {}               # tenant -> TokenBucket
        self._inflight = {}              # fingerprint -> _Execution
        self._pending = []               # executions awaiting admission
        self._subscribers = []
        self._tenant_counts = {}         # tenant -> {counter: n}
        self._wait_hist = {}             # "2^k ms" bucket -> count
        self._executions_started = 0
        self._executions_completed = 0
        self._coalesced_attaches = 0
        self._cache_fast_hits = 0
        # Cache misses of run admissions.  Every run the broker admits
        # already missed the cache at submit (or recovery); admission
        # looks it up again only to settle a run another process
        # finished meanwhile, so its miss is a re-check, not a new miss.
        self._cache_rechecks = 0
        # Slots the session held when the scheduler last settled its
        # executions: metrics read it, not the session, so a snapshot
        # never shows a running execution without its slot.
        self._busy_slots = 0
        self._closing = False
        self._stop = threading.Event()
        self._started_wall = time.time()
        self._threads = []
        self._admitted = []   # executions in the session: scheduler's own
        self._recover()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Spawn the scheduler thread (idempotent)."""
        if self._threads:
            return
        thread = threading.Thread(
            target=self._scheduler_loop, name="serve-scheduler",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

    def shutdown(self, *, drain_timeout=None, reason="shutdown"):
        """Stop accepting, drain in-flight work, journal the rest.

        Executions that finish within ``drain_timeout`` (default: the
        engine's ``drain_timeout``) complete normally.  Then the session
        is closed, which terminates every in-flight run.  Whatever is
        still queued or running afterwards is journaled back as
        ``queued`` — a restarted server picks those jobs up and finishes
        them, which is the recovery contract the journal exists for.
        Idempotent.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
        if drain_timeout is None:
            drain_timeout = self.engine.drain_timeout
        self._stop_scheduler(drain=max(0.0, drain_timeout or 0.0))
        if not self._threads:
            # start() was never called: this thread drives the session.
            self.session.close()
        with self._lock:
            # Survivors go back to the journal as queued: their
            # execution died with this process, not their job.
            for execution in self._inflight.values():
                for job in self._live_jobs(execution):
                    job.state = "queued"
                    job.started_at = None
                    self.store.record(job)
            self._inflight.clear()
            self._pending.clear()
        if self.telemetry is not None:
            self.telemetry.emit("serve_stop", reason=reason)
        self.store.compact()
        self.store.close()
        self._publish({"event": "server_stop", "reason": reason})

    def _stop_scheduler(self, drain=0.0):
        """Wake the scheduler thread and join it for ``drain`` seconds
        (once closing, it returns when nothing is in flight); then stop,
        wake and join it.  On its way out it closes the session."""
        for timeout in (drain, None):
            self.session.wake()
            for thread in self._threads:
                thread.join(timeout=timeout)
            self._stop.set()

    def _recover(self):
        """Re-enqueue journaled queued/running work after a restart."""
        by_fp = {}
        for job in self.store.all_jobs():
            if job.terminal:
                continue
            if job.state == "running":
                job.state = "queued"
                job.started_at = None
                self.store.record(job)
            # A fingerprint another process finished meanwhile (or that
            # completed between cache-put and journal-update when we
            # crashed) is served straight from the cache.
            if self._lookup_result(job.fingerprint) is not None:
                job.state = "done"
                job.cached = True
                job.finished_at = time.time()
                self.store.record(job)
                continue
            by_fp.setdefault(job.fingerprint, []).append(job)
        for fingerprint, jobs in by_fp.items():
            primary = next(
                (j for j in jobs if j.coalesced_with is None), jobs[0]
            )
            try:
                payload = decode_spec(primary.kind, primary.spec)
            except Exception as exc:
                for job in jobs:
                    job.state = "failed"
                    job.error = f"unrecoverable journal spec: {exc}"
                    job.finished_at = time.time()
                    self.store.record(job)
                continue
            execution = _Execution(
                fingerprint, primary.kind, payload, primary.id,
                primary.priority, primary.tenant,
            )
            execution.job_ids = [j.id for j in jobs]
            self._enqueue(execution)

    # ------------------------------------------------------------------
    # API surface (called from HTTP handler threads)
    # ------------------------------------------------------------------
    def submit(self, body: dict) -> dict:
        """Admit one submit body; returns the response envelope.

        Raises :class:`ProtocolError` for every rejection: bad spec,
        unsupported version, over-quota (429 + Retry-After), full queue
        (429 + Retry-After), or a server mid-shutdown (503).
        """
        kind, payload, tenant, priority = parse_submit(body)
        fingerprint = submit_fingerprint(kind, payload)
        now = time.monotonic()
        with self._lock:
            if self._closing:
                raise ProtocolError(
                    "shutting_down", "server is draining; resubmit to "
                    "the restarted instance", retry_after=5,
                )
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.quota_burst, self.quota_rate,
                )
            retry_after = bucket.take(now)
            if retry_after > 0:
                self._count(tenant, "rejected")
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "serve_reject", tenant=tenant,
                        code="quota_exceeded", run=fingerprint,
                    )
                raise ProtocolError(
                    "quota_exceeded",
                    f"tenant {tenant!r} is over quota "
                    f"({self.quota_rate}/s, burst {self.quota_burst})",
                    retry_after=math.ceil(retry_after),
                )
            job = JobRecord(
                id=f"j{uuid.uuid4().hex[:12]}", tenant=tenant, kind=kind,
                fingerprint=fingerprint, spec=payload.to_dict(),
                priority=priority,
            )
            self._count(tenant, "submitted")

            # Fast path 1: the content-addressed cache already holds it.
            if self._lookup_result(fingerprint) is not None:
                job.state, job.cached = "done", True
                job.finished_at = time.time()
                self.store.record(job)
                self._cache_fast_hits += 1
                self._count(tenant, "done")
                self._emit_submit(job, "cached")
                return envelope(job=job.view(), mode="cached")

            # Fast path 2: coalesce onto an identical in-flight run.
            execution = self._inflight.get(fingerprint)
            if execution is not None and not execution.canceled:
                job.state = execution.state
                job.coalesced_with = execution.primary
                if execution.state == "running":
                    job.started_at = time.time()
                execution.job_ids.append(job.id)
                self.store.record(job)
                self._coalesced_attaches += 1
                self._emit_submit(job, "coalesced")
                return envelope(job=job.view(), mode="coalesced")

            # New execution: backpressure on the queue depth cap.
            if len(self._inflight) >= self.queue_cap:
                self._count(tenant, "rejected")
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "serve_reject", tenant=tenant, code="queue_full",
                        run=fingerprint,
                    )
                raise ProtocolError(
                    "queue_full",
                    f"execution queue is at its cap ({self.queue_cap})",
                    retry_after=max(1, math.ceil(
                        len(self._inflight) * QUEUE_FULL_RETRY_S)),
                )
            execution = _Execution(
                fingerprint, kind, payload, job.id, priority, tenant,
            )
            self.store.record(job)
            self._enqueue(execution)
            self._emit_submit(job, "new")
            return envelope(job=job.view(), mode="new")

    def job_view(self, job_id: str) -> dict:
        job = self._get_job(job_id)
        return envelope(job=job.view())

    def result(self, job_id: str) -> dict:
        job = self._get_job(job_id)
        if job.state in ("queued", "running"):
            raise ProtocolError(
                "not_ready", f"job {job_id} is {job.state}",
            )
        if job.state == "canceled":
            raise ProtocolError("conflict", f"job {job_id} was canceled")
        if job.state in ("failed", "blocked"):
            raise ProtocolError(
                "job_failed",
                f"job {job_id} {job.state}: {job.error or 'unknown'}",
            )
        payload = self._lookup_result(job.fingerprint)
        if payload is None:
            raise ProtocolError(
                "server_error",
                f"result for {job.fingerprint[:12]} evicted from cache",
            )
        return envelope(job=job.view(), result=payload)

    def profile(self, job_id: str) -> dict:
        body = self.result(job_id)
        result = body["result"]
        profile = (
            result.get("profile") if isinstance(result, dict) else None
        )
        if profile is None:
            raise ProtocolError(
                "not_found",
                f"job {job_id} has no profile (submit the spec with "
                '"profile": true)',
            )
        return envelope(job=body["job"], profile=profile)

    def cancel(self, job_id: str) -> dict:
        """Cooperative cancel: immediate for queued, best-effort running."""
        with self._lock:
            job = self._get_job(job_id)
            if job.terminal:
                raise ProtocolError(
                    "conflict", f"job {job_id} already {job.state}",
                )
            job.state = "canceled"
            job.finished_at = time.time()
            job.error = "canceled by client"
            self.store.record(job)
            self._count(job.tenant, "canceled")
            execution = self._inflight.get(job.fingerprint)
            if execution is not None and job_id in execution.job_ids:
                execution.job_ids.remove(job_id)
                if not execution.job_ids:
                    # Nobody waits on it: free its slot, wake the scheduler.
                    execution.canceled = True
                    del self._inflight[execution.fingerprint]
                    self.session.wake()
            if self.telemetry is not None:
                self.telemetry.emit(
                    "serve_cancel", job=job_id, tenant=job.tenant,
                    run=job.fingerprint,
                )
            self._publish({"event": "canceled", "job": job.view()})
            return envelope(job=job.view())

    def queue_snapshot(self) -> dict:
        with self._lock:
            queued, running = [], []
            for execution in self._inflight.values():
                view = {
                    "fingerprint": execution.fingerprint,
                    "kind": execution.kind,
                    "primary": execution.primary,
                    "jobs": list(execution.job_ids),
                    "tenant": execution.tenant,
                    "priority": execution.priority,
                }
                (running if execution.state == "running"
                 else queued).append(view)
            return envelope(
                queued=queued, running=running,
                depth=len(self._inflight), cap=self.queue_cap,
            )

    def metrics(self) -> dict:
        with self._lock:
            by_state = {}
            for job in self.store.all_jobs():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            hits = getattr(self.cache, "hits", 0)
            misses = getattr(self.cache, "misses", 0) - self._cache_rechecks
            lookups = hits + misses
            busy = self._busy_slots
            return envelope(
                uptime=time.time() - self._started_wall,
                jobs={
                    "total": len(self.store),
                    "by_state": by_state,
                    "by_tenant": {
                        tenant: dict(counts)
                        for tenant, counts
                        in sorted(self._tenant_counts.items())
                    },
                },
                executions={
                    "started": self._executions_started,
                    "completed": self._executions_completed,
                    "coalesced_attaches": self._coalesced_attaches,
                    "cache_fast_hits": self._cache_fast_hits,
                },
                cache={
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": (hits / lookups) if lookups else None,
                },
                queue={
                    "depth": len(self._inflight),
                    "cap": self.queue_cap,
                    "wait_histogram_ms": dict(sorted(
                        self._wait_hist.items(),
                        key=lambda kv: int(kv[0]),
                    )),
                },
                engine={
                    "jobs": self.engine.jobs,
                    "busy_slots": busy,
                    "utilization": busy / self.engine.jobs,
                },
            )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def subscribe(self) -> "queue.Queue":
        q = queue.Queue(maxsize=256)
        with self._lock:
            self._subscribers.append(q)
        return q

    def unsubscribe(self, q):
        with self._lock:
            if q in self._subscribers:
                self._subscribers.remove(q)

    def _publish(self, event: dict):
        with self._lock:
            subscribers = list(self._subscribers)
        for q in subscribers:
            try:
                q.put_nowait(event)
            except queue.Full:
                try:          # drop the oldest, keep the stream moving
                    q.get_nowait()
                    q.put_nowait(event)
                except (queue.Empty, queue.Full):
                    pass

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _get_job(self, job_id) -> JobRecord:
        job = self.store.get(job_id)
        if job is None:
            raise ProtocolError("not_found", f"no such job: {job_id}")
        return job

    def _count(self, tenant, counter):
        counts = self._tenant_counts.setdefault(tenant, {})
        counts[counter] = counts.get(counter, 0) + 1

    def _lookup_result(self, fingerprint):
        """Result payload of a fingerprint from the cache, or ``None``.

        Runs are ``result`` entries; pipeline and tune payloads are the
        ``analysis`` entries :meth:`_complete` writes.
        """
        entry = self.cache.get_entry(fingerprint)
        if entry is None:
            return None
        if entry.kind == "result":
            return entry.value.to_dict()
        return entry.value

    def _enqueue(self, execution):
        """Queue a new execution for admission into the session."""
        self._inflight[execution.fingerprint] = execution
        self._pending.append(execution)
        self.session.wake()

    def _emit_submit(self, job, mode):
        if self.telemetry is not None:
            self.telemetry.emit(
                "serve_submit", job=job.id, tenant=job.tenant,
                mode=mode, run=job.fingerprint,
            )
        self._publish({"event": "submitted", "mode": mode,
                       "job": job.view()})

    def _observe_wait(self, seconds):
        ms = max(1, int(math.ceil(seconds * 1000.0)))
        exp = min(WAIT_BUCKET_MAX_EXP, max(0, math.ceil(math.log2(ms))))
        key = str(2 ** exp)
        self._wait_hist[key] = self._wait_hist.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Scheduler thread: session admission + completion handling
    # ------------------------------------------------------------------
    def _scheduler_loop(self):
        try:
            while not self._stop.is_set():
                due = self._scheduler_step()
                if not self._stop.is_set():
                    self.session.wait(due, _IDLE_WAIT_S)
        finally:
            self.session.close()

    def _scheduler_step(self):
        """Admit, withdraw what was canceled, poll, then settle under the
        broker lock what the graphs report; no session call takes it."""
        with self._lock:
            pending, self._pending = self._pending, []
        for execution in pending:
            if not execution.canceled:
                self._admit(execution)
        # ``canceled`` only ever turns true, and cancel then wakes this
        # thread: a read that misses it withdraws the graph a step later.
        for execution in self._admitted:
            if execution.canceled and not execution.graph.stopped:
                execution.graph.cancel()
        due = self.session.poll()
        settled = [(e, e.graph.started or e.graph.done,
                    e.graph.outcomes() if e.graph.done else None)
                   for e in self._admitted]
        self._admitted = [e for e, _, outcomes in settled if outcomes is None]
        busy = self.session.busy_slots
        with self._lock:
            for execution, started, outcomes in settled:
                if started and execution.state != "running":
                    self._start(execution)
                if outcomes is not None:
                    self._finish_graph(execution, outcomes)
            self._busy_slots = busy
            idle = not (self._inflight or self._admitted)
            if idle and self._closing:
                self._stop.set()   # drained
        if idle:
            # An idle broker keeps no worker (nor the memory of its last
            # run) alive; the next run forks afresh.
            self.session.retire_idle()
        return due

    def _admit(self, execution):
        """Enter one execution into the session as a :class:`GraphRun`
        (a run as a one-node graph named by its primary job), aged from
        now."""
        priority = execution.priority - self.aging_rate * time.monotonic()
        try:
            if execution.kind == "run":
                graph = JobGraph.from_specs(
                    [execution.payload], labels=[execution.primary],
                )
            elif execution.kind == "tune":
                graph = JobGraph.from_pipeline(
                    tune_pipeline(execution.payload))
            else:
                graph = JobGraph.from_pipeline(execution.payload)
            execution.graph = GraphRun(self.session, graph,
                                       priority=priority)
            execution.graph.start()
        except Exception as exc:   # a declaration the engine rejects
            if execution.graph is not None:
                execution.graph.cancel()
            with self._lock:
                self._start(execution)
                self._complete(execution, "failed", error=str(exc))
            return
        self._admitted.append(execution)
        if execution.kind == "run" and not execution.graph.done:
            with self._lock:
                self._cache_rechecks += 1

    def _live_jobs(self, execution):
        """The attached jobs of an execution that are not yet terminal."""
        for job_id in execution.job_ids:
            job = self.store.get(job_id)
            if job is not None and not job.terminal:
                yield job

    def _start(self, execution):
        """Mark an execution and every attached job ``running``."""
        execution.state = "running"
        self._executions_started += 1
        for job in self._live_jobs(execution):
            job.state = "running"
            job.started_at = time.time()
            job.attempts = max(1, job.attempts)
            self.store.record(job)
            self._observe_wait(job.started_at - job.submitted_at)
            self._publish({"event": "started", "job": job.view()})

    def _complete(self, execution, state, *, payload=None, error=None,
                  attempts=1):
        """Fan one terminal outcome out to every attached job.

        ``payload`` is a finished pipeline or tune result; it goes to
        the cache before any job is journaled ``done``, so a crash in
        between still recovers the result.  Run results are already
        cached by the session.
        """
        if payload is not None:
            self.cache.put_value(
                execution.fingerprint,
                {"kind": execution.kind,
                 "spec": execution.payload.to_dict()},
                payload,
            )
        self._executions_completed += 1
        if self._inflight.get(execution.fingerprint) is execution:
            del self._inflight[execution.fingerprint]
        for job in self._live_jobs(execution):
            job.state = state
            job.finished_at = time.time()
            job.attempts = attempts
            if error is not None:
                job.error = error
            self.store.record(job)
            self._count(job.tenant, state)
            if self.telemetry is not None:
                self.telemetry.emit(
                    "serve_done", job=job.id, tenant=job.tenant,
                    state=state, run=job.fingerprint,
                )
            self._publish({"event": state, "job": job.view()})

    def _finish_graph(self, execution, outcomes):
        """An execution's graph is done with ``outcomes``: complete it.

        A run completes from its one outcome, with that outcome's error
        and attempts.  A tune's candidate failures are part of its
        report, not a job failure; a pipeline fails listing ``"<node>
        <status>: <last error line>"`` for every node that did not
        complete.
        """
        if execution.canceled:
            self._complete(execution, "canceled")
            return
        state, payload, error, attempts = "done", None, None, 1
        if execution.kind == "run":
            (outcome,) = outcomes
            state = _JOB_STATES.get(outcome.status, "failed")
            error, attempts = outcome.error, outcome.attempts
        elif execution.kind == "tune":
            try:
                payload = finish_tune(
                    execution.payload, outcomes, self.telemetry,
                )
            except RuntimeError as exc:
                state, error = "failed", str(exc)
        else:
            report = SweepReport(outcomes, name=execution.payload.name)
            if report.ok:
                payload = {
                    "pipeline": report.name,
                    "nodes": {o.name: o.status for o in outcomes},
                    "results": report.results_dict(),
                }
            else:
                state, error = "failed", "; ".join(
                    f"{o.name} {o.status}"
                    + (": " + str(o.error).strip().splitlines()[-1]
                       if o.error else "")
                    for o in outcomes if not o.ok
                )
        self._complete(execution, state, payload=payload, error=error,
                       attempts=attempts)
