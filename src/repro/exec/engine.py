"""Parallel, cached, fault-isolated execution of experiment job graphs.

Every paper artifact is a *job graph*: a flat sweep of independent runs
in the simplest case, a dependency DAG (calibrate → sweep → report) in
the general one.  Both flow through one scheduler with one contract:

* a node is **launched the moment its own predecessors complete** — no
  level barriers, so an unrelated slow node never holds back a ready
  branch (the RushTI model);
* the ready set is ordered **critical-path-first** using predicted
  durations from the persistent :class:`~repro.exec.stats.RunStatsStore`
  (falling back to a conservative cost-model estimate when history is
  cold) — longest remaining chain starts first;
* every run executes in a worker **process** from a pool of ``jobs``
  slots — at ``jobs=1`` too; results come back as serialized dicts and
  are bit-identical at any ``jobs`` count (the simulator is
  deterministic and ``RunResult`` round-trips losslessly through JSON);
* workers persist: one whose attempt ended ``ok`` takes the next spec,
  so a sweep forks at most ``jobs`` of them; any other ending (crash,
  timeout, cancel, error, shutdown) kills the worker, and so does every
  ending under a runner that does not declare ``reuse_worker``;
* each run is looked up in / stored to a content-addressed
  :class:`~repro.exec.cache.ResultCache` by its spec fingerprint —
  lookups happen when the node becomes *ready*, so a cached calibrate
  node unblocks its dependents instantly;
* a worker crash or timeout is retried with exponential backoff and,
  after ``retries`` retries, fails *that one run* — never the sweep; its
  transitive dependents finish as ``blocked`` (a distinct terminal
  status, so "skipped because upstream failed" is never reported as a
  failure of the node itself);
* every job transition is recorded once, as a telemetry record; a
  progress display is a view over those records.

One scheduler core does the executing: :class:`EngineSession` launches,
reaps, times out, retries, cancels and finalizes every run, and
:class:`GraphRun` is the one way work enters it — for
:meth:`SweepEngine.run` and the serve broker alike, where a single run
is a one-node graph.  Timeout, retry and
cancel therefore behave the same at every ``jobs`` count.  The session
hands each finished run back to the graph that queued it, so a
scheduling loop only polls and blocks in :meth:`EngineSession.wait`
instead of sleeping.  Traced and
profiled runs are no exception: their :class:`~repro.obs.Tracer` and
:class:`~repro.obs.ProfileReport` serialize with the result, so they
flow through the pool and the cache like any other run (under their own
fingerprint, since ``trace`` and ``profile`` are part of the spec).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import signal
import socket
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from ..core import RunResult, RunSpec, run_simulation
from ..core.driver import gc_suspended
from ..obs.telemetry import QueueEmitter, drain_queue
from .stats import FALLBACK_CONSERVATISM, fallback_cost, spec_signature


class SweepError(RuntimeError):
    """Raised by :meth:`SweepReport.raise_failures` when runs failed."""


def retry_jitter(fingerprint: str, attempt: int) -> float:
    """Deterministic retry-backoff jitter in ``[0, 1)``.

    Derived from the run's content fingerprint and the attempt number —
    never from wall clock or a process-global RNG — so a retried sweep
    desynchronizes its retries (the point of jitter) while remaining
    bit-reproducible run to run.
    """
    digest = hashlib.sha256(
        f"{fingerprint}:{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass
class RunOutcome:
    """What happened to one node of a job graph."""

    index: int
    spec: RunSpec
    fingerprint: str
    label: str
    #: "ok" (executed), "cached" (served from cache), "failed",
    #: "blocked" (never attempted: a predecessor failed or the engine
    #: shut down before launch), or "canceled" (withdrawn through an
    #: :class:`EngineSession` before completing).
    status: str
    #: :class:`RunResult` for run nodes; the builder's JSON value for
    #: pipeline analysis nodes.
    result: object = None
    error: str = None
    attempts: int = 0
    wall_time: float = 0.0
    #: Node name inside its pipeline (flat sweeps: ``label``, suffixed
    #: ``#index`` when several runs share one).
    name: str = None
    #: Seconds between "all predecessors done" and first launch.
    wait_time: float = 0.0
    #: Host seconds of the *successful attempt* alone — what the stats
    #: store learns from (``wall_time`` also accumulates failed attempts
    #: and backoff).  ``None`` when the run never succeeded.
    exec_time: float = None
    #: Engine worker (pool slot) that executed the run: ``0..jobs-1``,
    #: ``None`` when nothing executed (cached/blocked outcomes).
    worker_id: int = None
    #: Pool slots the run occupied while executing (a partitioned run
    #: claims ``min(pdes_workers, jobs)``).
    slots: int = 1

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


def _payload(result):
    """A node result as timing-free JSON."""
    if isinstance(result, RunResult):
        return result.to_dict()
    if isinstance(result, list) and all(
        isinstance(c, RunOutcome) for c in result
    ):
        return [_payload(c.result) if c.ok else None for c in result]
    return result


@dataclass
class SweepReport:
    """Structured outcome of one job graph (input order preserved).

    Node outcomes keep the :class:`RunOutcome` semantics — including
    ``wait_time`` (seconds between "predecessors done" and launch) and
    ``exec_time`` (the successful attempt alone) — addressable by node
    name.
    """

    outcomes: list = field(default_factory=list)
    wall_time: float = 0.0
    #: The job graph's name (a pipeline's ``PipelineSpec.name``).
    name: str = None

    @property
    def results(self) -> list:
        """Node results in input order (``None`` for failed/blocked)."""
        return [o.result for o in self.outcomes]

    def outcome(self, name: str) -> RunOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)

    def result(self, name: str):
        """The node's result payload (``None`` for failed/blocked)."""
        return self.outcome(name).result

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def blocked(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "blocked")

    @property
    def completed(self) -> int:
        return self.executed + self.cached

    def raise_failures(self):
        """Raise :class:`SweepError` listing every failed run.

        Blocked nodes are counted but not listed: they carry no error of
        their own — fixing the failed predecessor unblocks them.
        """
        bad = [o for o in self.outcomes if o.status == "failed"]
        if bad:
            head = f"{len(bad)} of {len(self.outcomes)} runs failed"
            if self.blocked:
                head += f" ({self.blocked} blocked downstream)"
            lines = [head + ":"]
            for o in bad:
                first = (o.error or "unknown error").strip().splitlines()
                lines.append(
                    f"  [{o.label}] after {o.attempts} attempt(s): "
                    f"{first[-1] if first else 'unknown error'}"
                )
            raise SweepError("\n".join(lines))

    def summary(self) -> str:
        parts = (
            f"{self.executed} executed, {self.cached} cached, "
            f"{self.failed} failed"
        )
        if self.blocked:
            parts += f", {self.blocked} blocked"
        return (
            f"{self.completed}/{len(self.outcomes)} runs "
            f"({parts}) in {self.wall_time:.2f}s"
        )

    def results_dict(self) -> dict:
        """Node name → serialized result, **timing-free**.

        Deterministic for deterministic runs: two executions of the same
        graph (cached or not) produce byte-identical JSON here, which is
        exactly what the CI cache-integrity check diffs.  A fan-out node
        serializes as its children's results in order (``None`` for a
        child that failed).  Timing and status live in :meth:`to_dict`
        instead.
        """
        return {o.name: _payload(o.result) for o in self.outcomes}

    def to_dict(self) -> dict:
        nodes = []
        for o in self.outcomes:
            entry = {
                "name": o.name,
                "status": o.status,
                "fingerprint": o.fingerprint,
                "attempts": o.attempts,
                "wall_time": o.wall_time,
                "wait_time": o.wait_time,
                "exec_time": o.exec_time,
                "worker_id": o.worker_id,
                "slots": o.slots,
            }
            if o.error is not None:
                entry["error"] = o.error
            nodes.append(entry)
        return {
            "pipeline": self.name,
            "summary": self.summary(),
            "nodes": nodes,
            "results": self.results_dict(),
        }


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def run_spec_dict(spec_dict: dict) -> dict:
    """Default worker body: execute a serialized spec, return a dict.

    The result serializes before the cyclic collector is back on: a
    traced run's event rows would otherwise make it rescan the whole
    finished run.
    """
    with gc_suspended():
        return run_simulation(RunSpec.from_dict(spec_dict)).to_dict()


# Nothing carries from one run to the next: a worker may run another.
run_spec_dict.reuse_worker = True


def _worker_main(conn, engine_end, runner, queue):
    """Worker process loop: receive ``(tags, spec_dict)``, answer
    ``("ok", dict)`` and wait for the next spec, or ``("error", tb)`` and
    exit (a failed worker is never reused).  With telemetry on, ``tags``
    names the run and the worker posts ``run_start``/``run_end`` onto
    ``queue``; the engine parent drains it and stays the single writer.
    """
    # A forked worker inherits the parent's graceful-shutdown signal
    # handlers (SIGTERM -> request_shutdown), which would swallow the
    # very terminate() the engine uses to kill it.  Workers die on
    # signal, only the engine parent drains.
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass
    # The engine's end of the pipe came along with the fork; closed, it
    # lets the worker see EOF and exit once the engine process is gone.
    engine_end.close()
    while True:
        try:
            tags, spec_dict = conn.recv()
        except (EOFError, OSError):  # the engine parent is gone
            return
        emit = (QueueEmitter(queue, **tags).emit if tags is not None
                else lambda *args, **fields: None)
        emit("run_start")
        ran = False
        try:
            result = runner(spec_dict)
            ran = True
            emit("run_end", ok=True)
            conn.send(("ok", result))
        except BaseException:
            if not ran:
                emit("run_end", ok=False)
            try:
                conn.send(("error", traceback.format_exc()))
            except BaseException:
                pass
            return


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class _Pending:
    __slots__ = ("index", "spec", "fingerprint", "label", "name",
                 "priority", "ready_at", "attempts", "not_before",
                 "started", "first_started", "deadline", "proc", "conn",
                 "wall_time", "slots", "wids", "graph", "predicted")

    def __init__(self, index, spec, fingerprint, label, name, priority,
                 ready_at, graph, predicted=None):
        self.index = index
        self.spec = spec
        self.fingerprint = fingerprint
        self.label = label
        self.name = name
        self.priority = priority
        self.ready_at = ready_at
        self.attempts = 0
        self.not_before = 0.0
        self.started = 0.0
        self.first_started = None
        self.deadline = None
        self.proc = None
        self.conn = None
        self.wall_time = 0.0
        #: Pool slots this run occupies while it executes.  A partitioned
        #: run (``pdes_workers > 1``) spawns that many worker processes,
        #: so the scheduler bin-packs it as that many jobs.
        self.slots = 1
        #: Worker ids claimed while executing (``wids[0]`` names the run's
        #: worker in outcomes and telemetry); ``None`` between attempts.
        self.wids = None
        #: The :class:`GraphRun` that queued this run; the session hands
        #: it the run's terminal outcome.
        self.graph = graph
        #: Predicted host seconds (job-graph nodes only; telemetry).
        self.predicted = predicted

    @property
    def wid(self):
        return self.wids[0] if self.wids else None

    @property
    def wait_time(self):
        if self.first_started is None:
            return 0.0
        return max(0.0, self.first_started - self.ready_at)


class SweepEngine:
    """Executes job graphs; see the module docstring for the contract.

    ``run`` accepts an iterable of specs, a
    :class:`~repro.pipeline.PipelineSpec` or a
    :class:`~repro.pipeline.JobGraph` (a labelled sweep is
    :meth:`~repro.pipeline.JobGraph.from_specs`); each is lowered to a
    job graph and admitted into an :class:`EngineSession`, which
    executes every run.  All constructor parameters are keyword-only.

    Parameters
    ----------
    jobs:
        Worker processes (default 1).  Every run executes in a worker
        process at every ``jobs`` count, so timeout, retry and cancel
        behave the same at 1 as at 8.
    cache:
        A :class:`~repro.exec.cache.ResultCache` (or ``None`` to disable).
    timeout:
        Per-run wall-clock limit in seconds.
    retries:
        Crash/timeout retries per run before it is marked failed.
        Deterministic Python exceptions are *not* retried.
    backoff:
        Base of the exponential retry backoff (``backoff * 2**attempt``,
        plus up to 50% :func:`retry_jitter` seeded by the run
        fingerprint — never by wall clock, so retried sweeps reproduce).
    runner:
        Picklable ``spec_dict -> result_dict`` executed in workers
        (test/instrumentation hook; defaults to :func:`run_spec_dict`).
        A worker runs further specs only if the runner has a true
        ``reuse_worker`` attribute (:func:`run_spec_dict` does); any
        other runner gets a fresh fork of the engine process per
        attempt, so it may keep per-process state.
    stats:
        A :class:`~repro.exec.stats.RunStatsStore` (or ``None``).  Every
        completed run — including cache hits whose original duration
        rides in the cache envelope — updates it; predictions from it
        drive the critical-path-first ordering of the ready set.
    telemetry:
        A :class:`~repro.obs.telemetry.TelemetryBus` or other emitter
        (or ``None``, the default: fully disabled, zero emission cost).
        The engine's only account of a job's life: every transition —
        queued, launched, retried, done/failed/blocked, cache hits —
        with worker ids and slot counts, in ``engine_start``/
        ``engine_stop`` envelopes; pool children post ``run_start``/
        ``run_end`` spans through a queue the parent drains.  Telemetry
        is not part of any :class:`RunSpec`: fingerprints, cache keys,
        and results are byte-identical with it on or off.
    drain_timeout:
        Seconds a graceful shutdown (:meth:`request_shutdown`, or
        SIGTERM/SIGINT while running on the main thread) waits for
        in-flight runs before terminating them.
    """

    def __init__(self, *, jobs=1, cache=None, timeout=None, retries=2,
                 backoff=0.25, runner=None, stats=None, telemetry=None,
                 drain_timeout=30.0):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.runner = runner or run_spec_dict
        self.stats = stats
        self.telemetry = telemetry
        #: Seconds a graceful shutdown waits for in-flight runs before
        #: terminating them (see :meth:`request_shutdown`).
        self.drain_timeout = drain_timeout
        self._shutdown = False
        self._session = None  # the one run() drives, for wake-ups
        if stats is not None and telemetry is not None and getattr(
            stats, "telemetry", None
        ) is None:
            # Route the store's predicted-vs-actual reconciliation into
            # the same stream the engine writes.
            stats.telemetry = telemetry
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )

    # ------------------------------------------------------------------
    def request_shutdown(self):
        """Ask a running sweep to drain gracefully.

        The scheduling loop stops admitting and launching new work,
        waits up to ``drain_timeout`` seconds for in-flight runs to
        finish (terminating and failing whatever is still alive after
        that), marks every not-yet-launched node ``blocked`` with the
        distinct reason ``"engine shutdown"``, emits the terminal
        ``engine_stop`` telemetry record, and returns the partial
        report normally.  Safe to call from any thread or from a signal
        handler; :meth:`run` installs SIGTERM/SIGINT handlers that call
        it when running on the main thread, so an interrupted sweep
        drains instead of orphaning its worker processes.  A loop blocked
        in :meth:`EngineSession.wait` wakes at once.
        """
        self._shutdown = True
        session = self._session
        if session is not None:
            session.wake()

    def _install_signal_handlers(self):
        """SIGTERM/SIGINT -> graceful drain (main thread only)."""
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}

        def _handler(signum, frame):
            self.request_shutdown()

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(sig, _handler)
            except (ValueError, OSError):  # pragma: no cover - platform
                pass
        return previous

    @staticmethod
    def _restore_signal_handlers(previous):
        if not previous:
            return
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover - platform
                pass

    def run(self, sweep) -> SweepReport:
        """Execute a sweep or pipeline; outcomes come back in node order.

        Drives one :class:`GraphRun` over a private session: polls it
        (the poll hands each finished run to the graph) and waits until
        the next poll has work, and — on :meth:`request_shutdown` —
        drains in-flight runs and blocks the rest.
        """
        graph = self._as_graph(sweep)
        self._shutdown = False
        t0 = time.monotonic()
        session = self._session = EngineSession(self)
        session._graph = graph.name
        previous = self._install_signal_handlers()
        try:
            run = GraphRun(session, graph)
            if self.telemetry is not None:
                try:
                    session._predicted = graph.simulate_makespan(
                        run.costs, workers=self.jobs
                    )
                except ValueError:
                    pass  # degenerate graph: telemetry never fails a run
            run.start()
            while not run.done:
                if self._shutdown:
                    run.drain(self.drain_timeout)
                    break
                due = session.poll()
                if not session.active and not run.done:
                    raise RuntimeError(
                        f"job graph {graph.name!r}: no runnable work but "
                        f"{run.outcomes().count(None)} node(s) unfinished"
                    )
                session.wait(due)
        finally:
            self._session = None
            session.close()
            self._restore_signal_handlers(previous)
        return SweepReport(
            outcomes=run.outcomes(), wall_time=time.monotonic() - t0,
            name=graph.name,
        )

    def session(self) -> "EngineSession":
        """Open an :class:`EngineSession` for incremental job admission."""
        return EngineSession(self)

    @staticmethod
    def _as_graph(sweep):
        # Imported lazily: repro.pipeline layers *on top of* repro.exec,
        # so the module-level dependency must point only one way.
        from ..pipeline.graph import JobGraph
        from ..pipeline.spec import PipelineSpec

        if isinstance(sweep, JobGraph):
            return sweep
        if isinstance(sweep, PipelineSpec):
            return JobGraph.from_pipeline(sweep)
        return JobGraph.from_specs(sweep)

    # ------------------------------------------------------------------
    def predict_costs(self, graph) -> list:
        """Predicted host seconds per node, for scheduling.

        Measured history (EWMA per normalized signature) wins; cold
        nodes get the cost-model fallback rescaled by the median
        measured/fallback ratio of the warm nodes (host time and
        simulated work are different units) times
        :data:`~repro.exec.stats.FALLBACK_CONSERVATISM`.  Generator
        nodes have no spec before their predecessors finish, so they
        conservatively assume the most expensive concrete node.
        """
        costs = [None] * len(graph)
        fallbacks, measured = {}, {}
        for i, node in enumerate(graph.nodes):
            if node.spec is None:
                continue
            fallbacks[i] = fallback_cost(node.spec)
            if self.stats is not None:
                pred = self.stats.predict(spec_signature(node.spec))
                if pred is not None:
                    measured[i] = pred
        ratios = sorted(
            measured[i] / fallbacks[i]
            for i in measured
            if fallbacks[i] > 0
        )
        scale = ratios[len(ratios) // 2] if ratios else 1.0
        for i in fallbacks:
            costs[i] = measured.get(
                i, fallbacks[i] * scale * FALLBACK_CONSERVATISM
            )
        known = [c for c in costs if c is not None]
        default = max(known) if known else 1.0
        return [default if c is None else c for c in costs]


# ----------------------------------------------------------------------
# Job-graph admission: GraphRun
# ----------------------------------------------------------------------
class GraphRun:
    """One job graph admitted into an :class:`EngineSession`.

    Decides *when* a node enters the session (the moment its own
    predecessors finish) and with which priority (critical-path-first,
    shifted so the head of the critical path starts at ``priority``: a
    one-node graph keeps exactly the caller's priority), and settles
    the nodes that never need a worker: cache hits, analysis values,
    builder failures and blocked dependents.  The session hands each run
    this graph queued back to it when the run ends, inside
    :meth:`EngineSession.poll`, so the caller only polls and waits.  The
    graph keeps its nodes' outcomes (:meth:`outcomes`), and only its
    session's driving thread calls it (see :class:`EngineSession`).  One
    ticket per node is reserved up front, so on a private session a
    node's ticket is its index.

    A generator returning a list of specs is a *fan-out*: its children
    take later tickets and run like run nodes, and the node settles with
    their outcomes (``cached`` if every child was a cache hit, else
    ``ok``) — a failed child is data for the successors, not a blocker.
    """

    def __init__(self, session, graph, *, priority=0.0):
        self.session, self.engine = session, session.engine
        self.graph = graph
        self.costs = self.engine.predict_costs(graph)
        # Ranks shift down by the critical path, so the graph's head
        # starts at ``priority``: one scale for graphs of any size.
        ranks = graph.critical_path_priorities(self.costs)
        top = max(ranks, default=0.0)
        self.priority = [priority + rank - top for rank in ranks]
        self.first = session.reserve(len(graph))
        #: Tickets queued or running in the session for this graph.
        self.live = set()
        #: Canceled or draining: nothing new is admitted.
        self.stopped = False
        #: A run of this graph has launched its first attempt.
        self.started = False
        self._remaining = [len(p) for p in graph.preds]
        self._outcomes = [None] * len(graph)  # node index -> RunOutcome
        self._fingerprints = {}  # node index -> fingerprint for hashing
        self._fans = {}          # fan-out index -> (ready_at, children)
        self._parent = {}        # queued child ticket -> (index, position)

    @property
    def done(self) -> bool:
        """Every node settled — or, once stopped, nothing left live."""
        return None not in self._outcomes or (
            self.stopped and not self.live)

    def outcomes(self) -> list:
        """Node outcomes in node order (``None`` while unsettled)."""
        return list(self._outcomes)

    def start(self):
        """Admit every root in node order; admission cascades through
        cached and analytic chains synchronously."""
        for index, preds in enumerate(self.graph.preds):
            if not preds:
                self._admit(index)

    def _route(self, ticket, outcome):
        """A ticket this graph queued ended (:meth:`EngineSession.poll`)."""
        self.live.discard(ticket)
        if ticket in self._parent:
            index, position = self._parent.pop(ticket)
            self._fans[index][1][position] = outcome
            self._settle_fan_out(index)
        else:
            self._finish(ticket - self.first, outcome)

    def _withdrawn(self, ticket, outcome):
        """Keep a withdrawn ticket's node outcome; admit or block nothing."""
        self.live.discard(ticket)
        if ticket not in self._parent:
            self._outcomes[ticket - self.first] = outcome

    def cancel(self):
        """Admit nothing more and withdraw every live ticket (queued ones
        at once, running ones at the next poll, which routes them here)."""
        self.stopped = True
        for ticket in list(self.live):
            self.session.cancel(ticket)

    def drain(self, timeout):
        """Graceful shutdown of a graph that owns its session: in-flight
        attempts get ``timeout`` seconds (their results still count),
        survivors are failed, and every node that never launched ends
        ``blocked`` with the reason ``"engine shutdown"``."""
        self.stopped = True
        session = self.session
        deadline = time.monotonic() + max(0.0, timeout or 0.0)
        due = 0.0  # the first pass polls without waiting
        while True:
            for task in list(session._launchable):
                session._withdraw(
                    task, "blocked", "blocked: engine shutdown",
                    blocker="<shutdown>",
                )
            if not session._running:
                break
            if time.monotonic() > deadline:
                for task in list(session._running):
                    session._withdraw(
                        task, "failed", "terminated: engine shutdown "
                        f"after {timeout}s drain",
                    )
                break
            # After the withdrawal above: a retry the last poll
            # requeued must not hold the drain up.
            session.wait(due, deadline - time.monotonic())
            due = session.poll()
        for index, outcome in enumerate(self._outcomes):
            if outcome is None:
                self._outcomes[index] = session._settle(self._outcome(
                    index, "blocked", error="blocked: engine shutdown",
                ), blocker="<shutdown>")

    # ------------------------------------------------------------------
    def _outcome(self, index, status, **fields) -> RunOutcome:
        node = self.graph.nodes[index]
        return RunOutcome(
            index=self.first + index, spec=node.spec,
            fingerprint=self._fingerprints.get(index), label=node.label,
            name=node.name, status=status, **fields,
        )

    def _finish(self, index, outcome):
        """A node is terminal: wake its dependents or block them."""
        self._outcomes[index] = outcome
        graph = self.graph
        if not outcome.ok:
            blocker = graph.nodes[index].name
            error = f"blocked: predecessor {blocker!r} {outcome.status}"
            stack = list(graph.succs[index])
            while stack:
                s = stack.pop()
                if self._outcomes[s] is None:
                    self._outcomes[s] = self.session._settle(
                        self._outcome(s, "blocked", error=error),
                        blocker=blocker,
                    )
                    stack.extend(graph.succs[s])
        elif not (self.stopped or self.engine._shutdown):
            for s in graph.succs[index]:
                self._remaining[s] -= 1
                if self._remaining[s] == 0 and self._outcomes[s] is None:
                    self._admit(s)

    def _admit(self, index):
        """A node's predecessors are all done: resolve and enqueue it.

        Cache lookups, generator builds and analysis reductions all
        happen here, synchronously — a cached or analytic node unblocks
        its dependents without ever occupying a worker slot.
        """
        node = self.graph.nodes[index]
        ready_at = time.monotonic()
        spec, cache = node.spec, self.engine.cache
        if node.builder is not None:
            preds = self.graph.preds[index]
            deps = [self._fingerprints[p] for p in preds]
            nfp = self._fingerprints[index] = _node_fingerprint(node, deps)
            if cache is not None:
                entry = cache.get_entry(nfp)
                if entry is not None and entry.kind == "analysis":
                    return self._finish(index, self.session._settle(
                        self._outcome(index, "cached", result=entry.value)))
            try:
                spec = node.builder(
                    dict(node.params or {}),
                    {self.graph.nodes[p].name: self._outcomes[p].result
                     for p in preds},
                )
                fan_out = isinstance(spec, list) and all(
                    isinstance(s, RunSpec) for s in spec
                )
                if not (fan_out or isinstance(spec, RunSpec)):
                    # An analysis value must survive the JSON cache at
                    # every cache setting, or warm and cold runs differ.
                    json.dumps(spec)
            except Exception:
                return self._finish(index, self.session._settle(self._outcome(
                    index, "failed", error=traceback.format_exc(),
                    attempts=1, wall_time=time.monotonic() - ready_at,
                )))
            if fan_out:
                return self._fan_out(index, spec, ready_at)
            if not isinstance(spec, RunSpec):
                # Analysis node: the value *is* the result.
                wall = time.monotonic() - ready_at
                if cache is not None:
                    cache.put_value(
                        nfp,
                        {"generator": node.generator,
                         "params": node.params or {}, "deps": deps},
                        spec, wall_time=wall,
                    )
                return self._finish(index, self.session._settle(self._outcome(
                    index, "ok", result=spec, attempts=1, wall_time=wall,
                )))
        fingerprint = self._fingerprints[index] = spec.fingerprint()
        outcome = self._run(_Pending(
            self.first + index, spec, fingerprint, node.label, node.name,
            self.priority[index], ready_at, self,
            predicted=self.costs[index],
        ))
        if outcome is not None:
            self._finish(index, outcome)

    def _run(self, task):
        """Serve a run from the cache or queue it; the outcome when
        settled now, else ``None`` (it routes later)."""
        cache, stats = self.engine.cache, self.engine.stats
        if cache is not None:
            entry = cache.get_entry(task.fingerprint)
            if entry is not None and entry.kind == "result":
                outcome = self.session._settle(self.session._outcome(
                    task, "cached", result=entry.value,
                ))
                if stats is not None:
                    stats.record(spec_signature(task.spec),
                                 entry.wall_time, cached=True)
                return outcome
        self.live.add(task.index)
        self.session._enqueue(task)
        return None

    def _fan_out(self, index, specs, ready_at):
        """Admit a fan-out node's children under tickets of their own."""
        node = self.graph.nodes[index]
        first = self.session.reserve(len(specs))
        children = [None] * len(specs)
        self._fans[index] = (ready_at, children)
        for k, spec in enumerate(specs):
            children[k] = self._run(_Pending(
                first + k, spec, spec.fingerprint(), f"{node.label}[{k}]",
                f"{node.name}[{k}]", self.priority[index], ready_at, self,
            ))
            if children[k] is None:
                self._parent[first + k] = (index, k)
        self._settle_fan_out(index)

    def _settle_fan_out(self, index):
        """Once every child is terminal, settle the node with their
        outcomes.  Its fingerprint hashes the children's fingerprints and
        whether each succeeded, so a dependent analysis is reused exactly
        when the same runs succeeded."""
        ready_at, children = self._fans[index]
        if None in children:
            return
        del self._fans[index]
        blob = json.dumps([[c.fingerprint, c.ok] for c in children])
        self._fingerprints[index] = hashlib.sha256(
            blob.encode("utf-8")
        ).hexdigest()
        cached = children and all(c.status == "cached" for c in children)
        self._finish(index, self.session._settle(self._outcome(
            index, "cached" if cached else "ok", result=children,
            attempts=sum(c.attempts for c in children),
            wall_time=time.monotonic() - ready_at,
        )))


def _node_fingerprint(node, dep_fingerprints) -> str:
    """Content address of a generator node's *analysis* value.

    Mixes the builder identity, its parameters, the predecessors'
    result fingerprints, and the package version — so an analysis
    entry is reused exactly when everything it was derived from is.
    """
    from .. import __version__

    blob = json.dumps(
        {
            "analysis": node.generator,
            "params": node.params or {},
            "deps": list(dep_fingerprints),
            "version": __version__,
        },
        sort_keys=True, separators=(",", ":"), allow_nan=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The scheduler core: EngineSession
# ----------------------------------------------------------------------
class EngineSession:
    """Incremental job admission into a live engine — its one scheduler.

    Work enters only through a :class:`GraphRun`, which admits a job
    graph's nodes under tickets it :meth:`reserve`\\ s, at any time;
    :meth:`poll` advances launching and reaping without ever blocking on
    a run and hands each finished run to its graph, :meth:`wait` blocks
    until a poll may have something to do, :meth:`cancel` withdraws
    queued work (and terminates running work), and :meth:`close` winds
    the session down.  :meth:`SweepEngine.run` drives one private
    session, and the serving layer (:mod:`repro.serve`) runs its broker
    on a resident one.

    This is the engine's only code that launches, reaps, times out,
    retries, cancels and finalizes a run.  Every run executes in a
    worker process at every ``jobs`` count, so timeout, retry and cancel
    behave identically at ``jobs=1``.  The session keeps the workers
    whose last attempt ended ``ok`` and hands them the next spec; it
    forks one, with the ``engine.runner`` and telemetry queue it captured
    when it opened, only when none is idle.  A session does no cache
    lookups — :class:`GraphRun` looks up each node at admission (and the
    serve broker coalesces before that); the session stores completed
    runs to the cache and feeds the stats store, which it flushes on
    :meth:`close`.

    Ready work launches highest ``priority`` first, then by ticket; a
    fairness rule such as the serve broker's aging is the caller's.

    One thread drives a session: only the caller of :meth:`poll` calls it
    and its :class:`GraphRun`\\ s, so neither takes a lock; :meth:`wake`
    alone is safe from any thread or signal handler.  The session keeps
    no outcome: it hands each to its graph, counting them by status.
    """

    def __init__(self, engine: SweepEngine):
        self.engine = engine
        self._launchable = []     # _Pending awaiting a slot
        self._running = []
        self._tickets = {}        # ticket -> live _Pending
        self._counts = Counter()  # terminal outcomes by status
        self._cancel_requested = set()
        self._free_wids = list(range(engine.jobs))
        self._runner = engine.runner
        self._idle = []           # (process, pipe) of idle workers
        # A byte on this socket wakes wait() (see request_shutdown).
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._next_ticket = 0
        self._closed = False
        self._started_t = time.monotonic()
        # Stream identity (its size: the tickets reserved): ``run()``
        # names its graph and predicted makespan before anything is
        # recorded; ``engine_start`` is written with the first record.
        self._graph = "session"
        self._predicted = None
        self._opened = False
        # Cache counters are cumulative per ResultCache instance; the
        # stop record reports this session's delta so streams holding
        # many sessions stay summable.
        cache = engine.cache
        self._cache0 = (getattr(cache, "hits", 0) or 0,
                        getattr(cache, "misses", 0) or 0)
        self._tel_queue = (
            engine._ctx.SimpleQueue()
            if engine.telemetry is not None else None
        )

    # ------------------------------------------------------------------
    def reserve(self, count) -> int:
        """Reserve ``count`` consecutive tickets; returns the first.
        Raises :class:`RuntimeError` once the session is closed."""
        if self._closed:
            raise RuntimeError("session is closed")
        first = self._next_ticket
        self._next_ticket += count
        return first

    @property
    def active(self) -> int:
        """Jobs queued or running: admitted but not yet terminal."""
        return len(self._tickets)

    @property
    def busy_slots(self) -> int:
        """Worker slots currently claimed by running jobs."""
        return sum(t.slots for t in self._running)

    # ------------------------------------------------------------------
    def cancel(self, ticket) -> bool:
        """Withdraw a job: immediate for queued, next poll for running.

        Returns ``True`` when the cancel took (or was already pending),
        ``False`` when the job is already terminal or unknown.  A run
        that completes before the terminate lands keeps its result —
        the outcome then reads ``ok``, never ``canceled``.
        """
        task = self._tickets.get(ticket)
        if task is None:
            return False
        if task in self._launchable:
            self._withdraw(task, "canceled", "canceled while queued")
        else:
            self._cancel_requested.add(ticket)
        return True

    # ------------------------------------------------------------------
    def poll(self):
        """Advance the session one step; never blocks on a run.

        Hands each run that ended to the :class:`GraphRun` that queued
        it, so its successors are admitted before this returns.  Returns
        ``due`` for :meth:`wait`: the monotonic time the next poll has
        work by (in the past when a task may launch now), or ``None``
        when only a running attempt's end can bring any.
        """
        self._drain_telemetry()
        now = time.monotonic()
        self._launchable.sort(key=lambda t: (-t.priority, t.index))
        while True:
            # A partitioned run claims ``slots`` pool slots; narrower
            # tasks may backfill around a wide one that does not fit
            # yet (``not self._running`` guarantees progress for a
            # task wider than what ever frees up).
            used = sum(t.slots for t in self._running)
            task = next(
                (t for t in self._launchable
                 if t.not_before <= now and self._fits(t, used)),
                None,
            )
            if task is None:
                break
            self._launchable.remove(task)
            self._launch(task)
        finished = []
        for task in list(self._running):
            outcome = self._reap(task)
            if outcome is not None:
                finished.append((task, outcome))
        for task, outcome in finished:
            task.graph._route(task.index, outcome)
        # A task that does not fit waits for a running attempt to
        # end, which wakes wait() by itself; counting it would spin.
        used = sum(t.slots for t in self._running)
        return min(
            [t.deadline for t in self._running if t.deadline is not None]
            + [t.not_before for t in self._launchable
               if self._fits(t, used)],
            default=None,
        )

    def _fits(self, task, used) -> bool:
        """Whether ``task`` may launch beside ``used`` claimed slots."""
        return used + task.slots <= self.engine.jobs or not self._running

    def wait(self, due, timeout=None):
        """Block until a running worker answers or exits, :meth:`wake` is
        called, or ``due`` (what the last :meth:`poll` returned) or
        ``timeout`` seconds pass — whichever comes first.  With nothing
        running and nothing due, returns at once: no wait could end on its
        own."""
        # Imported here, so a process that imports the engine but never
        # runs it does not load the module (~0.5 MB resident).
        from multiprocessing.connection import wait

        waitables = [self._wake_r]
        for task in self._running:
            waitables += (task.conn, task.proc.sentinel)
        now = time.monotonic()
        bounds = [] if due is None else [due]
        if timeout is not None:
            bounds.append(now + timeout)
        if len(waitables) == 1 and not bounds:
            return
        wait(waitables, max(0.0, min(bounds) - now) if bounds else None)
        try:
            while self._wake_r.recv(64):
                pass
        except OSError:  # drained (BlockingIOError) or closed
            pass

    def retire_idle(self):
        """Stop and join the idle workers (the next launch forks anew);
        joined, their CPU time counts in ``RUSAGE_CHILDREN``."""
        for worker in self._idle:
            self._kill(*worker)
        self._idle.clear()

    def wake(self):
        """Make :meth:`wait` return now; safe from any thread, a signal
        handler, and after close."""
        try:
            self._wake_w.send(b"\0")
        except OSError:  # full (already woken) or closed
            pass

    def close(self):
        """Terminate everything still live; the session ends canceled.

        Queued jobs finish ``canceled`` immediately; running processes
        are terminated and finish ``canceled`` too, and idle workers are
        stopped and joined.  Writes the ``engine_stop`` record and
        flushes the engine's stats store.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for task in self._launchable + self._running:
            self._withdraw(task, "canceled", "canceled: session closed")
        self.retire_idle()
        self._wake_r.close()
        self._wake_w.close()
        self._drain_telemetry()
        if self._tel_queue is not None:
            self._tel_queue.close()
            self._tel_queue = None
        counts, cache = self._counts, self.engine.cache
        self._record(
            "engine_stop", graph=self._graph,
            reason="shutdown" if self.engine._shutdown else None,
            makespan=time.monotonic() - self._started_t,
            executed=counts["ok"], cached=counts["cached"],
            failed=counts["failed"], blocked=counts["blocked"],
            canceled=counts["canceled"],
            cache_hits=(
                None if cache is None
                else getattr(cache, "hits", 0) - self._cache0[0]
            ),
            cache_misses=(
                None if cache is None
                else getattr(cache, "misses", 0) - self._cache0[1]
            ),
        )
        if self.engine.stats is not None:
            self.engine.stats.flush()

    # ------------------------------------------------------------------
    def _enqueue(self, task):
        """Queue a task for a worker slot (graph admission)."""
        task.slots = max(1, min(task.spec.pdes_workers or 1,
                                self.engine.jobs))
        self._tickets[task.index] = task
        self._launchable.append(task)
        self._record(
            "job_queued", node=task.name, run=task.fingerprint,
            slots=task.slots, predicted=task.predicted,
        )

    def _launch(self, task):
        """Start one attempt of ``task`` on its claimed pool slots, on an
        idle worker or, when none is left, a freshly forked one."""
        engine = self.engine
        task.wids = self._free_wids[:task.slots]
        del self._free_wids[:task.slots]
        task.attempts += 1
        task.started = time.monotonic()
        if task.first_started is None:
            task.first_started = task.started
        self._record(
            "job_launched", node=task.name, run=task.fingerprint,
            wid=task.wid, slots=task.slots, attempt=task.attempts,
            predicted=task.predicted,
        )
        task.graph.started = True
        task.deadline = (
            task.started + engine.timeout if engine.timeout else None
        )
        task.proc = None
        while task.slots == 1 and self._idle and task.proc is None:
            proc, conn = self._idle.pop()
            if proc.is_alive():
                task.proc, task.conn = proc, conn
            else:
                self._kill(proc, conn)
        if task.proc is None:
            task.conn, child = engine._ctx.Pipe()
            # Partitioned runs (slots > 1) spawn their own PDES worker
            # processes, which daemonic children may not do — those
            # workers are daemons of this one, so they still die with
            # it; plain runs keep the stronger daemon cleanup guarantee.
            task.proc = engine._ctx.Process(
                target=_worker_main,
                args=(child, task.conn, self._runner, self._tel_queue),
                daemon=task.slots == 1,
            )
            task.proc.start()
            child.close()
        tags = None if self._tel_queue is None else dict(
            wid=task.wid, run=task.fingerprint, node=task.name,
        )
        try:
            task.conn.send((tags, task.spec.to_dict()))
        except OSError:
            pass  # the worker died: its reap retries the attempt
        self._running.append(task)

    def _reap(self, task):
        """One reap step for a running task; the terminal outcome or
        ``None`` (still running, or requeued for a retry)."""
        msg = reason = None
        # Liveness first: a worker that exited after answering has its
        # answer in the pipe by then.
        alive = task.proc.is_alive()
        if task.conn.poll():
            try:
                msg = task.conn.recv()
            except (EOFError, OSError):
                pass
        elif alive:
            if task.index not in self._cancel_requested:
                if task.deadline is None or (
                    time.monotonic() <= task.deadline
                ):
                    return None  # still working
                reason = f"timed out after {self.engine.timeout}s"
        ok = msg is not None and msg[0] == "ok"
        attempt_time = self._stop_attempt(task, reuse=ok)
        if ok:
            # A completed result always wins, even over a pending
            # cancel — exactly-once beats promptly-withdrawn.
            result = RunResult.from_dict(msg[1])
            if self.engine.cache is not None:
                self.engine.cache.put(
                    task.fingerprint, task.spec, msg[1],
                    wall_time=attempt_time,
                )
            return self._finalize(task, "ok", result=result,
                                  exec_time=attempt_time)
        if task.index in self._cancel_requested:
            return self._finalize(task, "canceled",
                                  error="canceled while running")
        if msg is not None:
            # Deterministic Python exception: retrying cannot help.
            return self._finalize(task, "failed", error=msg[1])
        return self._retry_or_fail(
            task,
            reason or f"worker died (exit code {task.proc.exitcode})",
        )

    def _stop_attempt(self, task, reuse=False) -> float:
        """End an attempt and charge its wall time.  Its worker goes back
        idle if the attempt ended ``ok`` (``reuse``), it is daemonic (not
        a partitioned run's) and the runner allows reuse; otherwise it is
        killed."""
        if (reuse and task.proc.daemon
                and getattr(self._runner, "reuse_worker", False)):
            self._idle.append((task.proc, task.conn))
        else:
            self._kill(task.proc, task.conn)
        self._running.remove(task)
        elapsed = time.monotonic() - task.started
        task.wall_time += elapsed
        return elapsed

    def _retry_or_fail(self, task, reason):
        engine = self.engine
        if task.attempts > engine.retries:
            return self._finalize(task, "failed", error=reason)
        self._release(task)
        # Exponential backoff with seeded jitter (up to +50%).
        task.not_before = time.monotonic() + (
            engine.backoff
            * (2 ** (task.attempts - 1))
            * (1.0 + 0.5 * retry_jitter(task.fingerprint, task.attempts))
        )
        self._launchable.append(task)
        self._record(
            "job_retry", node=task.name, run=task.fingerprint,
            attempt=task.attempts, reason=reason,
        )
        return None

    def _withdraw(self, task, status, error, blocker=None):
        """End a live task without a result, killing a running attempt."""
        if task in self._launchable:
            self._launchable.remove(task)
        else:
            self._stop_attempt(task)
        task.graph._withdrawn(task.index, self._finalize(
            task, status, error=error, blocker=blocker))

    @staticmethod
    def _kill(proc, conn):
        """Terminate a worker (busy, or idle in ``recv``) and join it."""
        proc.terminate()
        proc.join()
        conn.close()

    def _release(self, task):
        """Return a task's claimed worker ids to the pool."""
        if task.wids:
            self._free_wids.extend(task.wids)
            self._free_wids.sort()
        task.wids = None

    def _outcome(self, task, status, **fields) -> RunOutcome:
        """``task`` as a :class:`RunOutcome` with the given status."""
        return RunOutcome(
            index=task.index, spec=task.spec, fingerprint=task.fingerprint,
            label=task.label, name=task.name, status=status,
            attempts=task.attempts, wall_time=task.wall_time,
            wait_time=task.wait_time, worker_id=task.wid, slots=task.slots,
            **fields,
        )

    def _finalize(self, task, status, result=None, error=None,
                  exec_time=None, blocker=None):
        """End ``task`` with a terminal outcome (and free its slots)."""
        outcome = self._outcome(task, status, result=result, error=error,
                                exec_time=exec_time)
        self._release(task)
        if status == "ok" and self.engine.stats is not None:
            self.engine.stats.record(spec_signature(task.spec), exec_time)
        return self._settle(outcome, predicted=task.predicted,
                            blocker=blocker)

    def _settle(self, outcome, *, predicted=None, blocker=None):
        """Record a terminal outcome: bookkeeping and telemetry.

        Executed runs arrive through :meth:`_finalize`; job-graph
        admission settles the nodes it decides itself (cached, analysis,
        builder failures, blocked) directly.
        """
        index, status = outcome.index, outcome.status
        self._counts[status] += 1
        self._tickets.pop(index, None)
        self._cancel_requested.discard(index)
        job = dict(node=outcome.name or outcome.label,
                   run=outcome.fingerprint)
        if status == "cached":
            self._record("job_cached", **job)
        elif status == "blocked":
            self._record("job_blocked", blocker=blocker, **job)
        elif status == "failed":
            self._record(
                "job_failed", wid=outcome.worker_id,
                attempts=outcome.attempts, wall_time=outcome.wall_time,
                error=outcome.error, **job,
            )
        else:
            self._record(
                "job_done", wid=outcome.worker_id, status=status,
                attempts=outcome.attempts, wall_time=outcome.wall_time,
                exec_time=outcome.exec_time, wait_time=outcome.wait_time,
                predicted=predicted, **job,
            )
        return outcome

    def _record(self, rtype, **fields):
        """The session's one telemetry emitter (``engine_start`` first)."""
        tel = self.engine.telemetry
        if tel is None:
            return
        if not self._opened:
            self._opened = True
            tel.emit(
                "engine_start", graph=self._graph, jobs=self.engine.jobs,
                total=self._next_ticket, predicted_makespan=self._predicted,
            )
        tel.emit(rtype, **fields)

    def _drain_telemetry(self):
        if self._tel_queue is not None:
            drain_queue(self._tel_queue, self.engine.telemetry)
