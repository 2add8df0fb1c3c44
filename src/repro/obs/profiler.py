"""The run profiler: the one recorder of a simulated run.

One :class:`Profiler` is threaded through a simulated run (driver →
kernel, tasking runtime, TAMPI, simulated MPI, application) when
``RunSpec(profile=True)`` or ``RunSpec(trace=True)``.  It records, with
one guarded call per event:

* a :class:`TaskRecord` per executed task — spawn/ready/start/end/complete
  timestamps, the executing (rank, core), and the *executed* dependency
  edges (predecessor task ids), which is exactly the DAG the
  critical-path engine of :mod:`repro.obs.attribution` walks;
* per-task TAMPI release-pending intervals (body finished but bound MPI
  requests still in flight — the window ``TAMPI_Iwait`` hides);
* per-rank MPI call intervals (name, duration) and per-message network
  in-flight intervals (used to classify idle gaps as network-blocked);
* per-rank application phase spans (timestep, refine);
* a :class:`~repro.obs.metrics.MetricsRegistry` of runtime counters:
  ready-queue depth, task wait→run latency, steal/pop decisions, TAMPI
  binds, MPI wait time by call, message sizes, kernel events processed.

Every hook is a no-op branch when no profiler is installed, so profiling
off costs one ``is None`` test per event site.  With profiling *on*, the
hooks stay cheap by deferring: they only append records and bump plain
dict counters; the labelled :class:`MetricsRegistry` series are
materialized once from those records by :meth:`Profiler.finalize_metrics`
(called when the report is built), so per-event cost is a few attribute
writes rather than a registry lookup.

Every other view of a run is derived from these records: the
:class:`~repro.obs.Tracer` (Paraver export, Figs 1–3 analyses) via
:meth:`repro.obs.Tracer.from_profiler`, and the
:class:`~repro.obs.PhaseSummary`.
"""

from __future__ import annotations

from operator import attrgetter

from .metrics import MetricsRegistry

#: MPI call names whose duration is "the caller sat blocked" time.
BLOCKING_MPI_CALLS = frozenset(("Waitany", "Waitall", "Recv"))


class TaskRecord:
    """The executed lifecycle of one task (all times simulated seconds)."""

    __slots__ = (
        "tid", "rank", "core", "label", "phase",
        "t_spawn", "t_ready", "t_start", "t_end", "t_complete",
        "preds", "bound_requests",
    )

    def __init__(self, tid, rank, label, phase, t_spawn):
        self.tid = tid
        self.rank = rank
        self.core = None
        self.label = label
        self.phase = phase
        self.t_spawn = t_spawn
        self.t_ready = None
        self.t_start = None
        self.t_end = None
        self.t_complete = None
        #: Executed-DAG predecessors (task ids whose completion this task
        #: waited on).
        self.preds = []
        #: Number of MPI requests bound via TAMPI.
        self.bound_requests = 0

    @property
    def exec_time(self):
        """Body execution span (0.0 when the task never ran)."""
        if self.t_start is None or self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    @property
    def release_pending(self):
        """Seconds between body end and dependency release (TAMPI window)."""
        if self.t_end is None or self.t_complete is None:
            return 0.0
        return max(self.t_complete - self.t_end, 0.0)

    def to_dict(self) -> dict:
        return {
            "tid": self.tid,
            "rank": self.rank,
            "core": self.core,
            "label": self.label,
            "phase": self.phase,
            "t_spawn": self.t_spawn,
            "t_ready": self.t_ready,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "t_complete": self.t_complete,
            "preds": list(self.preds),
            "bound_requests": self.bound_requests,
        }


class Span:
    """One named interval on a rank: an MPI call or an application phase."""

    __slots__ = ("rank", "name", "t0", "t1")

    def __init__(self, rank, name, t0, t1):
        self.rank = rank
        self.name = name
        self.t0 = t0
        self.t1 = t1

    @property
    def duration(self):
        return self.t1 - self.t0


class Message:
    """One point-to-point message's in-flight interval (world ranks)."""

    __slots__ = ("src", "dst", "t_post", "t_arrive", "nbytes")

    def __init__(self, src, dst, t_post, t_arrive, nbytes):
        self.src = src
        self.dst = dst
        self.t_post = t_post
        self.t_arrive = t_arrive
        self.nbytes = nbytes


class Profiler:
    """Collects the records above during one simulated run.

    Each record list is appended when its interval *ends*, so ``ran``,
    ``mpi_calls`` and ``phases`` are each in end-time order (and
    :meth:`absorb` keeps them so).
    """

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.tasks = {}  # tid -> TaskRecord
        #: Executed tasks' records in the order their bodies finished.
        self.ran = []  # TaskRecord
        self.mpi_calls = []  # Span
        self.phases = []  # Span
        self._open_phases = {}  # (rank, name) -> t0
        self.messages = []  # Message
        #: Per-rank inline (untasked, main-thread) busy intervals.
        self.inline = {}  # rank -> [(t0, t1), ...]
        #: Per-rank injected-CPU-fault intervals (the extra tail the
        #: fault injector appended to a charge).
        self.fault_cpu_intervals = {}  # rank -> [(t0, t1), ...]
        #: Injected message-delay intervals, attributed to both endpoints.
        self.fault_delay_intervals = []  # (src, dst, t0, t1)
        #: Per-rank count of currently-pending TAMPI releases.
        self._pending_releases = {}
        # Hot-path accumulators, folded into ``metrics`` by
        # :meth:`finalize_metrics` (plain dict/list ops only).
        self._peak_pending = {}  # rank -> peak pending releases
        self._depth_samples = []  # ready-queue depth at each ready event
        self._pops = {}  # (rank, stolen) -> count
        self._iwait = {}  # (rank, outcome) -> count
        self._edges = []  # (tid, successor list at completion)
        self._finalized = False

    # ------------------------------------------------------------------
    # Tasking-runtime hooks (called from repro.tasking.runtime)
    # ------------------------------------------------------------------
    def task_spawned(self, task, rank, now):
        self.tasks[task.tid] = TaskRecord(
            task.tid, rank, task.label, task.phase, now
        )

    def task_ready(self, task, now, queue_depth=None):
        rec = self.tasks.get(task.tid)
        if rec is not None and rec.t_ready is None:
            rec.t_ready = now
        if queue_depth is not None:
            self._depth_samples.append(queue_depth)

    def task_ran(self, task, core, t0, t1):
        """One task body executed on ``core`` over ``[t0, t1]``."""
        rec = self.tasks.get(task.tid)
        if rec is not None:
            rec.core = core
            rec.t_start = t0
            rec.t_end = t1
            self.ran.append(rec)

    def task_completed(self, task, now):
        rec = self.tasks.get(task.tid)
        if rec is None:
            return
        rec.t_complete = now
        # Defer executed-DAG edge recording: successors only accrue while
        # a predecessor is incomplete (deps.register skips completed
        # preds), so the list referenced here is final — walking it per
        # completion would pay the whole edge count in the hot path.
        self._edges.append((task.tid, task.successors))

    def pop_decision(self, rank, stolen):
        key = (rank, stolen)
        self._pops[key] = self._pops.get(key, 0) + 1

    # ------------------------------------------------------------------
    # TAMPI hooks (called from repro.tasking.runtime's request binding
    # and repro.tampi.tampi)
    # ------------------------------------------------------------------
    def request_bound(self, task, rank, now):
        rec = self.tasks.get(task.tid)
        if rec is not None:
            rec.bound_requests += 1
        pending = self._pending_releases.get(rank, 0) + 1
        self._pending_releases[rank] = pending
        if pending > self._peak_pending.get(rank, 0):
            self._peak_pending[rank] = pending

    def request_released(self, task, rank, now):
        pending = max(self._pending_releases.get(rank, 0) - 1, 0)
        self._pending_releases[rank] = pending

    def iwait_outcome(self, rank, outcome):
        """One ``TAMPI_Iwait`` call: ``outcome`` is bound or immediate."""
        key = (rank, outcome)
        self._iwait[key] = self._iwait.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Simulated-MPI hooks (called from repro.mpi.comm)
    # ------------------------------------------------------------------
    def mpi_call(self, rank, name, t0, t1):
        self.mpi_calls.append(Span(rank, name, t0, t1))

    def message_posted(self, src, dst, t_post, t_arrive, nbytes):
        self.messages.append(Message(src, dst, t_post, t_arrive, nbytes))

    # ------------------------------------------------------------------
    # Fault-injector hooks (called from repro.faults.injectors)
    # ------------------------------------------------------------------
    def fault_cpu(self, rank, t0, t1):
        """Injected CPU-fault tail ``[t0, t1]`` on ``rank`` (evidence for
        the ``fault_noise`` idle-gap blocker class)."""
        if t1 > t0:
            self.fault_cpu_intervals.setdefault(rank, []).append((t0, t1))

    def fault_delay(self, src, dst, t0, t1):
        """Injected extra in-flight window of one message (evidence for
        the ``fault_retry`` idle-gap blocker class on both endpoints)."""
        if t1 > t0:
            self.fault_delay_intervals.append((src, dst, t0, t1))

    # ------------------------------------------------------------------
    # Application hooks (called from repro.core.app)
    # ------------------------------------------------------------------
    def inline_busy(self, rank, t0, t1):
        """Record untasked main-thread work (refine control, ACK protocol)
        so idle-gap attribution doesn't misread it as starvation."""
        if t1 > t0:
            self.inline.setdefault(rank, []).append((t0, t1))

    def phase_begin(self, rank, name, now):
        self._open_phases[(rank, name)] = now

    def phase_end(self, rank, name, now):
        """Close ``name`` on ``rank``; an unopened phase is ignored."""
        t0 = self._open_phases.pop((rank, name), None)
        if t0 is not None:
            self.phases.append(Span(rank, name, t0, now))

    # ------------------------------------------------------------------
    # Metrics materialization
    # ------------------------------------------------------------------
    def finalize_metrics(self) -> "MetricsRegistry":
        """Fold the raw records into the labelled metrics registry.

        Idempotent; called once when the :class:`~repro.obs.ProfileReport`
        is built.  Doing this here — instead of per event — is what keeps
        the profiling hooks cheap enough to leave enabled on real runs.
        ``tampi.pending_releases`` is the per-rank *peak* of concurrently
        pending releases.
        """
        if self._finalized:
            return self.metrics
        self._finalized = True
        m = self.metrics

        # Group in plain dicts first, then touch each labelled series
        # once — per-sample label canonicalization would dominate.
        spawned = {}
        bound = {}
        wait_by_phase = {}
        exec_by_phase = {}
        for rec in self.tasks.values():
            spawned[rec.rank] = spawned.get(rec.rank, 0) + 1
            if rec.bound_requests:
                bound[rec.rank] = bound.get(rec.rank, 0) + rec.bound_requests
            if rec.t_start is None:
                continue
            if rec.t_ready is not None:
                wait_by_phase.setdefault(rec.phase, []).append(
                    rec.t_start - rec.t_ready
                )
            if rec.t_end is not None:
                exec_by_phase.setdefault(rec.phase, []).append(
                    rec.t_end - rec.t_start
                )
        for rank, n in sorted(spawned.items()):
            m.inc("runtime.tasks_spawned", n, rank=rank)
        for rank, n in sorted(bound.items()):
            m.inc("tampi.requests_bound", n, rank=rank)
        for phase, values in sorted(wait_by_phase.items()):
            m.histogram("runtime.wait_to_run", phase=phase).observe_many(
                values
            )
        for phase, values in sorted(exec_by_phase.items()):
            m.histogram("runtime.exec_time", phase=phase).observe_many(
                values
            )

        m.histogram("runtime.ready_depth").observe_many(self._depth_samples)
        for (rank, stolen), n in sorted(self._pops.items()):
            m.inc(
                "runtime.pops", n,
                rank=rank, kind="steal" if stolen else "local",
            )
        for (rank, outcome), n in sorted(self._iwait.items()):
            m.inc("tampi.iwait", n, rank=rank, outcome=outcome)
        for rank, peak in sorted(self._peak_pending.items()):
            m.set_gauge("tampi.pending_releases", peak, rank=rank)

        calls_by_name = {}
        wait_by_name = {}
        for call in self.mpi_calls:
            name = call.name
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
            if name in BLOCKING_MPI_CALLS:
                wait_by_name.setdefault(name, []).append(call.t1 - call.t0)
        for name, n in sorted(calls_by_name.items()):
            m.inc("mpi.calls", n, call=name)
        for name, values in sorted(wait_by_name.items()):
            m.histogram("mpi.wait_time", call=name).observe_many(values)
        m.histogram("mpi.message_bytes").observe_many(
            [msg.nbytes for msg in self.messages]
        )
        # Guarded so clean runs' metric sets are unchanged by faults
        # existing as a feature.
        if self.fault_cpu_intervals:
            m.histogram("faults.cpu_extra").observe_many(
                [
                    t1 - t0
                    for spans in self.fault_cpu_intervals.values()
                    for (t0, t1) in spans
                ]
            )
        if self.fault_delay_intervals:
            m.histogram("faults.message_extra").observe_many(
                [t1 - t0 for (_s, _d, t0, t1) in self.fault_delay_intervals]
            )
        return m

    def absorb(self, other, tid_offset):
        """Fold another worker's profiler into this one.

        The partitioned kernel (:mod:`repro.simx.parallel`) runs one
        profiler per worker, and each worker's run numbers its tasks from
        1 (task ids are run-local), so ``other``'s task ids (and its
        recorded ``preds``) are remapped by ``tid_offset`` before merging.
        ``other`` must have had :meth:`materialize_edges` called (its
        deferred edge log still references live Task objects, which do
        not cross workers); everything else merges structurally —
        per-rank collections are disjoint across workers, record streams
        interleave by end time, counters add, peaks max.
        """
        if other._edges:
            raise ValueError(
                "materialize_edges() the source profiler before absorbing"
            )
        if self._finalized or other._finalized:
            raise ValueError("cannot absorb into/from a finalized profiler")
        for rec in other.tasks.values():
            rec.tid += tid_offset
            rec.preds = [p + tid_offset for p in rec.preds]
            self.tasks[rec.tid] = rec
        # Merge the recording-order streams by end time; the stable sort
        # keeps each side's own order and puts ``self``'s records first on
        # ties, so the merged streams read like one serial recording.
        t1 = attrgetter("t1")
        self.ran = sorted(self.ran + other.ran, key=attrgetter("t_end"))
        self.mpi_calls = sorted(self.mpi_calls + other.mpi_calls, key=t1)
        self.phases = sorted(self.phases + other.phases, key=t1)
        self.messages.extend(other.messages)
        for rank, spans in other.inline.items():
            self.inline.setdefault(rank, []).extend(spans)
        for rank, spans in other.fault_cpu_intervals.items():
            self.fault_cpu_intervals.setdefault(rank, []).extend(spans)
        self.fault_delay_intervals.extend(other.fault_delay_intervals)
        for rank, peak in other._peak_pending.items():
            if peak > self._peak_pending.get(rank, 0):
                self._peak_pending[rank] = peak
        self._depth_samples.extend(other._depth_samples)
        for key, n in other._pops.items():
            self._pops[key] = self._pops.get(key, 0) + n
        for key, n in other._iwait.items():
            self._iwait[key] = self._iwait.get(key, 0) + n
        # The only series materialized before finalize_metrics() is the
        # kernel's processed-event counter (folded by env.flush_metrics).
        self.metrics.absorb(other.metrics)

    def materialize_edges(self):
        """Resolve deferred completion edges into ``TaskRecord.preds``.

        Idempotent (the deferred log is drained); every consumer of
        ``preds`` — the critical-path engine first of all — calls this
        before reading.  Unrecorded successors (sync markers) are
        skipped.
        """
        edges, self._edges = self._edges, []
        tasks = self.tasks
        for tid, succs in edges:
            for succ in succs:
                srec = tasks.get(succ.tid)
                if srec is not None:
                    srec.preds.append(tid)

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    def executed_tasks(self) -> list:
        """Records of tasks that actually ran, in start order."""
        return sorted(
            (r for r in self.tasks.values() if r.t_start is not None),
            key=lambda r: (r.t_start, r.tid),
        )

    def ranks(self) -> list:
        ranks = {r.rank for r in self.tasks.values()}
        ranks.update(c.rank for c in self.mpi_calls)
        return sorted(ranks)
