"""Serializable profiling artifacts: :class:`ProfileReport` and
:class:`PhaseSummary`.

Both are plain-data containers with strict JSON round-trips (no numpy,
no integer dict keys), so they ride inside
:class:`~repro.core.results.RunResult` through the process pool, the
on-disk :class:`~repro.exec.ResultCache`, and sweeps — the evidence a
run produces is no longer discarded with the live profiler.

* :class:`PhaseSummary` is the compact always-affordable summary (phase
  wall times, MPI time by call, task time by phase) derived from the
  profiler's records; it is attached whenever a run traces or profiles.
* :class:`ProfileReport` is the full product of ``RunSpec(profile=True)``:
  the phase summary plus the critical path, the classified idle-gap
  taxonomy, the cross-phase overlap fraction, and the metrics registry
  dump.  :func:`repro.obs.export.compare_reports` renders two of them
  side by side — the quantitative form of the paper's Fig 2 vs Fig 3
  contrast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attribution import (
    comm_blocked_fraction,
    critical_path,
    idle_gaps,
    phase_overlap_fraction,
)
from .metrics import MetricsRegistry
from .trace import duration_sums


@dataclass
class PhaseSummary:
    """Compact summary of a run's records that serializes with the result."""

    #: Rank-0 wall seconds per phase (timestep, refine, ...).
    phase_times: dict = field(default_factory=dict)
    #: Seconds per MPI call name, all ranks (Waitany dominance in Fig 2).
    mpi_time_by_call: dict = field(default_factory=dict)
    #: Task execution seconds per phase tag (stencil, pack, ...).
    task_time_by_phase: dict = field(default_factory=dict)
    #: Task, MPI and phase events recorded (the trace view's length).
    events: int = 0

    @classmethod
    def from_profiler(cls, profiler) -> "PhaseSummary":
        """Sum the profiler's records in recording order.

        Same quantities, by the same :func:`~repro.obs.trace.duration_sums`,
        as :func:`~repro.obs.trace.phase_time` (rank 0, the paper's
        methodology), :func:`~repro.obs.trace.mpi_time_by_call` and
        :func:`~repro.obs.trace.task_time_by_phase`, without building the
        trace view.
        """
        phase_times = duration_sums(
            (p.name, p.t0, p.t1) for p in profiler.phases if p.rank == 0
        )
        mpi_times = duration_sums(
            (c.name, c.t0, c.t1) for c in profiler.mpi_calls
        )
        task_times = duration_sums(
            (r.phase, r.t_start, r.t_end) for r in profiler.ran
        )
        return cls(
            phase_times=dict(sorted(phase_times.items())),
            mpi_time_by_call=dict(sorted(mpi_times.items())),
            task_time_by_phase=dict(sorted(task_times.items())),
            events=(
                len(profiler.ran)
                + len(profiler.mpi_calls)
                + len(profiler.phases)
            ),
        )

    def to_dict(self) -> dict:
        return {
            "phase_times": dict(self.phase_times),
            "mpi_time_by_call": dict(self.mpi_time_by_call),
            "task_time_by_phase": dict(self.task_time_by_phase),
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseSummary":
        return cls(
            phase_times=dict(data.get("phase_times", {})),
            mpi_time_by_call=dict(data.get("mpi_time_by_call", {})),
            task_time_by_phase=dict(data.get("task_time_by_phase", {})),
            events=data.get("events", 0),
        )


@dataclass
class ProfileReport:
    """Everything a profiled run learned about itself (JSON-stable)."""

    variant: str
    num_nodes: int
    ranks_per_node: int
    #: Simulated makespan (seconds).
    makespan: float
    #: Task-executing cores per rank.
    cores_per_rank: int
    #: Number of executed tasks across all ranks.
    tasks: int
    #: Point-to-point messages recorded.
    messages: int
    phase_summary: PhaseSummary = field(default_factory=PhaseSummary)
    #: Fraction of stencil-task time overlapped by communication tasks.
    overlap_fraction: float = 0.0
    #: Fraction of core-time blocked on communication (mpi_wait +
    #: tampi_release + network idle).
    comm_blocked_fraction: float = 0.0
    #: :func:`repro.obs.attribution.critical_path` output.
    critical_path: dict = field(default_factory=dict)
    #: :func:`repro.obs.attribution.idle_gaps` output.
    idle: dict = field(default_factory=dict)
    #: :meth:`MetricsRegistry.to_dict` dump.
    metrics: list = field(default_factory=list)
    #: Injected-vs-observed fault accounting (empty on clean runs and
    #: omitted from :meth:`to_dict`, keeping existing reports stable):
    #: the injector's :class:`~repro.faults.FaultStats` ledger under
    #: ``"injected"`` plus the observed ``fault_noise``/``fault_retry``
    #: idle seconds under ``"observed"``.
    faults: dict = field(default_factory=dict)
    #: Partitioned-kernel accounting (empty on serial runs and omitted
    #: from :meth:`to_dict`, keeping existing reports stable): worker
    #: count, window count, lookahead, and per-worker wall-clock
    #: ``stall_wall_seconds`` (time spent blocked at window barriers —
    #: the new idle blocker of partitioned runs) next to
    #: ``elapsed_wall_seconds``.
    pdes: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def critical_path_length(self) -> float:
        return self.critical_path.get("length", 0.0)

    @property
    def busy_fraction(self) -> float:
        return self.idle.get("busy_fraction", 0.0)

    def metrics_registry(self) -> MetricsRegistry:
        """The metrics dump rehydrated into a queryable registry."""
        return MetricsRegistry.from_dict(self.metrics)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d = {
            "variant": self.variant,
            "num_nodes": self.num_nodes,
            "ranks_per_node": self.ranks_per_node,
            "makespan": self.makespan,
            "cores_per_rank": self.cores_per_rank,
            "tasks": self.tasks,
            "messages": self.messages,
            "phase_summary": self.phase_summary.to_dict(),
            "overlap_fraction": self.overlap_fraction,
            "comm_blocked_fraction": self.comm_blocked_fraction,
            "critical_path": dict(self.critical_path),
            "idle": dict(self.idle),
            "metrics": list(self.metrics),
        }
        if self.faults:
            d["faults"] = dict(self.faults)
        if self.pdes:
            d["pdes"] = dict(self.pdes)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileReport":
        return cls(
            variant=data["variant"],
            num_nodes=data["num_nodes"],
            ranks_per_node=data["ranks_per_node"],
            makespan=data["makespan"],
            cores_per_rank=data["cores_per_rank"],
            tasks=data["tasks"],
            messages=data["messages"],
            phase_summary=PhaseSummary.from_dict(
                data.get("phase_summary", {})
            ),
            overlap_fraction=data.get("overlap_fraction", 0.0),
            comm_blocked_fraction=data.get("comm_blocked_fraction", 0.0),
            critical_path=dict(data.get("critical_path", {})),
            idle=dict(data.get("idle", {})),
            metrics=list(data.get("metrics", [])),
            faults=dict(data.get("faults", {})),
            pdes=dict(data.get("pdes", {})),
        )


def build_profile_report(
    profiler, rs, num_ranks, cores_per_rank, makespan,
    fault_stats=None, pdes=None,
) -> ProfileReport:
    """Assemble a :class:`ProfileReport` from one finished run.

    ``rs`` is the *resolved* :class:`~repro.core.RunSpec`.
    ``fault_stats`` is the run's :class:`~repro.faults.FaultStats` ledger
    when its fault plan was active — it is embedded next to the
    observed fault-blocker idle seconds so injected and observed delay
    can be reconciled.  ``pdes``
    is the partitioned-run accounting dict of
    :func:`repro.simx.parallel.run_partitioned`, absent on serial runs.
    """
    cores_by_rank = {rank: cores_per_rank for rank in range(num_ranks)}
    idle = idle_gaps(profiler, cores_by_rank, makespan)
    faults = {}
    if fault_stats is not None:
        by_blocker = idle.get("by_blocker", {})
        faults = {
            "injected": fault_stats.to_dict(),
            "observed": {
                "fault_noise": by_blocker.get("fault_noise", 0.0),
                "fault_retry": by_blocker.get("fault_retry", 0.0),
            },
        }
    executed = sum(
        1 for r in profiler.tasks.values() if r.t_start is not None
    )
    return ProfileReport(
        variant=rs.variant,
        num_nodes=rs.num_nodes,
        ranks_per_node=rs.ranks_per_node,
        makespan=makespan,
        cores_per_rank=cores_per_rank,
        tasks=executed,
        messages=len(profiler.messages),
        phase_summary=PhaseSummary.from_profiler(profiler),
        overlap_fraction=phase_overlap_fraction(profiler),
        comm_blocked_fraction=comm_blocked_fraction(idle),
        critical_path=critical_path(profiler),
        idle=idle,
        metrics=profiler.finalize_metrics().to_dict(),
        faults=faults,
        pdes=dict(pdes) if pdes else {},
    )
