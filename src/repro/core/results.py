"""Run results and their typed, JSON-round-trippable statistics.

:class:`RunResult` carries the quantities the paper reports plus typed
summaries of the simulated-MPI and tasking-runtime counters.  Everything
serializes losslessly through :meth:`RunResult.to_dict` /
:meth:`RunResult.from_dict` — float64 values survive JSON exactly — so
results can cross process boundaries and live in the on-disk cache of
:mod:`repro.exec`.  The one attachment that does not is the run's
:class:`~repro.obs.Profiler`, which is excluded from serialization and
from equality.  The views over its records serialize: the
:class:`~repro.obs.Tracer` of a traced run (as compact event rows), a
compact :class:`~repro.obs.PhaseSummary` whenever the run traced or
profiled, and a full :class:`~repro.obs.ProfileReport` when
``RunSpec(profile=True)``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..obs.report import PhaseSummary, ProfileReport
from ..obs.trace import Tracer


@dataclass
class CommStats:
    """Summary of one simulated MPI world's communication counters."""

    messages: int = 0
    bytes_sent: int = 0
    intra_node_messages: int = 0
    inter_node_messages: int = 0
    collectives: int = 0

    @classmethod
    def from_world(cls, stats) -> "CommStats":
        """Snapshot the live :class:`~repro.mpi.comm.WorldStats` counters."""
        return cls(
            messages=stats.messages,
            bytes_sent=stats.bytes_sent,
            intra_node_messages=stats.intra_node_messages,
            inter_node_messages=stats.inter_node_messages,
            collectives=stats.collectives,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CommStats":
        return cls(**data)


@dataclass
class RuntimeStats:
    """Summary of one rank's tasking-runtime counters."""

    tasks_spawned: int = 0
    tasks_executed: int = 0
    locality_hits: int = 0
    steals: int = 0
    taskwaits: int = 0
    per_phase_time: dict = field(default_factory=dict)
    hits_by_phase: dict = field(default_factory=dict)
    tasks_by_phase: dict = field(default_factory=dict)

    @classmethod
    def from_runtime(cls, stats) -> "RuntimeStats":
        """Snapshot a live :class:`repro.tasking.runtime.RuntimeStats`."""
        return cls(
            tasks_spawned=stats.tasks_spawned,
            tasks_executed=stats.tasks_executed,
            locality_hits=stats.locality_hits,
            steals=stats.steals,
            taskwaits=stats.taskwaits,
            per_phase_time=dict(stats.per_phase_time),
            hits_by_phase=dict(stats.hits_by_phase),
            tasks_by_phase=dict(stats.tasks_by_phase),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RuntimeStats":
        return cls(**data)


def _checksum_to_json(entry):
    t, total, drift = entry
    return [float(t), np.asarray(total, dtype=np.float64).tolist(),
            float(drift)]


def _checksum_from_json(entry):
    t, total, drift = entry
    return (float(t), np.asarray(total, dtype=np.float64), float(drift))


@dataclass(eq=False)
class RunResult:
    """Metrics of one simulated run (the quantities the paper reports)."""

    variant: str
    num_nodes: int
    ranks_per_node: int
    #: Total simulated execution time (seconds).
    total_time: float
    #: Simulated time rank 0 spent in refinement phases.
    refine_time: float
    #: Total stencil floating-point operations (all ranks).
    flops: float
    #: Final number of mesh blocks.
    num_blocks: int
    #: max/mean per-rank block count at the end.
    imbalance: float
    #: Global checksum log: (time, per-variable totals, drift) tuples.
    checksums: list = field(default_factory=list)
    #: Simulated-MPI communication summary.
    comm_stats: CommStats = None
    #: Tasking-runtime summary per rank.
    runtime_stats: list = field(default_factory=list)
    #: Compact phase-time summary of the profiler's records (present when
    #: the run traced or profiled; serialized, unlike the profiler).
    phase_summary: PhaseSummary = None
    #: Full profiling report (present when ``RunSpec(profile=True)``).
    profile: ProfileReport = None
    #: Injected-fault ledger (present when the run had an active
    #: :class:`~repro.faults.FaultPlan`): the
    #: :class:`~repro.faults.FaultStats` counters as a plain dict.
    fault_stats: dict = None
    #: :class:`~repro.obs.Tracer` view of the run's records (present
    #: when ``RunSpec(trace=True)``; serialized as ``"trace"`` rows).
    tracer: Tracer = None
    #: The run's :class:`~repro.obs.Profiler` (present when the run was
    #: traced or profiled in-process; never serialized, ignored by
    #: equality — the serializable digest is :attr:`profile`).  Needed by
    #: exporters that read raw records, e.g. the Chrome trace writer.
    profiler: object = None

    @property
    def non_refine_time(self) -> float:
        return self.total_time - self.refine_time

    @property
    def gflops(self) -> float:
        """Throughput as the paper computes it: stencil FLOPs / total time."""
        if self.total_time <= 0:
            return 0.0
        return self.flops / self.total_time / 1e9

    # ------------------------------------------------------------------
    def __eq__(self, other):
        """Field equality modulo the live profiler (checksum arrays
        exact)."""
        if not isinstance(other, RunResult):
            return NotImplemented
        for f in fields(self):
            if f.name in ("profiler", "checksums"):
                continue
            if getattr(self, f.name) != getattr(other, f.name):
                return False
        if len(self.checksums) != len(other.checksums):
            return False
        for (ta, ca, da), (tb, cb, db) in zip(
            self.checksums, other.checksums
        ):
            if ta != tb or da != db or not np.array_equal(
                np.asarray(ca), np.asarray(cb)
            ):
                return False
        return True

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible dict (inverse of :meth:`from_dict`).

        The profiler is intentionally not included; the views over it
        (``phase_summary``, ``profile``, ``trace``) are emitted only when
        present, so dicts of unobserved runs — and the goldens built from
        them — are unchanged by these fields.
        """
        d = {
            "variant": self.variant,
            "num_nodes": self.num_nodes,
            "ranks_per_node": self.ranks_per_node,
            "total_time": self.total_time,
            "refine_time": self.refine_time,
            "flops": self.flops,
            "num_blocks": self.num_blocks,
            "imbalance": self.imbalance,
            "checksums": [_checksum_to_json(c) for c in self.checksums],
            "comm_stats": (
                self.comm_stats.to_dict() if self.comm_stats else None
            ),
            "runtime_stats": [s.to_dict() for s in self.runtime_stats],
        }
        if self.phase_summary is not None:
            d["phase_summary"] = self.phase_summary.to_dict()
        if self.profile is not None:
            d["profile"] = self.profile.to_dict()
        if self.fault_stats is not None:
            d["fault_stats"] = dict(self.fault_stats)
        if self.tracer is not None:
            d["trace"] = self.tracer.to_rows()
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        comm = data.get("comm_stats")
        return cls(
            variant=data["variant"],
            num_nodes=data["num_nodes"],
            ranks_per_node=data["ranks_per_node"],
            total_time=data["total_time"],
            refine_time=data["refine_time"],
            flops=data["flops"],
            num_blocks=data["num_blocks"],
            imbalance=data["imbalance"],
            checksums=[
                _checksum_from_json(c) for c in data.get("checksums", [])
            ],
            comm_stats=CommStats.from_dict(comm) if comm else None,
            runtime_stats=[
                RuntimeStats.from_dict(s)
                for s in data.get("runtime_stats", [])
            ],
            phase_summary=(
                PhaseSummary.from_dict(data["phase_summary"])
                if data.get("phase_summary") is not None
                else None
            ),
            profile=(
                ProfileReport.from_dict(data["profile"])
                if data.get("profile") is not None
                else None
            ),
            fault_stats=data.get("fault_stats"),
            tracer=(
                Tracer.from_rows(data["trace"])
                if data.get("trace") is not None
                else None
            ),
        )
