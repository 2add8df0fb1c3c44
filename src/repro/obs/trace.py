"""The trace view of a run and the analyses behind the paper's Figs 1–3.

A :class:`Tracer` is a read-only, Extrae-like timeline over the run's
:class:`~repro.obs.Profiler` records (task executions, MPI calls, phase
spans).  It is plain data: :meth:`Tracer.to_rows` / :meth:`Tracer.from_rows`
round-trip it through JSON exactly, so a traced
:class:`~repro.core.results.RunResult` crosses process boundaries and
lives in the result cache like any other.

The figures are Paraver *views*; what they communicate is quantitative:

* Fig 1 — refinement vs non-refinement phase layout; the non-refinement
  region of TAMPI+OSS is ~1.3× shorter than MPI-only's on 2 nodes;
* Fig 2 — the MPI-only timeline alternates computation with
  ``MPI_Waitany``-dominated communication windows;
* Fig 3 — the taskified timeline is dense (cores almost always running
  tasks, phases overlapping) with only occasional idle gaps under ~3 ms,
  typically followed by unpack-then-stencil sequences.

The analyses below compute those quantities from a :class:`Tracer`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .attribution import merge_intervals, overlap_length


class TraceEvent(NamedTuple):
    """One traced interval on a rank (and optionally a core)."""

    rank: int
    core: int  # -1 = the rank's main thread
    kind: str  # "task" | "mpi" | "phase"
    name: str
    phase: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """A read-only, Extrae-like timeline view of one run's events.

    Mirrors what Extrae gives the paper's authors: per-thread timelines of
    task executions and MPI calls, which Paraver then renders (Figs 1–3).
    The events themselves are recorded by the run's
    :class:`~repro.obs.Profiler`; :meth:`from_profiler` derives the view.
    """

    def __init__(self, events=()):
        self.events = list(events)

    def __eq__(self, other):
        if not isinstance(other, Tracer):
            return NotImplemented
        return self.events == other.events

    @classmethod
    def from_profiler(cls, profiler) -> "Tracer":
        """Task, MPI and phase events of ``profiler`` in (end time, rank)
        order.

        Each record stream is in recording order, which is end-time
        order, so the stable sort merges the three streams without
        reordering the events of one kind on one rank.  Ranks break
        end-time ties: one rank records in the same order at any
        ``pdes_workers`` count, so a partitioned run's trace is the
        serial run's, event for event.
        """
        events = [
            TraceEvent(r.rank, r.core, "task", r.label, r.phase,
                       r.t_start, r.t_end)
            for r in profiler.ran
        ]
        events += [
            TraceEvent(c.rank, -1, "mpi", c.name, "mpi", c.t0, c.t1)
            for c in profiler.mpi_calls
        ]
        events += [
            TraceEvent(p.rank, -1, "phase", p.name, p.name, p.t0, p.t1)
            for p in profiler.phases
        ]
        events.sort(key=attrgetter("t1", "rank"))
        return cls(events)

    def to_rows(self) -> list:
        """Events as compact JSON rows ``[rank, core, kind, name, phase,
        t0, t1]`` (inverse of :meth:`from_rows`)."""
        return [list(e) for e in self.events]

    @classmethod
    def from_rows(cls, rows) -> "Tracer":
        return cls(map(TraceEvent._make, rows))

    # ------------------------------------------------------------------
    def by_kind(self, kind):
        return [e for e in self.events if e.kind == kind]

    def for_rank(self, rank):
        return [e for e in self.events if e.rank == rank]

    def phases(self, phase):
        return [e for e in self.events if e.kind == "phase" and e.name == phase]

    def to_records(self):
        """Events as plain dicts (for DataFrame-style analysis or JSON)."""
        return [{**e._asdict(), "duration": e.duration} for e in self.events]

    def summarize(self) -> str:
        """One-paragraph text summary of the trace contents."""
        if not self.events:
            return "empty trace"
        kinds = {}
        for e in self.events:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        t0 = min(e.t0 for e in self.events)
        t1 = max(e.t1 for e in self.events)
        ranks = len({e.rank for e in self.events})
        parts = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        return (
            f"{len(self.events)} events ({parts}) across {ranks} ranks, "
            f"window [{t0:.6f}, {t1:.6f}] s"
        )


# ----------------------------------------------------------------------
# Analyses (Figs 1–3)
# ----------------------------------------------------------------------
def duration_sums(spans) -> dict:
    """``{key: total t1 - t0}`` over ``(key, t0, t1)`` spans, summed in
    iteration order — the one implementation behind :func:`phase_time`,
    :func:`mpi_time_by_call`, :func:`task_time_by_phase` and
    :class:`~repro.obs.PhaseSummary`."""
    totals = {}
    for key, t0, t1 in spans:
        totals[key] = totals.get(key, 0.0) + (t1 - t0)
    return totals


def phase_time(tracer, phase_name) -> float:
    """Total duration of a named phase on rank 0 (paper's methodology)."""
    return duration_sums(
        (e.name, e.t0, e.t1) for e in tracer.phases(phase_name) if e.rank == 0
    ).get(phase_name, 0.0)


def mpi_time_by_call(tracer, rank=None) -> dict:
    """Total time per MPI call name (e.g. Waitany dominance in Fig 2)."""
    return duration_sums(
        (e.name, e.t0, e.t1)
        for e in tracer.by_kind("mpi")
        if rank is None or e.rank == rank
    )


def task_time_by_phase(tracer) -> dict:
    """Total task execution time per phase tag (stencil, pack, ...)."""
    return duration_sums((e.phase, e.t0, e.t1) for e in tracer.by_kind("task"))


@dataclass
class UtilizationReport:
    """Core business over a window: the 'density' of Fig 3."""

    window: tuple
    busy_fraction: float  # mean fraction of core-time running tasks
    gaps: list  # idle gaps (start, end) aggregated across cores
    max_gap: float


def core_utilization(tracer, rank, num_cores, t0, t1) -> UtilizationReport:
    """Busy fraction and idle gaps for one rank's cores in [t0, t1]."""
    if t1 <= t0:
        raise ValueError("empty window")
    spans_by_core = defaultdict(list)
    for e in tracer.by_kind("task"):
        if e.rank != rank or e.t1 <= t0 or e.t0 >= t1:
            continue
        spans_by_core[e.core].append((max(e.t0, t0), min(e.t1, t1)))

    busy_total = 0.0
    gaps = []
    for core in range(num_cores):
        merged = merge_intervals(spans_by_core.get(core, ()))
        busy_total += sum(b - a for a, b in merged)
        cursor = t0
        for a, b in merged:
            if a > cursor:
                gaps.append((cursor, a))
            cursor = b
        if cursor < t1:
            gaps.append((cursor, t1))

    window_span = (t1 - t0) * num_cores
    max_gap = max((b - a for a, b in gaps), default=0.0)
    return UtilizationReport(
        window=(t0, t1),
        busy_fraction=busy_total / window_span,
        gaps=gaps,
        max_gap=max_gap,
    )


def overlap_fraction(tracer, rank, phase_a, phase_b) -> float:
    """Fraction of phase-a task time that coincides with phase-b tasks.

    Quantifies "tasks from different phases are overlapping" (Fig 3): for
    the given rank, how much of the time some ``phase_a`` task is running
    is *also* covered by a concurrently running ``phase_b`` task.
    """
    def intervals(phase):
        return merge_intervals(
            (e.t0, e.t1)
            for e in tracer.by_kind("task")
            if e.rank == rank and e.phase == phase
        )

    ia = intervals(phase_a)
    ib = intervals(phase_b)
    total_a = sum(b - a for a, b in ia)
    if total_a == 0:
        return 0.0
    return sum(overlap_length(span, ib) for span in ia) / total_a


def unpack_follows_gap_fraction(tracer, rank, gap_min=0.0) -> float:
    """Fraction of idle gaps immediately followed by an unpack task.

    Fig 3's observation: after blank spaces, unpack tasks run first (data
    just arrived), then stencils.
    """
    tasks = sorted(
        (e for e in tracer.by_kind("task") if e.rank == rank),
        key=lambda e: (e.core, e.t0),
    )
    by_core = defaultdict(list)
    for e in tasks:
        by_core[e.core].append(e)

    gaps = 0
    followed = 0
    for core_tasks in by_core.values():
        for prev, nxt in zip(core_tasks, core_tasks[1:]):
            gap = nxt.t0 - prev.t1
            if gap > gap_min:
                gaps += 1
                if "unpack" in nxt.phase or "intra" in nxt.phase:
                    followed += 1
    if gaps == 0:
        return 0.0
    return followed / gaps
