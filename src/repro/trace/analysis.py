"""Trace analyses backing the paper's Figures 1–3.

The figures are Paraver *views*; what they communicate is quantitative:

* Fig 1 — refinement vs non-refinement phase layout; the non-refinement
  region of TAMPI+OSS is ~1.3× shorter than MPI-only's on 2 nodes;
* Fig 2 — the MPI-only timeline alternates computation with
  ``MPI_Waitany``-dominated communication windows;
* Fig 3 — the taskified timeline is dense (cores almost always running
  tasks, phases overlapping) with only occasional idle gaps under ~3 ms,
  typically followed by unpack-then-stencil sequences.

This module computes those quantities from a :class:`Tracer`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..obs.attribution import merge_intervals, overlap_length


def phase_time(tracer, phase_name) -> float:
    """Total duration of a named phase on rank 0 (paper's methodology)."""
    spans = [e for e in tracer.phases(phase_name) if e.rank == 0]
    return sum(e.duration for e in spans)


def mpi_time_by_call(tracer, rank=None) -> dict:
    """Total time per MPI call name (e.g. Waitany dominance in Fig 2)."""
    totals = defaultdict(float)
    for e in tracer.by_kind("mpi"):
        if rank is None or e.rank == rank:
            totals[e.name] += e.duration
    return dict(totals)


def task_time_by_phase(tracer) -> dict:
    """Total task execution time per phase tag (stencil, pack, ...)."""
    totals = defaultdict(float)
    for e in tracer.by_kind("task"):
        totals[e.phase] += e.duration
    return dict(totals)


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
        spans = sorted(spans_by_core.get(core, []))
        merged = []
        for s in spans:
            if merged and s[0] <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], s[1]))
            else:
                merged.append(s)
        busy = sum(b - a for a, b in merged)
        busy_total += busy
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
