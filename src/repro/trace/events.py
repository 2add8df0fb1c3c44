"""Trace event model and the tracer (an Extrae-like view of a run)."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter


@dataclass(frozen=True)
class TraceEvent:
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

    @classmethod
    def from_profiler(cls, profiler) -> "Tracer":
        """Task, MPI and phase events of ``profiler`` in end-time order.

        Each record stream is in recording order, which is end-time
        order, so the stable sort merges the three streams without
        reordering the events of one kind.
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
        events.sort(key=attrgetter("t1"))
        return cls(events)

    # ------------------------------------------------------------------
    def by_kind(self, kind):
        return [e for e in self.events if e.kind == kind]

    def for_rank(self, rank):
        return [e for e in self.events if e.rank == rank]

    def phases(self, phase):
        return [e for e in self.events if e.kind == "phase" and e.name == phase]

    def to_records(self):
        """Events as plain dicts (for DataFrame-style analysis or JSON)."""
        return [
            {
                "rank": e.rank,
                "core": e.core,
                "kind": e.kind,
                "name": e.name,
                "phase": e.phase,
                "t0": e.t0,
                "t1": e.t1,
                "duration": e.duration,
            }
            for e in self.events
        ]

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
