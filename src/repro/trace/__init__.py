"""``repro.trace`` — Extrae/Paraver-like tracing and trace analysis.

Backs the paper's Figures 1–3: the :class:`Tracer` timeline view over a
run's :class:`~repro.obs.Profiler` records, Paraver ``.prv``/``.pcf``
export, an ASCII timeline renderer, and the quantitative analyses (phase
times, MPI-call breakdown, core utilization, idle gaps, cross-phase
overlap).
"""

from .analysis import (
    UtilizationReport,
    core_utilization,
    mpi_time_by_call,
    overlap_fraction,
    phase_time,
    task_time_by_phase,
    unpack_follows_gap_fraction,
)
from .events import TraceEvent, Tracer
from .paraver import legend, render_ascii, write_pcf, write_prv

__all__ = [
    "TraceEvent",
    "Tracer",
    "UtilizationReport",
    "core_utilization",
    "legend",
    "mpi_time_by_call",
    "overlap_fraction",
    "phase_time",
    "render_ascii",
    "task_time_by_phase",
    "unpack_follows_gap_fraction",
    "write_pcf",
    "write_prv",
]
