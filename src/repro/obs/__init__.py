"""``repro.obs`` — the observability subsystem.

Metrics registry, run profiler, critical-path / idle-gap attribution,
serializable profile reports, and exporters (Chrome trace JSON, CSV,
ASCII summaries).  The profiler is a run's only recorder: it is
installed by ``RunSpec(profile=True)`` or ``RunSpec(trace=True)``, and
every hook in the instrumented layers is a no-op when neither is set.
Everything else is a view over its records, among them the
:class:`Tracer` of a traced run with the Figs 1–3 analyses
(:mod:`repro.obs.trace`) and its Paraver export and ASCII timelines
(:mod:`repro.obs.paraver`).

Above the single run sits the engine-wide telemetry layer: the
:class:`TelemetryBus` JSONL stream every engine actor emits into
(enabled via the ``REPRO_TELEMETRY`` environment or the engine's
``telemetry=`` parameter — never via the spec, so fingerprints are
untouched), the :class:`EngineReport` aggregator with ASCII and
Chrome-trace exporters, the live ``top`` view (:mod:`repro.obs.live`),
and the benchmark trend table (:mod:`repro.obs.trend`).
"""

from .attribution import (
    BLOCKERS,
    COMM_BLOCKED,
    comm_blocked_fraction,
    critical_path,
    idle_gaps,
    merge_intervals,
    overlap_length,
    phase_overlap_fraction,
)
from .engine_report import EngineReport
from .export import (
    ascii_summary,
    chrome_trace_events,
    compare_reports,
    metrics_csv,
    metrics_json,
    pipeline_summary,
    write_chrome_trace,
)
from .metrics import MetricsRegistry
from .paraver import legend, render_ascii, write_pcf, write_prv
from .profiler import Profiler, TaskRecord
from .report import PhaseSummary, ProfileReport, build_profile_report
from .telemetry import (
    TELEMETRY_ENV,
    QueueEmitter,
    TelemetryBus,
    TelemetryError,
    drain_queue,
    iter_records,
    read_records,
    validate_file,
    validate_record,
)
from .trace import (
    TraceEvent,
    Tracer,
    UtilizationReport,
    core_utilization,
    mpi_time_by_call,
    overlap_fraction,
    phase_time,
    task_time_by_phase,
    unpack_follows_gap_fraction,
)

__all__ = [
    "BLOCKERS",
    "COMM_BLOCKED",
    "EngineReport",
    "MetricsRegistry",
    "PhaseSummary",
    "ProfileReport",
    "Profiler",
    "QueueEmitter",
    "TELEMETRY_ENV",
    "TaskRecord",
    "TelemetryBus",
    "TelemetryError",
    "TraceEvent",
    "Tracer",
    "UtilizationReport",
    "ascii_summary",
    "build_profile_report",
    "chrome_trace_events",
    "comm_blocked_fraction",
    "compare_reports",
    "core_utilization",
    "critical_path",
    "drain_queue",
    "idle_gaps",
    "iter_records",
    "legend",
    "merge_intervals",
    "metrics_csv",
    "metrics_json",
    "mpi_time_by_call",
    "overlap_fraction",
    "overlap_length",
    "phase_overlap_fraction",
    "phase_time",
    "pipeline_summary",
    "read_records",
    "render_ascii",
    "task_time_by_phase",
    "unpack_follows_gap_fraction",
    "validate_file",
    "validate_record",
    "write_chrome_trace",
    "write_pcf",
    "write_prv",
]
