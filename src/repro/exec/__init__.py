"""``repro.exec`` — parallel, cached execution of experiment job graphs.

Every paper artifact (Tables I–II, Figs 1–5, the ablations) is a sweep of
deterministic runs — flat and independent in the simplest case, a
dependency DAG (see :mod:`repro.pipeline`) in the general one.  This
package turns :class:`~repro.core.RunSpec`\\ s into results: dispatch
across a worker-process pool with no level barriers and
critical-path-first ready ordering, a content-addressed on-disk result
cache keyed by spec fingerprint, a persistent run-duration stats store
keyed by *normalized* spec signature (drives the duration predictions),
per-run timeout and crash retry with exponential backoff, and a
telemetry record per job transition.  ``repro.bench`` and the CLI run it.
Whatever the source — a list of specs, a labelled
:meth:`~repro.pipeline.JobGraph.from_specs` sweep, a pipeline, or a
serve-broker execution — work enters the engine one way: as a job graph.

    from repro.exec import ResultCache, RunStatsStore, SweepEngine

    engine = SweepEngine(jobs=4, cache=ResultCache(".repro-cache"),
                         stats=RunStatsStore(".repro-stats.json"))
    report = engine.run([spec1, spec2, ...])   # or a PipelineSpec
    report.raise_failures()
    results = report.results          # RunResults, input order
"""

from .cache import CacheEntry, ResultCache
from .engine import (
    EngineSession,
    RunOutcome,
    SweepEngine,
    SweepError,
    SweepReport,
    retry_jitter,
    run_spec_dict,
)
from .stats import RunStatsStore, fallback_cost, spec_signature

__all__ = [
    "CacheEntry",
    "EngineSession",
    "ResultCache",
    "RunOutcome",
    "RunStatsStore",
    "SweepEngine",
    "SweepError",
    "SweepReport",
    "fallback_cost",
    "retry_jitter",
    "run_spec_dict",
    "spec_signature",
]
