"""DAG-structured experiment pipelines on top of :mod:`repro.exec`.

Quickstart::

    from repro.core import RunSpec
    from repro.exec import ResultCache, SweepEngine
    from repro.exec.stats import RunStatsStore
    from repro.pipeline import PipelineNode, PipelineSpec

    calibrate = RunSpec(variant="tampi_dataflow", num_nodes=1, ...)
    spec = PipelineSpec(name="diamond", nodes=(
        PipelineNode("calibrate", run=calibrate),
        PipelineNode("fig4", generator="bench.fig4_point",
                     after=("calibrate",)),
        PipelineNode("fig5", generator="bench.fig5_point",
                     after=("calibrate",)),
        PipelineNode("report", generator="bench.scaling_report",
                     after=("fig4", "fig5")),
    ))
    engine = SweepEngine(jobs=4, cache=ResultCache(".repro-cache"),
                         stats=RunStatsStore(".repro-stats.json"))
    report = engine.run(spec)
    report.raise_failures()

Nodes launch the moment their own predecessors complete; the ready set
is ordered critical-path-first using durations predicted from the stats
store.  ``PipelineSpec`` round-trips through JSON (generators are
referenced by registry name, never by callable).
"""

from .graph import JobGraph, JobNode
from .spec import (
    GENERATORS,
    PipelineNode,
    PipelineSpec,
    get_generator,
    register_generator,
)

__all__ = [
    "GENERATORS",
    "JobGraph",
    "JobNode",
    "PipelineNode",
    "PipelineSpec",
    "get_generator",
    "register_generator",
]
