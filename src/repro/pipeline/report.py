"""Pipeline execution entry point and structured per-node report."""

from __future__ import annotations

from dataclasses import dataclass

from ..core import RunResult
from ..exec.engine import RunOutcome, SweepEngine
from .spec import PipelineSpec


def _payload(result):
    """A node result as timing-free JSON."""
    if isinstance(result, RunResult):
        return result.to_dict()
    if isinstance(result, list) and all(
        isinstance(c, RunOutcome) for c in result
    ):
        return [_payload(c.result) if c.ok else None for c in result]
    return result


@dataclass
class PipelineReport:
    """One pipeline execution: the spec plus the engine's sweep report.

    Node outcomes keep the engine's
    :class:`~repro.exec.RunOutcome` semantics — including ``wait_time``
    (seconds between "predecessors done" and launch) and ``exec_time``
    (the successful attempt alone) — addressable by node name.
    """

    pipeline: PipelineSpec
    sweep: object  #: the engine's :class:`~repro.exec.SweepReport`

    def outcome(self, name: str):
        for o in self.sweep.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)

    def result(self, name: str):
        """The node's result payload (``None`` for failed/blocked)."""
        return self.outcome(name).result

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.sweep.outcomes)

    def raise_failures(self):
        self.sweep.raise_failures()

    # ------------------------------------------------------------------
    def results_dict(self) -> dict:
        """Node name → serialized result, **timing-free**.

        Deterministic for deterministic runs: two executions of the same
        pipeline (cached or not) produce byte-identical JSON here, which
        is exactly what the CI cache-integrity check diffs.  A fan-out
        node serializes as its children's results in order (``None``
        for a child that failed).  Timing and status live in
        :meth:`to_dict` instead.
        """
        return {o.name: _payload(o.result) for o in self.sweep.outcomes}

    def to_dict(self) -> dict:
        nodes = []
        for o in self.sweep.outcomes:
            entry = {
                "name": o.name,
                "status": o.status,
                "fingerprint": o.fingerprint,
                "attempts": o.attempts,
                "wall_time": o.wall_time,
                "wait_time": o.wait_time,
                "exec_time": o.exec_time,
                "worker_id": o.worker_id,
                "slots": o.slots,
            }
            if o.error is not None:
                entry["error"] = o.error
            nodes.append(entry)
        return {
            "pipeline": self.pipeline.name,
            "summary": self.sweep.summary(),
            "nodes": nodes,
            "results": self.results_dict(),
        }


def run_pipeline(pipeline: PipelineSpec, engine=None,
                 strict=False) -> PipelineReport:
    """Execute ``pipeline`` on ``engine`` (default: serial, no cache).

    With ``strict=True``, raises :class:`~repro.exec.SweepError` if any
    node failed (blocked nodes are reported, not raised — see
    ``SweepReport.raise_failures``).
    """
    engine = engine or SweepEngine()
    report = PipelineReport(pipeline=pipeline, sweep=engine.run(pipeline))
    if strict:
        report.raise_failures()
    return report
