"""Schedule-perturbation fuzzing: N seeds, one answer.

The data-flow port is only correct if its physics is invariant under *any*
legal task schedule.  The ``"fuzz"`` scheduler
(:mod:`repro.tasking.runtime`) randomizes every free scheduling choice —
ready-queue pop order, queue placement, released-successor order (which is
where TAMPI completion interleavings funnel through) — from a seeded
stream, so each seed explores a different legal schedule while remaining
perfectly reproducible.

:func:`fuzz_sweep` runs a :class:`~repro.core.RunSpec` under N fuzz seeds
(through the PR-1 :class:`~repro.exec.SweepEngine`, so seeds run in
parallel) plus the spec's own deterministic scheduler as the baseline, and
asserts the schedule-invariant quantities are *bitwise identical* across
all of them:

* the full checksum log (values and count),
* the final block count and imbalance,
* total stencil FLOPs,
* message / collective counts and bytes on the wire.

Simulated *times* (total, per-phase) legitimately differ across schedules
and are not compared.  Optionally a reference result from another variant
(canonically MPI-only) is compared against with a relative tolerance —
different rank decompositions reduce in different orders, so bitwise
equality across variants is not required, agreement to ~1e-12 is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


class ScheduleVarianceError(RuntimeError):
    """Raised when fuzzed schedules produced diverging results."""


def invariants(result) -> dict:
    """The schedule-invariant fingerprint of a :class:`RunResult`."""
    comm = result.comm_stats
    return {
        "num_blocks": result.num_blocks,
        "imbalance": result.imbalance,
        "flops": result.flops,
        "checksum_count": len(result.checksums),
        "checksums": [
            np.asarray(c, dtype=np.float64).tobytes()
            for _t, c, _d in result.checksums
        ],
        "messages": comm.messages if comm else 0,
        "bytes_sent": comm.bytes_sent if comm else 0,
        "collectives": comm.collectives if comm else 0,
    }


def _diff_invariants(label, base, other) -> list:
    """Human-readable mismatches of ``other`` against ``base``."""
    problems = []
    for key in ("num_blocks", "imbalance", "flops", "checksum_count",
                "messages", "bytes_sent", "collectives"):
        if base[key] != other[key]:
            problems.append(
                f"{label}: {key} diverged "
                f"(baseline {base[key]!r} != {other[key]!r})"
            )
    if base["checksum_count"] == other["checksum_count"]:
        for i, (a, b) in enumerate(zip(base["checksums"],
                                       other["checksums"])):
            if a != b:
                problems.append(
                    f"{label}: checksum #{i} diverged bitwise"
                )
    return problems


@dataclass
class FuzzReport:
    """Outcome of one schedule-perturbation sweep."""

    spec: object
    seeds: tuple
    #: RunResult per seed (seed order; None for failed runs).
    results: list = field(default_factory=list)
    #: Baseline (deterministic-scheduler) RunResult.
    baseline: object = None
    mismatches: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.failures

    def summary(self) -> str:
        if self.ok:
            return (
                f"fuzz: {len(self.seeds)} seeds, all invariants identical "
                f"to the {self.spec.scheduler!r} baseline"
            )
        lines = [
            f"fuzz: {len(self.mismatches)} mismatch(es), "
            f"{len(self.failures)} failed run(s) over "
            f"{len(self.seeds)} seeds:"
        ]
        lines += [f"  - {m}" for m in self.mismatches]
        lines += [f"  - {f}" for f in self.failures]
        return "\n".join(lines)

    def raise_failures(self):
        if not self.ok:
            raise ScheduleVarianceError(self.summary())


def fuzz_specs(spec, seeds):
    """The fuzz-scheduler variants of ``spec``, one per seed."""
    return [
        replace(spec, scheduler="fuzz", sched_seed=seed) for seed in seeds
    ]


def fuzz_sweep(spec, seeds=8, engine=None, reference=None,
               reference_rtol=1e-12) -> FuzzReport:
    """Run ``spec`` under N fuzz seeds and check schedule invariance.

    Parameters
    ----------
    spec:
        The run to perturb.  Its own (deterministic) scheduler is run as
        the baseline; it must not itself be ``"fuzz"``.
    seeds:
        An iterable of seeds, or an int N meaning ``range(N)``.
    engine:
        A :class:`~repro.exec.SweepEngine` (defaults to in-process
        serial).  Pass ``jobs>1`` to fuzz seeds in parallel.
    reference:
        Optional :class:`~repro.core.RunResult` from another variant
        (e.g. MPI-only) whose checksums must agree to ``reference_rtol``.
    """
    from ..exec import SweepEngine
    from ..pipeline import JobGraph

    if spec.scheduler == "fuzz":
        raise ValueError(
            "fuzz_sweep perturbs a deterministic baseline; pass a spec "
            "with scheduler='locality' or 'fifo'"
        )
    if isinstance(seeds, int):
        seeds = range(seeds)
    seeds = tuple(seeds)
    engine = engine or SweepEngine(jobs=1)

    specs = [spec] + fuzz_specs(spec, seeds)
    labels = ["baseline"] + [f"seed{s}" for s in seeds]
    report = engine.run(JobGraph.from_specs(specs, name="fuzz",
                                            labels=labels))

    out = FuzzReport(spec=spec, seeds=seeds)
    out.failures = [
        f"[{o.label}] {o.status}: {(o.error or '').strip().splitlines()[-1:] or ['?']}"
        for o in report.outcomes if not o.ok
    ]
    baseline_outcome = report.outcomes[0]
    out.baseline = baseline_outcome.result
    out.results = [o.result for o in report.outcomes[1:]]
    if baseline_outcome.ok:
        base = invariants(baseline_outcome.result)
        for o in report.outcomes[1:]:
            if o.ok:
                out.mismatches += _diff_invariants(
                    o.label, base, invariants(o.result)
                )
        if reference is not None:
            out.mismatches += compare_reference(
                baseline_outcome.result, reference, rtol=reference_rtol
            )
    return out


def compare_reference(result, reference, rtol=1e-12) -> list:
    """Cross-variant checksum agreement (relative tolerance)."""
    problems = []
    a, b = result.checksums, reference.checksums
    if len(a) != len(b):
        problems.append(
            f"reference {reference.variant}: checksum count "
            f"{len(b)} != {len(a)}"
        )
        return problems
    for i, ((_ta, ca, _da), (_tb, cb, _db)) in enumerate(zip(a, b)):
        ca = np.asarray(ca, dtype=np.float64)
        cb = np.asarray(cb, dtype=np.float64)
        scale = np.maximum(np.abs(cb), 1e-300)
        worst = float(np.max(np.abs(ca - cb) / scale)) if ca.size else 0.0
        if worst > rtol:
            problems.append(
                f"reference {reference.variant}: checksum #{i} differs "
                f"by rel {worst:.3e} (> {rtol:.1e})"
            )
    if result.num_blocks != reference.num_blocks:
        problems.append(
            f"reference {reference.variant}: num_blocks "
            f"{reference.num_blocks} != {result.num_blocks}"
        )
    return problems
