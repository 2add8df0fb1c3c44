"""``TuneReport`` — the ranked, evidence-carrying outcome of one tune.

The report is the tune's *only* output and is deliberately free of
execution metadata (wall-clock, host, worker assignment, cache hits):
two runs of the same :class:`~repro.tune.TuneSpec` — cold or warm
cache, serial or parallel engine — must serialize byte-identically,
which is what lets CI diff the JSON across runs and lets
:mod:`repro.serve` cache tune reports by fingerprint.

Every entry carries the *evidence* behind its rank: the objective
value, the robustness re-score (when enabled), and the attribution
metrics (communication overlap, blocked fraction, dependency-bound
idle share) read off the candidate's profile.  Pruned and infeasible
candidates are listed with their reasons — a tune never silently
narrows its own space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields


def _fmt_assignment(assignment) -> str:
    return " ".join(f"{k}={assignment[k]}" for k in sorted(assignment))


def _fmt_score(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


@dataclass
class TuneReport:
    """Structured outcome of :func:`repro.tune.run_tune`."""

    #: Echo of the declaration, for self-contained artifacts.
    name: str
    objective: str
    strategy: str
    budget: int
    seed: int
    space: dict
    #: :meth:`TuneSpec.fingerprint` of the declaration.
    fingerprint: str
    #: The base spec evaluated as-is at full fidelity — the yardstick
    #: every ranked entry is compared against.
    baseline: dict = None
    #: Ranked candidate entries, best first.  Each:
    #: ``{"rank", "assignment", "fingerprint", "tier", "score",
    #: "metrics", "robust_score", "robustness_delta"}``.
    entries: list = field(default_factory=list)
    #: ``{"assignment", "reason", "evidence"}`` rows skipped by the
    #: attribution pruner.
    pruned: list = field(default_factory=list)
    #: ``{"assignment", "error"}`` rows the space declared but the base
    #: geometry cannot realize (e.g. a rank grid that does not divide).
    infeasible: list = field(default_factory=list)
    #: ``{"assignment", "tier", "error"}`` rows whose runs failed.
    failed: list = field(default_factory=list)
    #: Total candidate evaluations (cache hits count: same evaluation,
    #: same number — identical cold and warm).
    evaluations: int = 0
    #: In-space candidates the budget never reached.
    truncated: int = 0

    # ------------------------------------------------------------------
    @property
    def best(self):
        """The top-ranked entry (or ``None`` for an empty tune)."""
        return self.entries[0] if self.entries else None

    def improvement_over_baseline(self):
        """Best score relative to the baseline score (objective units).

        For a minimized objective this is ``baseline - best`` (positive
        = the tune found something faster); for a maximized one,
        ``best - baseline``.  ``None`` when either side is missing.
        """
        if self.best is None or not self.baseline:
            return None
        base = self.baseline.get("score")
        if base is None or self.best["score"] is None:
            return None
        from .spec import OBJECTIVES

        if OBJECTIVES[self.objective][0] == "min":
            return base - self.best["score"]
        return self.best["score"] - base

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["space"] = {a: list(v) for a, v in self.space.items()}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TuneReport":
        space = {a: tuple(v) for a, v in data.get("space", {}).items()}
        return cls(**dict(data, space=space))

    def to_json(self) -> str:
        """Canonical JSON — byte-identical across equivalent runs."""
        return json.dumps(
            self.to_dict(), indent=2, sort_keys=True, allow_nan=False,
        ) + "\n"

    # ------------------------------------------------------------------
    def ascii(self) -> str:
        """Terminal rendering: ranked table plus the exclusion ledger."""
        lines = [
            f"== tune: {self.name} — {self.strategy} over "
            f"{len(self.space)} axes, objective {self.objective} ==",
            f"evaluations {self.evaluations}"
            + (f"  (budget left {self.truncated} unexplored)"
               if self.truncated else ""),
        ]
        if self.baseline:
            lines.append(
                f"baseline  {_fmt_assignment(self.baseline['assignment'])}"
                f"  {self.objective}={_fmt_score(self.baseline['score'])}"
            )
        headers = ["rank", "candidate", self.objective, "robust",
                   "delta", "overlap", "dep-idle"]
        rows = []
        for e in self.entries:
            metrics = e.get("metrics", {})
            delta = e.get("robustness_delta")
            rows.append((
                str(e["rank"]),
                _fmt_assignment(e["assignment"]),
                _fmt_score(e["score"]),
                _fmt_score(e.get("robust_score")),
                "-" if delta is None else f"{delta:+.1%}",
                _fmt_score(metrics.get("overlap_fraction")),
                _fmt_score(metrics.get("dependency_bound_fraction")),
            ))
        if rows:
            from ..bench import format_table

            lines.append(format_table(headers, rows))
        for row in self.pruned:
            lines.append(
                f"pruned    {_fmt_assignment(row['assignment'])}: "
                f"{row['reason']}"
            )
        for row in self.infeasible:
            lines.append(
                f"infeasible {_fmt_assignment(row['assignment'])}: "
                f"{row['error']}"
            )
        for row in self.failed:
            lines.append(
                f"failed    {_fmt_assignment(row['assignment'])}: "
                f"{row['error']}"
            )
        gain = self.improvement_over_baseline()
        if gain is not None:
            verdict = (
                "improves on the baseline" if gain > 0
                else "baseline already optimal" if gain == 0
                else "baseline stays best"
            )
            lines.append(
                f"best vs baseline: {gain:+.6g} {self.objective} "
                f"({verdict})"
            )
        return "\n".join(lines) + "\n"
