"""The tune engine: a :class:`TuneSpec` as one job graph.

:func:`tune_pipeline` lowers a tune to generator nodes — ``baseline``
(a one-spec fan-out), ``round0`` … ``round{R-1}`` (one fan-out per
pruning level or halving rung, ``R`` fixed by the spec, each after every
earlier round), an optional ``robustness`` fan-out and the ``report``
analysis node — and :func:`run_tune` runs it in one
:meth:`~repro.exec.SweepEngine.run` call, so candidates share the
engine's worker pool, result cache, and duration history.  Each
generator is a pure function of the tune dict in its params and its
predecessors' outcomes: one fold (:class:`_Search`) replays the strategy
from the earlier rounds.  Three refinements ride on the basic
evaluate-and-rank loop:

* **Attribution pruning** (grid/random): a candidate family whose
  lower-``ranks_per_node`` member is already *dependency-bound* — most
  of its idle attributed to ``dependency``/``no_ready_work`` by the
  profiler's idle-gap taxonomy — cannot profit from more ranks, so its
  higher-rpn siblings are skipped, with the evidence recorded.
* **Successive halving**: rungs evaluate shrinking candidate sets at
  ascending fidelity tiers (fractions of ``stages_per_ts``), promoting
  by observed objective; only the final full-fidelity rung is ranked.
* **Robustness re-scoring**: the top-``k`` finalists re-run under the
  spec's :func:`~repro.faults.noise_plan` intensity and are re-ranked
  by the noisy score, so a config that wins by a hair on a quiet
  machine cannot outrank one that degrades gracefully.

Determinism: batches replay in canonical order, scores come from the
bit-deterministic simulator, and every tie breaks on the candidate's
canonical key — the report is byte-identical across worker counts and
cache states (enforced by CI's double-run diff).
"""

from __future__ import annotations

from dataclasses import replace

from ..core.spec import RunSpec
from ..exec import SweepEngine
from ..pipeline.spec import PipelineNode, PipelineSpec, register_generator
from .report import TuneReport
from .spec import OBJECTIVES, TuneSpec
from .strategies import (
    canonical_key, enumerate_space, make_strategy, sort_scored,
)

#: A candidate counts as dependency-bound when at least this share of
#: its idle time is attributed to ``dependency`` + ``no_ready_work``
#: (as opposed to communication or faults) — past that point idle is
#: created by the task graph itself, and more ranks only shrink the
#: per-rank work while keeping the graph's critical path.
PRUNE_THRESHOLD = 0.6


# ----------------------------------------------------------------------
# Candidate materialization
# ----------------------------------------------------------------------
def materialize(tune: TuneSpec, assignment) -> RunSpec:
    """The concrete :class:`RunSpec` of one assignment (full fidelity).

    ``spec`` axes replace RunSpec fields; ``config`` axes rebuild the
    :class:`AmrConfig`.  ``ranks_per_node`` refits the rank grid onto
    the base root grid — raising :class:`ValueError` (an *infeasible*
    candidate) when the grid does not divide, exactly like
    :func:`repro.bench.fit_grid` does for the experiment builders.
    """
    from ..bench.inputs import fit_grid

    base = tune.base
    cfg = base.config
    cfg_changes = {}
    spec_changes = {}
    if "nx" in assignment:
        edge = int(assignment["nx"])
        cfg_changes.update(nx=edge, ny=edge, nz=edge)
    if "max_comm_tasks" in assignment:
        cfg_changes["max_comm_tasks"] = int(assignment["max_comm_tasks"])
    for axis in ("variant", "scheduler"):
        if axis in assignment:
            spec_changes[axis] = assignment[axis]
    if "pdes_workers" in assignment:
        spec_changes["pdes_workers"] = int(assignment["pdes_workers"])
    if "ranks_per_node" in assignment:
        rpn = int(assignment["ranks_per_node"])
        root = cfg.root_dims
        px, py, pz = fit_grid(base.num_nodes * rpn, root)
        cfg_changes.update(
            npx=px, npy=py, npz=pz,
            init_x=root[0] // px,
            init_y=root[1] // py,
            init_z=root[2] // pz,
        )
        spec_changes["ranks_per_node"] = rpn
    if cfg_changes:
        spec_changes["config"] = cfg.with_overrides(**cfg_changes)
    return replace(base, **spec_changes) if spec_changes else base


def with_tier(spec: RunSpec, tier: float) -> RunSpec:
    """``spec`` at fidelity ``tier``: ``stages_per_ts`` scaled down.

    Tier 1.0 is the spec itself; lower tiers run the same mesh and
    refinement schedule over proportionally fewer stages — cheap
    *relative* signal for halving rungs, never the ranked number.
    """
    if tier >= 1.0:
        return spec
    cfg = spec.config
    stages = max(1, round(cfg.stages_per_ts * tier))
    if stages == cfg.stages_per_ts:
        return spec
    return replace(spec, config=cfg.with_overrides(stages_per_ts=stages))


# ----------------------------------------------------------------------
# Scoring and attribution evidence
# ----------------------------------------------------------------------
def _score(tune: TuneSpec, result):
    """The objective value of one successful result (``None`` if the
    objective's source is unavailable)."""
    source = OBJECTIVES[tune.objective][1]
    if source == "result":
        return float(getattr(result, tune.objective))
    profile = result.profile
    if profile is None:
        return None
    return float(getattr(profile, tune.objective))


def dependency_bound_fraction(profile):
    """Share of a profile's idle attributed to the task graph itself."""
    if profile is None:
        return None
    by_blocker = profile.idle.get("by_blocker", {})
    total = sum(by_blocker.values())
    if total <= 0:
        return 0.0
    bound = by_blocker.get("dependency", 0.0) + by_blocker.get(
        "no_ready_work", 0.0
    )
    return bound / total


def _metrics(result):
    """The attribution evidence attached to every ranked entry."""
    metrics = {
        "total_time": float(result.total_time),
        "gflops": float(result.gflops),
    }
    profile = result.profile
    if profile is not None:
        metrics["overlap_fraction"] = float(profile.overlap_fraction)
        metrics["comm_blocked_fraction"] = float(
            profile.comm_blocked_fraction
        )
        metrics["critical_path_length"] = float(
            profile.critical_path.get("length", 0.0)
        )
        metrics["dependency_bound_fraction"] = dependency_bound_fraction(
            profile
        )
    return metrics


def _family_key(assignment) -> str:
    """Identity of an assignment modulo ``ranks_per_node`` (the pruning
    family: members differ only in rank count)."""
    rest = {k: v for k, v in assignment.items() if k != "ranks_per_node"}
    return canonical_key(rest)


# ----------------------------------------------------------------------
# The search: one pure fold over the finished rounds
# ----------------------------------------------------------------------
class _Evaluation:
    """One (assignment, tier) evaluation: its spec, score and result."""

    __slots__ = ("assignment", "tier", "spec", "score", "result", "error")

    def __init__(self, tune, assignment, tier, outcome):
        self.assignment, self.tier, self.spec = assignment, tier, outcome.spec
        self.result = outcome.result if outcome.ok else None
        self.score = _score(tune, self.result) if outcome.ok else None
        self.error = None if outcome.ok else outcome.error or outcome.status


def _best_first(tune, evaluations, score=lambda ev: ev.score):
    """Best objective first, unscored last, canonical key breaking ties."""
    ranked = sort_scored(
        [(ev.assignment, score(ev), ev) for ev in evaluations],
        tune.minimize,
    )
    return [ev for _, _, ev in ranked]


class _Search:
    """A tune's search replayed from the outcomes of its finished rounds.

    The one fold every generator of the tune graph shares: round ``r``
    replays rounds ``0..r-1`` to learn its batch (pruning evidence,
    halving promotions), the robustness pass and the report replay them
    all.  A pure function of the tune and the rounds' outcomes.
    """

    def __init__(self, tune: TuneSpec, rounds=()):
        self.tune = tune
        candidates, self.infeasible = [], []
        for assignment in enumerate_space(tune.space):
            try:
                materialize(tune, assignment)
            except (ValueError, TypeError) as exc:
                self.infeasible.append(
                    {"assignment": assignment, "error": str(exc)}
                )
            else:
                candidates.append(assignment)
        self.feasible = len(candidates)
        strategy = make_strategy(tune, candidates)
        self.truncated = strategy.truncated
        #: ``(assignments, tier)`` of every replayed round plus the next.
        self.batches = []
        self.pruned, self.failed = [], []
        #: Full-fidelity evaluations, in evaluation order (rankable).
        self.finished = []
        if tune.strategy == "halving":
            self._halving(strategy, rounds)
        else:
            self._grid(strategy.plan, rounds)

    def _evaluate(self, batch, tier, outcomes) -> list:
        evals = [
            _Evaluation(self.tune, assignment, tier, outcome)
            for assignment, outcome in zip(batch, outcomes)
        ]
        if tier >= 1.0:
            self.finished.extend(evals)
        self.failed.extend(
            {"assignment": ev.assignment, "tier": tier, "error": ev.error}
            for ev in evals if ev.error is not None
        )
        return evals

    def _halving(self, strategy, rounds):
        self.num_rounds = len(self.tune.tiers)
        batch = strategy.initial()
        for rung, tier in enumerate(self.tune.tiers[:len(rounds) + 1]):
            self.batches.append((batch, tier))
            if rung < len(rounds):
                evals = self._evaluate(batch, tier, rounds[rung])
                batch = strategy.promote(
                    [(ev.assignment, ev.score) for ev in evals], rung
                )

    def _grid(self, plan, rounds):
        # Ascending-rpn batches give the pruner its bite: a family's
        # cheapest member runs first, and its attribution can veto the
        # rest.  Without the axis (or pruning) the plan is one batch.
        tune = self.tune
        rpn_axis = (
            tune.prune and len(tune.space.get("ranks_per_node", ())) > 1
        )
        levels = [
            [a for a in plan if a["ranks_per_node"] == level]
            for level in sorted({a["ranks_per_node"] for a in plan})
        ] if rpn_axis else [plan]
        self.num_rounds = len(levels)
        blocked = {}  # family key -> (rpn, dep_fraction) evidence
        for number, level in enumerate(levels[:len(rounds) + 1]):
            survivors = []
            for assignment in level:
                evidence = blocked.get(_family_key(assignment))
                if evidence is None or (
                    assignment.get("ranks_per_node", 0) <= evidence[0]
                ):
                    survivors.append(assignment)
                    continue
                self.pruned.append({
                    "assignment": assignment,
                    "reason": (
                        f"dominated: {evidence[1]:.0%} of idle at "
                        f"ranks_per_node={evidence[0]} is "
                        f"dependency-bound; more ranks cannot help"
                    ),
                    "evidence": {
                        "ranks_per_node": evidence[0],
                        "dependency_bound_fraction": evidence[1],
                        "threshold": PRUNE_THRESHOLD,
                    },
                })
            self.batches.append((survivors, 1.0))
            if number == len(rounds):
                break
            for ev in self._evaluate(survivors, 1.0, rounds[number]):
                if not rpn_axis or ev.error is not None:
                    continue
                fraction = dependency_bound_fraction(ev.result.profile)
                if fraction is None or fraction < PRUNE_THRESHOLD:
                    continue
                family = _family_key(ev.assignment)
                rpn = ev.assignment["ranks_per_node"]
                if family not in blocked or rpn < blocked[family][0]:
                    blocked[family] = (rpn, fraction)

    # ------------------------------------------------------------------
    def ranked(self) -> list:
        """Successful full-fidelity evaluations, best first."""
        return _best_first(
            self.tune, [ev for ev in self.finished if ev.error is None]
        )

    def finalists(self) -> list:
        """The evaluations the robustness pass re-scores under noise."""
        if self.tune.robustness <= 0:
            return []
        return self.ranked()[:self.tune.top_k]

    def report(self, baseline_outcome, robust_outcomes) -> TuneReport:
        """Fold the replayed rounds, the baseline and the re-scores into
        the ranked :class:`TuneReport`."""
        tune, base = self.tune, baseline_outcome
        baseline, failed = None, []
        if base.ok:
            baseline = {
                "assignment": {}, "fingerprint": base.fingerprint,
                "score": _score(tune, base.result),
                "metrics": _metrics(base.result),
            }
        else:
            failed.append({"assignment": {}, "tier": 1.0,
                           "error": base.error or base.status})
        ranked = self.ranked()
        robust = {
            canonical_key(ev.assignment): _score(tune, outcome.result)
            for ev, outcome in zip(ranked, robust_outcomes) if outcome.ok
        }
        if tune.robustness > 0:
            # The noisy ordering decides among the finalists.
            ranked = _best_first(
                tune, ranked[:tune.top_k],
                lambda ev: robust.get(canonical_key(ev.assignment)),
            ) + ranked[tune.top_k:]
        entries = []
        for rank, ev in enumerate(ranked, start=1):
            noisy = robust.get(canonical_key(ev.assignment))
            entries.append({
                "rank": rank,
                "assignment": ev.assignment,
                "fingerprint": ev.spec.fingerprint(),
                "tier": ev.tier,
                "score": ev.score,
                "metrics": _metrics(ev.result),
                "robust_score": noisy,
                "robustness_delta": (
                    noisy / ev.score - 1.0
                    if noisy is not None and ev.score else None
                ),
            })
        return TuneReport(
            name=tune.name, objective=tune.objective,
            strategy=tune.strategy, budget=tune.budget, seed=tune.seed,
            space=tune.space, fingerprint=tune.fingerprint(),
            baseline=baseline, entries=entries, pruned=self.pruned,
            infeasible=self.infeasible, failed=failed + self.failed,
            evaluations=(
                sum(len(batch) for batch, _ in self.batches)
                + len(robust_outcomes)
            ),
            truncated=self.truncated,
        )


# ----------------------------------------------------------------------
# The tune graph: generators and lowering
# ----------------------------------------------------------------------
def _rounds(deps) -> list:
    """The finished rounds' child outcomes, in round order."""
    return [deps[f"round{r}"] for r in range(len(deps))
            if f"round{r}" in deps]


@register_generator("tune.baseline")
def _baseline_node(params, deps):
    """The base spec as declared, full fidelity (outside the budget —
    it is the yardstick, not a candidate)."""
    return [replace(TuneSpec.from_dict(params["tune"]).base, profile=True)]


@register_generator("tune.round")
def _round_node(params, deps):
    """One pruning level or halving rung: a fan-out of its candidates."""
    tune = TuneSpec.from_dict(params["tune"])
    batch, tier = _Search(tune, _rounds(deps)).batches[params["round"]]
    return [
        replace(with_tier(materialize(tune, a), tier), profile=True)
        for a in batch
    ]


@register_generator("tune.robustness")
def _robustness_node(params, deps):
    """The finalists re-run under the spec's noise plan."""
    from ..faults import noise_plan

    tune = TuneSpec.from_dict(params["tune"])
    plan = noise_plan(tune.robustness, seed=tune.fault_seed)
    return [replace(ev.spec, faults=plan)
            for ev in _Search(tune, _rounds(deps)).finalists()]


@register_generator("tune.report")
def _report_node(params, deps):
    """Analysis node: the ranked report as plain JSON."""
    search = _Search(TuneSpec.from_dict(params["tune"]), _rounds(deps))
    return search.report(
        deps["baseline"][0], deps.get("robustness", [])
    ).to_dict()


def tune_pipeline(tune: TuneSpec) -> PipelineSpec:
    """Lower ``tune`` to one job graph (see the module docstring)."""
    params = {"tune": tune.to_dict()}
    rounds = tuple(f"round{r}" for r in range(_Search(tune).num_rounds))
    nodes = [PipelineNode("baseline", generator="tune.baseline",
                          params=params)]
    nodes += [
        PipelineNode(name, generator="tune.round",
                     params=dict(params, round=r), after=rounds[:r])
        for r, name in enumerate(rounds)
    ]
    if tune.robustness > 0:
        nodes.append(PipelineNode("robustness", generator="tune.robustness",
                                  params=params, after=rounds))
        rounds += ("robustness",)
    nodes.append(PipelineNode("report", generator="tune.report",
                              params=params, after=("baseline",) + rounds))
    return PipelineSpec(name=tune.name, nodes=tuple(nodes))


def finish_tune(tune: TuneSpec, outcomes, telemetry=None) -> dict:
    """The report dict of a finished tune graph; emits its telemetry.

    ``outcomes`` are the graph's node outcomes, report node last.
    ``tune_start``, one ``tune_round`` per non-empty round, one
    ``tune_prune`` per pruned candidate and ``tune_stop`` are read off
    the finished graph.  Raises :class:`RuntimeError` when the report
    node did not complete (a shutdown or a broken declaration).
    """
    report = outcomes[-1]
    if not report.ok:
        last = (report.error or "").strip().splitlines()[-1:]
        raise RuntimeError(": ".join(
            [f"tune {tune.name!r}: report {report.status}", *last]
        ))
    value = report.result
    if telemetry is None:
        return value
    emit = telemetry.emit
    emit("tune_start", tune=tune.name, strategy=tune.strategy,
         objective=tune.objective, budget=tune.budget,
         space=tune.space_size(), feasible=_Search(tune).feasible)
    rounds = _rounds({o.name: o.result for o in outcomes})
    for r, children in enumerate(rounds):
        if children:  # a level the pruner emptied evaluates nothing
            emit("tune_round", tune=tune.name, round=r,
                 tier=tune.tiers[r] if tune.strategy == "halving" else 1.0,
                 evaluated=len(children))
    for row in value["pruned"]:
        emit("tune_prune", tune=tune.name,
             candidate=canonical_key(row["assignment"]),
             reason=row["reason"])
    best = value["entries"][0]["assignment"] if value["entries"] else None
    emit("tune_stop", tune=tune.name, evaluations=value["evaluations"],
         pruned=len(value["pruned"]),
         best=None if best is None else canonical_key(best))
    return value


def run_tune(tune: TuneSpec, engine: SweepEngine = None) -> TuneReport:
    """Explore ``tune``'s space and return the ranked report.

    Runs :func:`tune_pipeline` in one ``engine.run`` call.
    ``engine=None`` uses a fresh serial, uncached engine; passing a
    shared engine reuses its cache (warm tunes re-evaluate nothing),
    duration history, worker pool, and telemetry bus.  The budget
    bounds *search* evaluations; the baseline run and the finalists'
    robustness re-scores ride on top of it.
    """
    engine = engine or SweepEngine(jobs=1)
    outcomes = engine.run(tune_pipeline(tune)).outcomes
    return TuneReport.from_dict(finish_tune(
        tune, outcomes, getattr(engine, "telemetry", None),
    ))
