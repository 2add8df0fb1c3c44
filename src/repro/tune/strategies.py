"""Search strategies: pure candidate-selection logic, no engine in sight.

A strategy turns a :class:`~repro.tune.TuneSpec`'s search space into a
sequence of *assignments* (axis -> value dicts) to evaluate, and — for
successive halving — decides which survivors climb to the next fidelity
tier from their *observed* scores.  Strategies never touch specs,
engines, or results: they consume ``(assignment, score)`` pairs and
emit assignments, which is what makes them property-testable in
isolation (see ``tests/test_tune_property.py``).

Determinism contract: every choice is a pure function of the candidate
list order, the seed, and the observed scores; ties break on the
candidate's canonical key.  Same inputs -> same plan, byte for byte.
"""

from __future__ import annotations

import itertools
import json
import random

from .spec import TuneSpec


def canonical_key(assignment) -> str:
    """Deterministic identity of one assignment (tie-break, dedup)."""
    return json.dumps(assignment, sort_keys=True, separators=(",", ":"))


def enumerate_space(space) -> list:
    """Every assignment of the space, in canonical grid order.

    Axes iterate in sorted-name order, values in declared order — the
    enumeration (and therefore grid truncation and seeded sampling) is
    a pure function of the space.
    """
    axes = sorted(space)
    out = []
    for combo in itertools.product(*(space[a] for a in axes)):
        out.append(dict(zip(axes, combo)))
    return out


def sort_scored(scored, minimize):
    """``(assignment, score, ...)`` tuples best-first; unscored (failed)
    candidates last."""
    def key(pair):
        assignment, score = pair[:2]
        if score is None:
            return (1, 0.0, canonical_key(assignment))
        return (
            0,
            score if minimize else -score,
            canonical_key(assignment),
        )
    return sorted(scored, key=key)


class GridStrategy:
    """Exhaustive sweep in canonical order, truncated to the budget.

    ``truncated`` reports how many in-space candidates the budget
    dropped — a tune must never silently claim full coverage.
    """

    def __init__(self, candidates, budget=0):
        self.plan = list(candidates[:budget] if budget else candidates)
        self.truncated = max(0, len(candidates) - len(self.plan))


class RandomStrategy:
    """Seeded uniform sample of ``budget`` candidates, no replacement."""

    def __init__(self, candidates, budget, seed):
        rng = random.Random(seed)
        k = min(budget, len(candidates))
        self.plan = rng.sample(list(candidates), k)
        self.truncated = len(candidates) - k


class SuccessiveHalving:
    """Multi-fidelity halving: broad-and-cheap, then narrow-and-full.

    Rung ``r`` evaluates ``n_r`` candidates at fidelity ``tiers[r]``;
    the best ``n_{r+1}`` (by observed objective) are promoted.  The
    initial width ``n_0`` is the largest such that the whole ladder
    fits the budget: ``sum_r max(1, n_0 // eta**r) <= budget``.  The
    first rung is a seeded draw from the candidate list (the whole
    list when it fits).
    """

    def __init__(self, candidates, budget, seed, tiers, eta, minimize):
        self.tiers = tuple(tiers)
        self.eta = eta
        self.minimize = minimize
        n0 = 0
        while n0 < len(candidates):
            if self._ladder_cost(n0 + 1) > budget:
                break
            n0 += 1
        if n0 < 1:
            raise ValueError(
                f"budget {budget} cannot fund one candidate across "
                f"{len(self.tiers)} tiers"
            )
        self.rung_sizes = [
            max(1, n0 // self.eta ** r) for r in range(len(self.tiers))
        ]
        rng = random.Random(seed)
        self._initial = rng.sample(list(candidates), n0)
        self.truncated = len(candidates) - n0

    def _ladder_cost(self, n0):
        return sum(
            max(1, n0 // self.eta ** r) for r in range(len(self.tiers))
        )

    # ------------------------------------------------------------------
    def initial(self) -> list:
        """Rung-0 assignments (evaluated at ``tiers[0]``)."""
        return list(self._initial)

    def promote(self, scored, rung) -> list:
        """Survivors of rung ``rung`` to evaluate at ``tiers[rung+1]``.

        ``scored`` is the rung's ``(assignment, score)`` pairs; the
        best ``rung_sizes[rung+1]`` promote.  Failed candidates
        (``score=None``) never promote past a scored one.
        """
        if rung + 1 >= len(self.tiers):
            return []
        keep = self.rung_sizes[rung + 1]
        ranked = sort_scored(scored, self.minimize)
        return [assignment for assignment, _score in ranked[:keep]]


def make_strategy(tune: TuneSpec, candidates):
    """The :class:`TuneSpec`'s strategy over ``candidates`` (the
    *feasible* assignments, in canonical enumeration order)."""
    if tune.strategy == "grid":
        return GridStrategy(candidates, tune.budget)
    if tune.strategy == "random":
        return RandomStrategy(candidates, tune.budget, tune.seed)
    return SuccessiveHalving(
        candidates, tune.budget, tune.seed, tune.tiers, tune.eta,
        tune.minimize,
    )
