"""``TuneSpec`` — the serializable declaration of one design-space search.

A tune is pure data, exactly like a :class:`~repro.core.RunSpec` or a
:class:`~repro.pipeline.PipelineSpec`: a frozen, JSON-round-trippable,
seeded, fingerprinted description of *what to explore*, decoupled from
the engine that explores it (:func:`repro.tune.run_tune`).  Identical
``TuneSpec`` + seed must yield a byte-identical
:class:`~repro.tune.TuneReport` regardless of worker count or cache
state — every knob that could introduce nondeterminism (sampling,
promotion ties, pruning order) is pinned here.

The **search space** is a mapping from axis name to the candidate
values of that axis; axes are the RunSpec/AmrConfig knobs the paper's
evaluation actually varies (Section V): the parallelization variant,
the task scheduler, ranks per node (Table I), the block edge length,
the partitioned-PDES worker count, and the message-aggregation cap
(Table II's ``--max_comm_tasks``).  The **objective** is a scalar read
off each candidate's :class:`~repro.core.RunResult` (or its
:class:`~repro.obs.ProfileReport` for the communication-overlap
objectives).  The **strategy** decides which points of the space get
evaluated under the **budget**, and — for successive halving — at which
fidelity **tier** (a fraction of the full ``stages_per_ts``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

from ..core.spec import RunSpec

#: Searchable axes: name -> (kind, description).  ``spec`` axes replace
#: a :class:`RunSpec` field; ``config`` axes rebuild the
#: :class:`~repro.amr.config.AmrConfig` (``ranks_per_node``
#: additionally refits the rank grid onto the base root grid, which is
#: what makes a value *infeasible* when the grid does not divide).
AXES = {
    "variant": ("spec", "parallelization variant"),
    "scheduler": ("spec", "tasking-runtime scheduler"),
    "ranks_per_node": ("spec", "MPI ranks per node (refits rank grid)"),
    "nx": ("config", "block edge cells (nx=ny=nz)"),
    "pdes_workers": ("spec", "partitioned-PDES worker processes"),
    "max_comm_tasks": ("config", "comm tasks per neighbor/direction"),
}

#: Axes whose values are strings (the rest are positive ints).
_STR_AXES = ("variant", "scheduler")

#: objective name -> (direction, source).  ``direction`` is "min" or
#: "max"; ``source`` "result" reads the :class:`RunResult` attribute,
#: "profile" the :class:`ProfileReport` attribute (those objectives
#: force ``profile=True`` on every candidate).
OBJECTIVES = {
    "total_time": ("min", "result"),
    "gflops": ("max", "result"),
    "overlap_fraction": ("max", "profile"),
    "comm_blocked_fraction": ("min", "profile"),
}

#: Search strategies (see :mod:`repro.tune.strategies`).
STRATEGIES = ("grid", "random", "halving")


def _coerce_axis(axis, values):
    """Validated canonical value tuple for one axis."""
    values = tuple(values)
    if not values:
        raise ValueError(f"axis {axis!r} has no values")
    out = []
    for v in values:
        if axis in _STR_AXES:
            if not isinstance(v, str):
                raise ValueError(f"axis {axis!r} values must be strings")
        else:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"axis {axis!r} values must be ints")
            if v < 0 or (v == 0 and axis != "max_comm_tasks"):
                raise ValueError(
                    f"axis {axis!r} values must be positive"
                )
        if v in out:
            raise ValueError(f"axis {axis!r} repeats value {v!r}")
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class TuneSpec:
    """One declared design-space exploration (pure data)."""

    #: Every candidate is this spec with the assignment's axes replaced.
    base: RunSpec
    #: axis name -> tuple of candidate values (see :data:`AXES`).
    space: dict = field(default_factory=dict)
    #: One of :data:`OBJECTIVES`.
    objective: str = "total_time"
    #: One of :data:`STRATEGIES`.
    strategy: str = "grid"
    #: Maximum candidate *evaluations* (every tier counts one).  0 means
    #: "the whole space" and is only legal for the grid strategy.
    budget: int = 0
    #: Seed of every stochastic choice (random sampling, halving's
    #: initial draw).  Same spec + seed -> same report, always.
    seed: int = 0
    #: Fidelity ladder for successive halving: fractions of the base
    #: config's ``stages_per_ts``, ascending, ending at 1.0 (the full
    #: workload).  Ignored by grid/random, which evaluate at 1.0.
    tiers: tuple = (0.25, 1.0)
    #: Halving keep-fraction: each rung promotes ~1/eta of its
    #: candidates to the next tier.
    eta: int = 2
    #: Noise intensity for robustness re-scoring of the finalists
    #: (:func:`repro.faults.noise_plan`); 0 disables the pass.
    robustness: float = 0.0
    #: Seed of the robustness noise plan.
    fault_seed: int = 2020
    #: Finalists: entries re-scored under noise and reported first.
    top_k: int = 3
    #: Skip candidates dominated per the idle-gap attribution rule
    #: (higher ranks-per-node when the lower-rpn sibling is already
    #: dependency-bound).  Grid/random only.
    prune: bool = True
    name: str = "tune"

    # ------------------------------------------------------------------
    def __post_init__(self):
        if not isinstance(self.base, RunSpec):
            raise TypeError("base must be a RunSpec")
        if not self.space:
            raise ValueError("space must declare at least one axis")
        space = {}
        for axis in sorted(self.space):
            if axis not in AXES:
                raise ValueError(
                    f"unknown axis {axis!r}; choose from {sorted(AXES)}"
                )
            space[axis] = _coerce_axis(axis, self.space[axis])
        object.__setattr__(self, "space", space)
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; choose from "
                f"{sorted(OBJECTIVES)}"
            )
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from "
                f"{sorted(STRATEGIES)}"
            )
        if not isinstance(self.budget, int) or self.budget < 0:
            raise ValueError("budget must be a non-negative int")
        if self.budget == 0 and self.strategy != "grid":
            raise ValueError(
                f"strategy {self.strategy!r} needs an explicit budget"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative int")
        tiers = tuple(float(t) for t in self.tiers)
        if not tiers or tiers[-1] != 1.0:
            raise ValueError("tiers must end at 1.0 (the full workload)")
        if any(t <= 0 or t > 1 for t in tiers):
            raise ValueError("tiers must lie in (0, 1]")
        if any(b >= a for b, a in zip(tiers, tiers[1:])):
            raise ValueError("tiers must be strictly ascending")
        object.__setattr__(self, "tiers", tiers)
        if not isinstance(self.eta, int) or self.eta < 2:
            raise ValueError("eta must be an int >= 2")
        if self.robustness < 0:
            raise ValueError("robustness must be >= 0")
        if not isinstance(self.fault_seed, int) or self.fault_seed < 0:
            raise ValueError("fault_seed must be a non-negative int")
        if not isinstance(self.top_k, int) or self.top_k < 1:
            raise ValueError("top_k must be an int >= 1")

    # ------------------------------------------------------------------
    @property
    def minimize(self) -> bool:
        return OBJECTIVES[self.objective][0] == "min"

    @property
    def needs_profile(self) -> bool:
        """Whether the objective reads the per-run profile.  (Candidates
        are profiled regardless — pruning and the report's attribution
        evidence need it — but this flags objectives that *cannot* run
        unprofiled.)"""
        return OBJECTIVES[self.objective][1] == "profile"

    def space_size(self) -> int:
        n = 1
        for values in self.space.values():
            n *= len(values)
        return n

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible canonical form (inverse of :meth:`from_dict`)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(
            base=self.base.to_dict(),
            space={a: list(v) for a, v in self.space.items()},
            tiers=list(self.tiers),
        )
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TuneSpec":
        if not isinstance(data, dict):
            raise ValueError("tune spec must be a JSON object")
        bad = set(data) - {f.name for f in fields(cls)}
        if bad:
            raise ValueError(f"unknown TuneSpec fields: {sorted(bad)}")
        if "base" not in data or "space" not in data:
            raise ValueError("tune spec needs 'base' and 'space'")
        # ``__post_init__`` normalizes the space and tiers to tuples.
        return cls(**dict(data, base=RunSpec.from_dict(data["base"])))

    def fingerprint(self) -> str:
        """Content hash of the tune declaration (cache/coalescing key).

        Mixes the package version in, mirroring
        :meth:`RunSpec.fingerprint` — a version bump may change what any
        candidate computes, so memoized tune results must not survive
        it.
        """
        from .. import __version__

        blob = json.dumps(
            {"tune": self.to_dict(), "version": __version__},
            sort_keys=True, separators=(",", ":"), allow_nan=False,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
