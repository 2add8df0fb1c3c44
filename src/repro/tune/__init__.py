"""``repro.tune`` — deterministic design-space exploration.

Declare *what to explore* as a :class:`TuneSpec` (a frozen, seeded,
fingerprinted search over RunSpec knobs with an objective and a
budget), hand it to :func:`run_tune`, and get back a ranked
:class:`TuneReport` whose JSON is byte-identical across worker counts
and cache states.  Strategies (grid, seeded random, successive
halving) live in :mod:`repro.tune.strategies` as pure, engine-free
objects; :func:`tune_pipeline` lowers a tune to one job graph (rounds
of candidates, pruned by the profiler's idle-gap attribution, and an
optional noisy re-score of the finalists) that :func:`run_tune` runs on
the shared :class:`~repro.exec.SweepEngine`.

CLI: ``miniamr-sim tune``.  Serve: submit kind ``tune``.  Pipeline:
append :func:`tune_pipeline`'s nodes (``miniamr-sim pipeline tune``).
"""

from .engine import (
    PRUNE_THRESHOLD,
    dependency_bound_fraction,
    materialize,
    run_tune,
    tune_pipeline,
    with_tier,
)
from .report import TuneReport
from .spec import AXES, OBJECTIVES, STRATEGIES, TuneSpec
from .strategies import (
    GridStrategy,
    RandomStrategy,
    SuccessiveHalving,
    canonical_key,
    enumerate_space,
    make_strategy,
)

__all__ = [
    "AXES",
    "GridStrategy",
    "OBJECTIVES",
    "PRUNE_THRESHOLD",
    "RandomStrategy",
    "STRATEGIES",
    "SuccessiveHalving",
    "TuneReport",
    "TuneSpec",
    "canonical_key",
    "dependency_bound_fraction",
    "enumerate_space",
    "make_strategy",
    "materialize",
    "run_tune",
    "tune_pipeline",
    "with_tier",
]
