"""``repro.core`` — the paper's contribution: the data-flow port + driver.

The three variants (MPI-only, MPI+OMP fork-join, TAMPI+OmpSs-2 data-flow)
run the same miniAMR workload on the simulated cluster;
:func:`run_simulation` executes one :class:`RunSpec` and returns a
serializable :class:`RunResult` with the metrics the paper reports (total /
refinement time, GFLOPS throughput, checksums, communication and runtime
statistics).
"""

from .app import BaseRankProgram, SharedState
from .driver import VARIANTS, execute, run_simulation
from .results import CommStats, RunResult, RuntimeStats
from .spec import (
    DEFAULT_HYBRID_RPN,
    VARIANT_NAMES,
    RunSpec,
    resolve_ranks_per_node,
)
from .variants import ForkJoinProgram, MpiOnlyProgram, TampiDataflowProgram

__all__ = [
    "BaseRankProgram",
    "CommStats",
    "DEFAULT_HYBRID_RPN",
    "ForkJoinProgram",
    "MpiOnlyProgram",
    "RunResult",
    "RunSpec",
    "RuntimeStats",
    "SharedState",
    "TampiDataflowProgram",
    "VARIANTS",
    "VARIANT_NAMES",
    "execute",
    "resolve_ranks_per_node",
    "run_simulation",
]
