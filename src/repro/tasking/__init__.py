"""``repro.tasking`` — an OmpSs-2-like tasking runtime on the simulator.

Provides tasks with in/out/inout/commutative dependencies on whole-object
handles, per-core workers with work stealing, the immediate-successor
locality scheduler, ``taskwait``,
``taskwait_with_deps`` (the OmpSs-2 feature behind the paper's delayed
checksum), and a fork-join ``parallel_for`` layer for the MPI+OMP variant.
"""

from .deps import DependencyTracker
from .forkjoin import ForkJoinTeam
from .runtime import SCHEDULERS, RankRuntime, RuntimeStats, TaskContext
from .task import AccessMode, Task, TaskState, normalize_accesses

__all__ = [
    "AccessMode",
    "DependencyTracker",
    "ForkJoinTeam",
    "RankRuntime",
    "RuntimeStats",
    "SCHEDULERS",
    "Task",
    "TaskContext",
    "TaskState",
    "normalize_accesses",
]
