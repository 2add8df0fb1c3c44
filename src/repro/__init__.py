"""repro — data-flow parallelization for AMR applications, reproduced.

A from-scratch Python reproduction of *"Towards Data-Flow Parallelization
for Adaptive Mesh Refinement Applications"* (Sala, Rico, Beltran — IEEE
CLUSTER 2020): the miniAMR proxy application, an OmpSs-2-like tasking
runtime, a simulated MPI library, the Task-Aware MPI (TAMPI) layer, and a
deterministic discrete-event cluster simulator to run them on.

Quickstart::

    from repro import AmrConfig, RunSpec, run_simulation, sphere

    cfg = AmrConfig(
        npx=2, npy=2, npz=1, nx=8, ny=8, nz=8, num_vars=8,
        num_tsteps=4, stages_per_ts=4,
        objects=(sphere(center=(0.4, 0.4, 0.4), radius=0.2),),
    )
    spec = RunSpec(
        config=cfg, machine="marenostrum4", variant="tampi_dataflow",
        num_nodes=1, ranks_per_node=4,
    )
    result = run_simulation(spec)
    print(result.total_time, result.gflops)
"""

from . import amr, core, faults, machine, mpi, simx, tampi, tasking
from .amr import AmrConfig, ObjectSpec, Shape, sphere
from .core import CommStats, RunResult, RunSpec, RuntimeStats, run_simulation
from .faults import FaultPlan, FaultStats, noise_plan, straggler_plan
from .machine import (
    PRESETS,
    CostSpec,
    MachineSpec,
    NetworkSpec,
    NodeSpec,
    get_preset,
    laptop,
    marenostrum4,
    marenostrum4_scaled,
)

__version__ = "1.0.0"

from . import exec as exec_  # noqa: E402  (needs __version__ for fingerprints)
from . import tune, verify  # noqa: E402
from .exec import ResultCache, SweepEngine, SweepReport
from .tune import TuneReport, TuneSpec, run_tune
from .verify import AccessRaceError, AccessWitness, GoldenStore, fuzz_sweep

__all__ = [
    "AccessRaceError",
    "AccessWitness",
    "AmrConfig",
    "CommStats",
    "CostSpec",
    "FaultPlan",
    "FaultStats",
    "GoldenStore",
    "MachineSpec",
    "NetworkSpec",
    "NodeSpec",
    "ObjectSpec",
    "PRESETS",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "RuntimeStats",
    "Shape",
    "SweepEngine",
    "SweepReport",
    "TuneReport",
    "TuneSpec",
    "amr",
    "core",
    "faults",
    "fuzz_sweep",
    "noise_plan",
    "straggler_plan",
    "get_preset",
    "laptop",
    "machine",
    "marenostrum4",
    "marenostrum4_scaled",
    "mpi",
    "run_simulation",
    "run_tune",
    "simx",
    "sphere",
    "tampi",
    "tasking",
    "tune",
    "verify",
    "__version__",
]
