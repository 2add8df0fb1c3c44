"""Run one simulated miniAMR execution and collect its metrics."""

from __future__ import annotations

import contextlib
import gc

from ..amr.balance import max_imbalance
from ..faults.injectors import FaultInjector
from ..mpi import World
from ..obs.profiler import Profiler
from ..obs.report import PhaseSummary, build_profile_report
from ..obs.trace import Tracer
from ..simx import Environment
from ..tasking import RankRuntime
from ..verify.witness import AccessWitness
from .app import SharedState
from .results import CommStats, RunResult, RuntimeStats
from .spec import VARIANT_NAMES, RunSpec
from .variants.fork_join import ForkJoinProgram
from .variants.mpi_only import MpiOnlyProgram
from .variants.tampi_dataflow import TampiDataflowProgram

VARIANTS = {
    "mpi_only": MpiOnlyProgram,
    "fork_join": ForkJoinProgram,
    "tampi_dataflow": TampiDataflowProgram,
}
assert set(VARIANTS) == set(VARIANT_NAMES)


def run_simulation(spec, *extra, **kwargs) -> RunResult:
    """Simulate one miniAMR execution described by a :class:`RunSpec`::

        run_simulation(RunSpec(config=cfg, machine="marenostrum4", ...))

    Defaults (notably ranks-per-node: all cores for MPI-only, 4 for the
    hybrids) are resolved by :meth:`RunSpec.resolve`.  Anything but a
    single :class:`RunSpec` raises :class:`TypeError`.
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(
            "run_simulation() takes a single RunSpec, not "
            f"{type(spec).__name__}: "
            "run_simulation(RunSpec(config=cfg, machine=machine, ...))"
        )
    if extra or kwargs:
        raise TypeError(
            "run_simulation(RunSpec) takes no further arguments; "
            "use dataclasses.replace() to derive a new spec"
        )
    return execute(spec)


def execute(run_spec: RunSpec) -> RunResult:
    """Execute a (possibly unresolved) :class:`RunSpec`."""
    with gc_suspended():
        return _execute(run_spec)


@contextlib.contextmanager
def gc_suspended():
    """Keep the cyclic collector off for the block, then restore it.

    A run allocates events and tasks fast enough to make the collector
    rescan the live world over and over, so it is suspended for the run.
    Nothing is collected afterwards: a finished run leaves no cyclic
    garbage (completed tasks drop their bodies and :meth:`_Sim.close`
    breaks what still points back), so refcounting frees it all.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _Sim:
    """The constructed pieces of one run (or one PDES worker's share)."""

    __slots__ = (
        "machine", "env", "world", "shared", "programs", "procs",
        "profiler", "witness", "injector",
    )

    def close(self):
        """Break the references a finished run still cycles through."""
        for program in self.programs:
            program.rt.close()
        self.world.close()


def _build_simulation(rs, machine, local_ranks=None, partition=None):
    """Construct the full simulation state of one run.

    ``rs`` must already be resolved and consistent with ``machine``.
    When ``local_ranks``/``partition`` are given (one PDES worker of a
    partitioned run, :mod:`repro.simx.parallel`), the World and the
    shared application state still span *all* ranks — replicated state
    evolves identically on every worker — but rank programs and their
    simulation processes are instantiated only for the local subset.
    """
    config, spec = rs.config, rs.machine

    # The profiler is the run's one recorder: the trace is a view over it.
    profiler = Profiler() if (rs.trace or rs.profile) else None
    env = Environment(
        metrics=profiler.metrics if profiler is not None else None
    )
    witness = AccessWitness(env) if rs.check_access else None
    network = spec.network.scaled_to(rs.num_nodes)
    # resolve() normalized inactive plans away, so a non-None plan here
    # always perturbs something.  Fault streams are keyed per rank, so a
    # worker instantiating all of them but drawing only from its local
    # ranks' streams reproduces the serial draws exactly.
    injector = (
        FaultInjector(
            rs.faults, network, machine.num_ranks, profiler=profiler
        )
        if rs.faults is not None
        else None
    )
    world = World(
        env, machine, network, profiler=profiler,
        faults=injector, partition=partition,
    )
    shared = SharedState(config, machine, spec, world)

    cores_per_rank = 1 if rs.variant == "mpi_only" else machine.cores_per_rank
    program_cls = VARIANTS[rs.variant]
    ranks = range(machine.num_ranks) if local_ranks is None else local_ranks
    programs = []
    for rank in ranks:
        runtime = RankRuntime(
            env,
            rank=rank,
            num_cores=cores_per_rank,
            cost_spec=spec.cost,
            numa=machine.placement(rank).spans_numa,
            scheduler=rs.scheduler,
            sched_seed=rs.sched_seed,
            witness=witness,
            profiler=profiler,
            faults=injector,
        )
        program = program_cls(shared, rank, world.comm(rank), runtime)
        if rs.delayed_checksum is not None and hasattr(
            program, "delayed_checksum"
        ):
            program.delayed_checksum = rs.delayed_checksum
        program.stage_barrier = rs.stage_barrier
        programs.append(program)

    sim = _Sim()
    sim.machine = machine
    sim.env = env
    sim.world = world
    sim.shared = shared
    sim.programs = programs
    sim.procs = [
        env.process(p.run(), name=f"rank{p.rank}") for p in programs
    ]
    sim.profiler = profiler
    sim.witness = witness
    sim.injector = injector
    return sim


def _execute(run_spec: RunSpec) -> RunResult:
    rs = run_spec.resolve()
    config, spec = rs.config, rs.machine
    num_nodes, ranks_per_node = rs.num_nodes, rs.ranks_per_node

    machine = spec.machine(num_nodes=num_nodes, ranks_per_node=ranks_per_node)
    if config.num_ranks != machine.num_ranks:
        raise ValueError(
            f"config rank grid {config.npx}x{config.npy}x{config.npz} = "
            f"{config.num_ranks} ranks, but the machine has "
            f"{machine.num_ranks} ({num_nodes} nodes x {ranks_per_node})"
        )

    if rs.pdes_workers > 1:
        from ..simx.parallel.runner import (
            can_partition,
            effective_workers,
            run_partitioned,
        )

        if can_partition() and effective_workers(rs, machine) > 1:
            return run_partitioned(rs)

    sim = _build_simulation(rs, machine)
    env, programs = sim.env, sim.programs
    for proc in sim.procs:
        env.run(until=proc)

    if sim.witness is not None:
        sim.witness.check()  # raises AccessRaceError on undeclared accesses

    env.flush_metrics()
    result = _finish_result(
        rs, machine, sim.profiler,
        sim.injector.stats if sim.injector is not None else None,
        makespan=env.now,
        refine_time=programs[0].refine_seconds,
        flops=sim.shared.flops,
        num_blocks=sim.shared.structure.num_blocks(),
        imbalance=max_imbalance(sim.shared.structure),
        checksums=list(sim.shared.checksum_log),
        comm_stats=CommStats.from_world(sim.world.stats),
        runtime_stats=[RuntimeStats.from_runtime(p.rt.stats) for p in programs],
    )
    sim.close()
    return result


def _finish_result(rs, machine, profiler, fault_stats, makespan,
                   pdes=None, **figures) -> RunResult:
    """Wrap a finished run's measured ``figures`` in its RunResult.

    The one place a run's envelope (variant, nodes, ranks per node,
    makespan) and its observation attachments are built, for a serial
    run and a partitioned one (:func:`repro.simx.parallel.run_partitioned`,
    which passes its ``pdes`` accounting) alike: the phase summary and the
    profiler when there is one, the profile report when ``rs.profile``,
    the trace view when ``rs.trace``, and the fault ledger
    ``fault_stats`` (a :class:`~repro.faults.FaultStats`) when a fault
    plan was active.
    """
    profile = None
    if rs.profile:
        profile = build_profile_report(
            profiler,
            rs,
            num_ranks=machine.num_ranks,
            cores_per_rank=(
                1 if rs.variant == "mpi_only" else machine.cores_per_rank
            ),
            makespan=makespan,
            fault_stats=fault_stats,
            pdes=pdes,
        )
    return RunResult(
        variant=rs.variant,
        num_nodes=rs.num_nodes,
        ranks_per_node=rs.ranks_per_node,
        total_time=makespan,
        phase_summary=(
            PhaseSummary.from_profiler(profiler)
            if profiler is not None
            else None
        ),
        profile=profile,
        fault_stats=(
            fault_stats.to_dict() if fault_stats is not None else None
        ),
        tracer=Tracer.from_profiler(profiler) if rs.trace else None,
        profiler=profiler,
        **figures,
    )
