"""What a rank program's inline charges and face copies cost, pinned.

A rank program binds two things at construction: its runtime's noise
``stretch`` (after any fault injector is layered on, so faults still
stretch inline charges) and its copy bandwidth (divided by the NUMA
penalty when the rank spans domains).  Face payloads report to the
access witness only when one is set.  None of this may move a result:

* ``copy_cost`` is bitwise ``CostSpec.copy_time``;
* a fault-plan run's ``total_time`` is pinned;
* a ``check_access`` run's touch sequence is pinned by digest, in both
  the MPI-only and the data-flow variant.
"""

import hashlib
import sys

import pytest

from repro import AmrConfig, sphere
from repro.core import RunSpec, driver, run_simulation
from repro.faults import FaultPlan
from repro.faults.injectors import FaultyNoise
from repro.machine.costmodel import NoiseModel
from repro.simx import Environment
from repro.verify.witness import AccessWitness

#: ``total_time`` of :func:`_spec` ("mpi_only", faults=_CPU_FAULTS), as
#: ``float.hex``.  Regenerate only for a deliberate change of behaviour.
FAULT_RUN_TOTAL_TIME = "0x1.8e83756840fb1p-11"

#: sha256 of every ``(kind, handle, now)`` a ``check_access`` run of
#: :func:`_spec` reports to the witness, in report order.
TOUCH_DIGESTS = {
    "mpi_only":
        "7edbcec0be1f4bdc13b784ff6a2f00b61e76006451480ee4f012a861cca2bc94",
    "tampi_dataflow":
        "78e51a0e4d67a176a0b36e597aaa795412305b23d4e300088c49579630e69d15",
}

_CPU_FAULTS = FaultPlan(seed=5, cpu_noise_factor=0.1, cpu_burst_rate=400.0,
                        straggler_ranks=(1,), straggler_factor=1.3)


def _spec(variant, **overrides):
    """A small synthetic run that refines, coarsens and moves blocks."""
    cfg = AmrConfig(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2,
        num_tsteps=3, stages_per_ts=2, refine_freq=1, checksum_freq=2,
        max_refine_level=1, payload="synthetic",
        objects=(sphere(center=(0.4, 0.45, 0.5), radius=0.2,
                        move=(0.25, 0.0, 0.0)),),
    )
    fields = dict(config=cfg, machine="laptop", variant=variant,
                  num_nodes=1, ranks_per_node=2)
    fields.update(overrides)
    return RunSpec(**fields)


def _programs(spec):
    rs = spec.resolve()
    machine = rs.machine.machine(num_nodes=rs.num_nodes,
                                 ranks_per_node=rs.ranks_per_node)
    sim = driver._build_simulation(rs, machine)
    programs = sim.programs
    sim.close()
    return programs


@pytest.mark.parametrize("ranks_per_node, numa", [(2, False), (1, True)])
def test_copy_cost_is_bitwise_copy_time(ranks_per_node, numa):
    """A rank spanning NUMA domains (one rank per two-socket node) binds
    the penalized bandwidth; either way ``copy_cost`` is bit for bit
    ``CostSpec.copy_time`` for empty, odd and face-sized copies."""
    spec = _spec("mpi_only", machine="marenostrum4",
                 num_nodes=2 // ranks_per_node, ranks_per_node=ranks_per_node)
    for program in _programs(spec):
        assert program.numa is numa
        for nbytes in (0, 1, 12345, 4 * 4 * 2 * 8, 16 * 16 * 40 * 8,
                       3 * 10**7 + 7):
            expected = program.cost.copy_time(nbytes, numa=numa)
            assert program.copy_cost(nbytes).hex() == expected.hex()


def test_bound_stretch_is_the_runtime_noise_stretch():
    for program in _programs(_spec("mpi_only")):
        assert type(program.rt.noise) is NoiseModel
        assert program._stretch == program.rt.noise.stretch
    for program in _programs(_spec("mpi_only", faults=_CPU_FAULTS)):
        assert type(program.rt.noise) is FaultyNoise
        assert program._stretch == program.rt.noise.stretch


def test_a_fault_plan_stretches_task_and_inline_charges(monkeypatch):
    """The runtime and the program both bind the fault-layered stretch,
    so task executions and inline charges alike pass through it."""
    callers = []
    stretch = FaultyNoise.stretch

    def recording(self, seconds):
        callers.append(sys._getframe(1).f_code.co_name)
        return stretch(self, seconds)

    monkeypatch.setattr(FaultyNoise, "stretch", recording)
    spec = _spec("tampi_dataflow", faults=_CPU_FAULTS)
    for program in _programs(spec):
        assert program.rt._stretch == program.rt.noise.stretch
        assert program._stretch == program.rt.noise.stretch
    driver.execute(spec)
    assert {"_execute", "charge"} <= set(callers)


def test_a_cpu_fault_plan_stretches_inline_charges():
    faulty = driver.execute(_spec("mpi_only", faults=_CPU_FAULTS))
    plain = driver.execute(_spec("mpi_only"))
    assert faulty.total_time > plain.total_time
    assert faulty.total_time.hex() == FAULT_RUN_TOTAL_TIME


@pytest.mark.parametrize("variant", sorted(TOUCH_DIGESTS))
def test_witness_touch_sequence_is_pinned(monkeypatch, variant):
    digest = hashlib.sha256()
    count = 0
    touch = AccessWitness.touch

    def recording(self, kind, handle):
        nonlocal count
        count += 1
        digest.update(repr((kind, handle, self.env.now)).encode())
        return touch(self, kind, handle)

    monkeypatch.setattr(AccessWitness, "touch", recording)
    result = driver.execute(_spec(variant, check_access=True))
    assert result.total_time > 0
    assert count > 0
    assert digest.hexdigest() == TOUCH_DIGESTS[variant]


@pytest.mark.parametrize("variant",
                         ["mpi_only", "fork_join", "tampi_dataflow"])
def test_cpu_charges_allocate_no_event(monkeypatch, variant):
    """A CPU charge yields its delay: no tasking, core or TAMPI frame
    creates a timeout event.  The MPI layer's message timers may."""
    timeout = Environment.timeout
    callers = []

    def spy(self, *args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return timeout(self, *args, **kwargs)

    monkeypatch.setattr(Environment, "timeout", spy)
    run_simulation(_spec(variant))
    charged = sorted({
        name for name in callers
        if name.startswith(("repro.tasking", "repro.core", "repro.tampi"))
    })
    assert charged == []
