"""A finished run is reclaimed by refcounting alone.

The driver suspends the cyclic collector for a run and never sweeps
afterwards, so every variant, with every recorder and perturbation
switched on, must leave zero cyclic garbage once its result is dropped.

A run does not wait for its end to free its task graph either: the
dependency tracker forgets a handle's history once every task that
registered on it has completed, and a completed task drops its successor
list.  Neither may change a single dependency edge, since a predecessor
set depends only on incomplete tasks.
"""

import gc
import itertools
import random
from types import SimpleNamespace

import pytest

from repro import AmrConfig, sphere
from repro.core import RunSpec, driver
from repro.core.spec import VARIANT_NAMES
from repro.faults import FaultPlan
from repro.tasking import DependencyTracker
from repro.tasking.task import AccessMode, Task, TaskState


def _spec(variant, **overrides):
    cfg = AmrConfig(
        npx=2, npy=2, npz=1, init_x=1, init_y=1, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2,
        num_tsteps=2, stages_per_ts=3, refine_freq=1, checksum_freq=3,
        max_refine_level=1,
        objects=(sphere(center=(0.4, 0.45, 0.5), radius=0.2,
                        move=(0.05, 0.0, 0.0)),),
    )
    fields = dict(config=cfg, machine="laptop", variant=variant,
                  num_nodes=2, ranks_per_node=2)
    fields.update(overrides)
    return RunSpec(**fields)


@pytest.fixture
def gc_off():
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if was_enabled:
        gc.enable()


_FAULTS = FaultPlan(seed=3, cpu_noise_factor=0.02, message_jitter=1e-6,
                    message_loss_rate=0.03, straggler_ranks=(1,),
                    straggler_factor=1.5)


@pytest.mark.parametrize("variant", VARIANT_NAMES)
@pytest.mark.parametrize("overrides", [
    {},
    {"trace": True},
    {"profile": True},
    {"check_access": True},
    {"scheduler": "fuzz", "sched_seed": 3},
    {"faults": _FAULTS},
], ids=["plain", "trace", "profile", "check_access", "fuzz", "faults"])
def test_a_finished_run_leaves_no_cyclic_garbage(gc_off, variant, overrides):
    result = driver._execute(_spec(variant, **overrides))
    assert result.total_time > 0
    del result
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_is_restored_after_a_run_that_raises(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(ValueError, match="rank grid"):
            driver.execute(_spec("mpi_only", ranks_per_node=1))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("variant", VARIANT_NAMES)
@pytest.mark.parametrize("overrides", [
    {},
    {"profile": True},
    {"scheduler": "fuzz", "sched_seed": 3},
    {"faults": _FAULTS},
], ids=["plain", "profile", "fuzz", "faults"])
def test_no_task_or_history_outlives_the_run(monkeypatch, variant, overrides):
    seen = {}
    close = driver._Sim.close

    def counting_close(sim):
        seen["tasks"] = sum(
            1 for obj in gc.get_objects()
            if type(obj) is Task and obj.env is sim.env
        )
        seen["histories"] = sum(
            len(p.rt.tracker._scalar) for p in sim.programs
        )
        close(sim)

    monkeypatch.setattr(driver._Sim, "close", counting_close)
    result = driver.execute(_spec(variant, **overrides))
    assert result.total_time > 0
    assert seen == {"tasks": 0, "histories": 0}


class _NeverForget(DependencyTracker):
    """A tracker that keeps every history for the whole run."""

    def release(self, task):
        pass


@pytest.mark.parametrize("seed", range(5))
def test_forgetting_tracker_wires_the_same_graph(seed):
    """Same npred and successor order as a tracker that never forgets,
    on a random access stream with completions interleaved."""
    rng = random.Random(seed)
    modes = list(AccessMode)
    trackers = (DependencyTracker(), _NeverForget())
    envs = [SimpleNamespace(task_ids=itertools.count(1)) for _ in trackers]
    tasks = ({}, {})  # tid -> incomplete task, one table per tracker
    ready = []  # tids whose predecessors all completed

    def complete(tid):
        outcomes = []
        for tracker, table in zip(trackers, tasks):
            task = table.pop(tid)
            task.state = TaskState.COMPLETED
            order = [succ.tid for succ in task.successors]
            released = []
            for succ in task.successors:
                succ.npred -= 1
                if succ.npred == 0:
                    released.append(succ.tid)
            task.successors = ()
            tracker.release(task)
            outcomes.append((order, released))
        assert outcomes[0] == outcomes[1]
        ready.extend(outcomes[0][1])

    forgot = False
    for _ in range(400):
        if ready and rng.random() < 0.45:
            complete(ready.pop(rng.randrange(len(ready))))
            continue
        accesses = [(rng.choice(modes), f"h{rng.randrange(6)}")
                    for _ in range(rng.randint(0, 3))]
        npreds = set()
        for tracker, env, table in zip(trackers, envs, tasks):
            task = Task(env, "t", accesses=accesses)
            table[task.tid] = task
            npreds.add(tracker.register(task))
        assert len(npreds) == 1
        if npreds == {0}:
            ready.append(task.tid)
        forgot |= len(trackers[0]._scalar) < len(trackers[1]._scalar)
    while ready:
        complete(ready.pop(0))
    assert tasks == ({}, {})
    assert forgot and trackers[0]._scalar == {}


def test_a_profiled_run_keeps_every_dag_edge():
    """The profiler takes each successor list before the task drops it."""
    result = driver.execute(_spec("tampi_dataflow", profile=True))
    profiler = result.profiler
    profiler.materialize_edges()
    # The edge count of this run when completed tasks kept their lists.
    assert sum(len(rec.preds) for rec in profiler.tasks.values()) == 5863
