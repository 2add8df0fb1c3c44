"""A finished run is reclaimed by refcounting alone.

The driver suspends the cyclic collector for a run and never sweeps
afterwards, so every variant, with every recorder and perturbation
switched on, must leave zero cyclic garbage once its result is dropped.
"""

import gc

import pytest

from repro import AmrConfig, sphere
from repro.core import RunSpec, driver
from repro.core.spec import VARIANT_NAMES
from repro.faults import FaultPlan


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


@pytest.mark.parametrize("variant", VARIANT_NAMES)
@pytest.mark.parametrize("overrides", [
    {},
    {"trace": True},
    {"profile": True},
    {"check_access": True},
    {"scheduler": "fuzz", "sched_seed": 3},
    {"faults": FaultPlan(seed=3, cpu_noise_factor=0.02,
                         message_jitter=1e-6, message_loss_rate=0.03,
                         straggler_ranks=(1,), straggler_factor=1.5)},
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
