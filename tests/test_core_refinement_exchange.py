"""Focused tests on refinement coordination and the ACK block exchange."""

import numpy as np
import pytest

import repro.core.app as app
from repro import AmrConfig, RunSpec, laptop, run_simulation, sphere


def base_cfg(**kw):
    d = dict(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2,
        num_tsteps=4, stages_per_ts=2, refine_freq=1, checksum_freq=0,
        max_refine_level=2,
        objects=(
            sphere(center=(0.2, 0.3, 0.3), radius=0.2,
                   move=(0.12, 0.05, 0.05)),
        ),
    )
    d.update(kw)
    return AmrConfig(**d)


def run(variant="tampi_dataflow", cfg=None, **kw):
    return run_simulation(RunSpec(
        config=cfg or base_cfg(), machine=laptop(), variant=variant,
        num_nodes=1, ranks_per_node=2, **kw,
    ))


def test_refinement_runs_every_refine_freq():
    res = run()
    # Initial refinement + after ts 1..3 (not after the last).
    assert res.refine_time > 0
    assert res.num_blocks > 8


def test_moving_object_changes_refinement_over_time():
    """As the sphere moves, different regions refine; block totals move."""
    short = run(cfg=base_cfg(num_tsteps=2))
    long = run(cfg=base_cfg(num_tsteps=6))
    assert short.num_blocks != long.num_blocks or (
        short.num_blocks > 8 and long.num_blocks > 8
    )


def test_refinement_disabled_keeps_mesh_static():
    cfg = base_cfg(refine_freq=0, max_refine_level=0, objects=())
    res = run(cfg=cfg)
    assert res.num_blocks == 8
    assert res.refine_time == 0.0


def test_coarsening_returns_blocks_when_object_leaves():
    """The sphere exits the domain; refined regions consolidate back."""
    cfg = base_cfg(
        num_tsteps=8,
        objects=(
            sphere(center=(0.25, 0.25, 0.25), radius=0.15,
                   move=(0.35, 0.35, 0.35)),
        ),
    )
    res = run(cfg=cfg)
    # By the end the object is far outside the unit cube; the mesh has
    # coarsened back to (or near) the root mesh.
    assert res.num_blocks <= 16


def test_exchange_conserves_checksum_across_rebalances():
    cfg = base_cfg(checksum_freq=2, num_tsteps=4)
    res = run(cfg=cfg)
    assert len(res.checksums) == 4
    for _t, total, _d in res.checksums:
        assert np.all(np.isfinite(total))


@pytest.mark.parametrize("capacity", [0, 200, 100])
def test_capacity_bounds_do_not_change_results(capacity):
    cfg = base_cfg(checksum_freq=4, max_blocks_per_rank=capacity)
    res = run(cfg=cfg)
    free = run(cfg=base_cfg(checksum_freq=4))
    assert res.num_blocks == free.num_blocks
    for (_, a, _), (_, b, _) in zip(res.checksums, free.checksums):
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12


def test_capacity_exchange_slower_than_unlimited():
    """Deferred moves require extra protocol rounds (more time)."""
    tight = run(cfg=base_cfg(max_blocks_per_rank=110))
    free = run()
    assert tight.total_time >= free.total_time


def test_refinement_identical_across_variants():
    """All variants apply the same refinement plans: same final mesh."""
    per_variant = {}
    for variant in ("mpi_only", "fork_join", "tampi_dataflow"):
        if variant == "mpi_only":
            cfg = base_cfg(npx=2, npy=2, npz=1, init_x=1, init_y=1,
                           init_z=2)
            res = run_simulation(RunSpec(
                config=cfg, machine=laptop(), variant=variant,
                num_nodes=1, ranks_per_node=4,
            ))
        else:
            res = run(variant)
        per_variant[variant] = res.num_blocks
    assert len(set(per_variant.values())) == 1, per_variant


def test_imbalance_bounded_after_balancing():
    res = run(cfg=base_cfg(num_tsteps=6))
    # SFC partition keeps per-rank counts within one block of the mean.
    assert res.imbalance <= 1.5


@pytest.mark.parametrize(
    "variant", ["mpi_only", "fork_join", "tampi_dataflow"]
)
def test_uneven_groups_build_each_epoch_plan_once(monkeypatch, variant):
    """Groups of 2, 2 and 1 variables alternate two plan sizes every
    stage; each (epoch, nvars) plan is still built exactly once."""
    requested, built = set(), []
    real_build = app.build_all_rank_plans
    real_commplans = app.SharedState.commplans

    def build(structure, config, nvars):
        built.append(nvars)
        return real_build(structure, config, nvars)

    def commplans(self, epoch, nvars):
        requested.add((epoch, nvars))
        return real_commplans(self, epoch, nvars)

    monkeypatch.setattr(app, "build_all_rank_plans", build)
    monkeypatch.setattr(app.SharedState, "commplans", commplans)
    run(variant, cfg=base_cfg(num_vars=5, comm_vars=2))
    assert {nvars for _epoch, nvars in requested} == {1, 2}
    assert len(built) == len(requested)
