"""Fault injection and observability under the partitioned kernel.

Fault determinism rests on keyed RNG streams — ``(seed, kind, rank)`` —
so a worker only ever draws from the streams of ranks it owns and the
draw sequence cannot depend on how ranks are partitioned.  These tests
pin that down end to end: an *active* FaultPlan (CPU noise, message
jitter, message loss — the last two perturbing cross-partition traffic)
must produce byte-identical results at every worker count, and the
per-partition window-stall accounting in the ProfileReport must be
internally consistent with measured wall clock.
"""

import json
import time
from dataclasses import replace

import pytest

from repro import AmrConfig, sphere
from repro.core import RunSpec
from repro.core.driver import run_simulation
from repro.faults import FaultPlan


def _spec(**overrides):
    cfg = AmrConfig(
        npx=2, npy=2, npz=1, init_x=1, init_y=1, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2,
        num_tsteps=2, stages_per_ts=3, refine_freq=1, checksum_freq=3,
        max_refine_level=1,
        objects=(sphere(center=(0.4, 0.45, 0.5), radius=0.2,
                        move=(0.05, 0.0, 0.0)),),
    )
    base = dict(config=cfg, machine="laptop", variant="mpi_only",
                num_nodes=1, ranks_per_node=4, scheduler="locality")
    base.update(overrides)
    return RunSpec(**base)


def _canon(result):
    return json.dumps(result.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Active fault plans across worker counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plan", [
    # CPU noise + bursts: per-rank compute stretch.
    FaultPlan(seed=11, cpu_noise_factor=0.05, cpu_burst_rate=200.0,
              cpu_burst_time=5e-6),
    # Network jitter + loss: perturbs (and drops) messages that cross
    # partition boundaries, forcing retransmissions.
    FaultPlan(seed=7, message_jitter=2e-6, message_loss_rate=0.05),
    # Everything at once, plus a straggler rank.
    FaultPlan(seed=3, cpu_noise_factor=0.02, message_jitter=1e-6,
              message_loss_rate=0.03, straggler_ranks=(1,),
              straggler_factor=1.5),
], ids=["cpu", "network", "combined"])
def test_fault_plan_identical_across_worker_counts(plan):
    assert plan.is_active()
    spec = _spec(faults=plan)
    serial = run_simulation(spec)
    baseline = _canon(serial)
    # The plan actually did something observable.
    fs = serial.fault_stats
    assert fs is not None
    assert (fs["injected_cpu_seconds"] > 0
            or fs["injected_network_seconds"] > 0
            or fs["messages_lost"] > 0)
    for workers in (2, 4):
        part = run_simulation(replace(spec, pdes_workers=workers))
        assert _canon(part) == baseline, (
            f"fault injection diverged at pdes_workers={workers}"
        )


def test_fault_stats_merge_is_exact():
    """Per-rank fsum accumulators make injected-seconds totals
    independent of which worker added which increments."""
    plan = FaultPlan(seed=5, cpu_noise_factor=0.1, message_jitter=3e-6)
    spec = _spec(faults=plan)
    a = run_simulation(spec).fault_stats
    b = run_simulation(replace(spec, pdes_workers=4)).fault_stats
    assert a == b
    # Bit-equality of the float totals, not approx.
    assert a["injected_cpu_seconds"] == b["injected_cpu_seconds"]
    assert a["injected_network_seconds"] == b["injected_network_seconds"]


# ----------------------------------------------------------------------
# ProfileReport window-stall attribution
# ----------------------------------------------------------------------
def test_profile_pdes_stall_accounting():
    spec = _spec(profile=True, pdes_workers=2)
    t0 = time.perf_counter()
    result = run_simulation(spec)
    wall = time.perf_counter() - t0

    pdes = result.profile.pdes
    assert pdes["workers"] == 2
    assert pdes["windows"] >= 1
    assert pdes["lookahead"] > 0
    stall = pdes["stall_wall_seconds"]
    elapsed = pdes["elapsed_wall_seconds"]
    assert len(stall) == len(elapsed) == 2
    for s, e in zip(stall, elapsed):
        # Stall is measured around the two window barriers, so it is a
        # subset of the worker's total wall time, which in turn cannot
        # exceed the whole run's wall clock.
        assert 0.0 <= s <= e
        assert e <= wall
    # The serialized report round-trips the pdes block.
    from repro.obs import ProfileReport
    again = ProfileReport.from_dict(result.profile.to_dict())
    assert again.pdes == pdes


def test_profile_serial_has_no_pdes_block():
    result = run_simulation(_spec(profile=True))
    assert result.profile.pdes == {}
    assert "pdes" not in result.profile.to_dict()


def test_profile_fault_attribution_consistent_when_partitioned():
    """Fault-delay intervals survive the profiler merge: the partitioned
    profile attributes the same injected CPU seconds as the serial one."""
    plan = FaultPlan(seed=9, cpu_noise_factor=0.08)
    spec = _spec(faults=plan, profile=True)
    serial = run_simulation(spec)
    part = run_simulation(replace(spec, pdes_workers=2))
    assert serial.fault_stats == part.fault_stats
    # Same task population in both profiles.
    s_tasks = serial.profile.to_dict().get("tasks")
    p_tasks = part.profile.to_dict().get("tasks")
    assert s_tasks == p_tasks


# ----------------------------------------------------------------------
# Trace coverage: the merged profiler is the partitioned run's trace
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["mpi_only", "tampi_dataflow"])
def test_trace_partitioned_matches_serial(variant):
    spec = _spec(trace=True, variant=variant)
    if variant != "mpi_only":
        spec = replace(spec, ranks_per_node=2, num_nodes=2)
    serial = run_simulation(spec)
    part = run_simulation(replace(spec, pdes_workers=2))
    assert part.profile is None

    def key(e):
        return (e.t0, e.t1, e.rank, e.core, e.kind, e.name, e.phase)

    s_events = sorted(serial.tracer.events, key=key)
    assert s_events
    assert sorted(part.tracer.events, key=key) == s_events
    assert {e.kind for e in s_events} >= {"mpi", "phase"}
    assert part.phase_summary == serial.phase_summary


@pytest.mark.parametrize("variant", ["mpi_only", "tampi_dataflow"])
def test_traced_partitioned_result_is_byte_identical(variant):
    # The trace serializes with the result, so it is held to the same
    # contract as every other field: event for event, in order.
    spec = _spec(trace=True, variant=variant)
    if variant != "mpi_only":
        spec = replace(spec, ranks_per_node=2, num_nodes=2)
    serial = run_simulation(spec)
    part = run_simulation(replace(spec, pdes_workers=2))
    assert part.tracer == serial.tracer
    assert _canon(part) == _canon(serial)
