"""RunResult round trips: typed stats, JSON serialization, equality."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import AmrConfig, RunResult, RunSpec, run_simulation, sphere
from repro.core import CommStats, RuntimeStats
from repro.obs import (
    Tracer,
    core_utilization,
    mpi_time_by_call,
    overlap_fraction,
    unpack_follows_gap_fraction,
)


@pytest.fixture(scope="module")
def result():
    cfg = AmrConfig(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2, num_tsteps=2, stages_per_ts=2,
        refine_freq=1, checksum_freq=2, max_refine_level=1,
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25,
                        move=(0.05, 0.0, 0.0)),),
    )
    return run_simulation(RunSpec(
        config=cfg, machine="laptop", variant="tampi_dataflow",
        ranks_per_node=2,
    ))


def test_stats_are_typed_and_serializable(result):
    assert isinstance(result.comm_stats, CommStats)
    assert result.comm_stats.messages > 0
    assert result.comm_stats.bytes_sent > 0
    assert all(isinstance(s, RuntimeStats) for s in result.runtime_stats)
    assert sum(s.tasks_executed for s in result.runtime_stats) > 0
    # The whole result must be plain-JSON representable.
    json.dumps(result.to_dict())


def test_round_trip_equality(result):
    again = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert again == result
    assert result == again


def test_round_trip_preserves_exact_floats(result):
    again = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert again.total_time == result.total_time
    assert again.flops == result.flops
    for (ta, ca, da), (tb, cb, db) in zip(result.checksums, again.checksums):
        assert ta == tb and da == db
        assert np.array_equal(np.asarray(ca), np.asarray(cb))
        assert cb.dtype == np.float64


def test_inequality_on_changed_field(result):
    other = RunResult.from_dict(result.to_dict())
    other.total_time += 1e-9
    assert other != result


def test_inequality_on_changed_checksum(result):
    other = RunResult.from_dict(result.to_dict())
    t, total, d = other.checksums[-1]
    other.checksums[-1] = (t, total + 1.0, d)
    assert other != result


@pytest.fixture(scope="module")
def traced():
    cfg = AmrConfig(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2, num_tsteps=2, stages_per_ts=2,
        refine_freq=1, checksum_freq=2, max_refine_level=1,
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25,
                        move=(0.05, 0.0, 0.0)),),
    )
    return run_simulation(RunSpec(
        config=cfg, machine="laptop", variant="tampi_dataflow",
        ranks_per_node=2, trace=True,
    ))


def _json_round_trip(res):
    return RunResult.from_dict(json.loads(json.dumps(res.to_dict())))


def test_tracer_serializes_as_event_rows(result, traced):
    # Untraced dicts carry no trace entry (goldens stay byte-identical)...
    assert "trace" not in result.to_dict()
    assert RunResult.from_dict(result.to_dict()).tracer is None
    # ...traced ones carry one compact row per event.
    rows = traced.to_dict()["trace"]
    assert len(rows) == len(traced.tracer.events) > 0
    assert all(len(row) == 7 for row in rows)
    assert _json_round_trip(traced).tracer.events == traced.tracer.events


def test_equality_compares_tracer(traced):
    assert _json_round_trip(traced) == traced
    untraced = replace(traced, tracer=None)
    assert untraced != traced and traced != untraced
    truncated = replace(
        traced, tracer=Tracer(traced.tracer.events[:-1])
    )
    assert truncated != traced


def test_trace_analyses_survive_round_trip(traced):
    back = _json_round_trip(traced).tracer
    live = traced.tracer
    cores = 1 + max(e.core for e in live.by_kind("task") if e.rank == 0)
    window = (0.0, traced.total_time)
    assert mpi_time_by_call(back) == mpi_time_by_call(live)
    assert mpi_time_by_call(back, rank=1) == mpi_time_by_call(live, rank=1)
    assert (core_utilization(back, 0, cores, *window)
            == core_utilization(live, 0, cores, *window))
    assert (overlap_fraction(back, 0, "stencil", "pack")
            == overlap_fraction(live, 0, "stencil", "pack"))
    assert (unpack_follows_gap_fraction(back, 0)
            == unpack_follows_gap_fraction(live, 0))


def test_derived_metrics_survive_round_trip(result):
    again = RunResult.from_dict(result.to_dict())
    assert again.gflops == result.gflops
    assert again.non_refine_time == result.non_refine_time
