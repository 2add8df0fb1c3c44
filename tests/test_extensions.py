"""Tests for the extensions beyond the paper: commutative ghost fills and
trace exports."""

import numpy as np
import pytest

from repro import AmrConfig, RunSpec, laptop, run_simulation, sphere
from repro.obs import TraceEvent, Tracer


def cfg(**kw):
    d = dict(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=4,
        num_tsteps=3, stages_per_ts=4, refine_freq=2, checksum_freq=4,
        max_refine_level=2,
        objects=(
            sphere(center=(0.3, 0.3, 0.3), radius=0.25,
                   move=(0.05, 0.05, 0.0)),
        ),
    )
    d.update(kw)
    return AmrConfig(**d)


def run(c, **kw):
    return run_simulation(RunSpec(
        config=c, machine=laptop(), variant="tampi_dataflow", num_nodes=1,
        ranks_per_node=2, **kw,
    ))


# ----------------------------------------------------------------------
# Commutative ghost fills
# ----------------------------------------------------------------------
def test_commutative_ghosts_same_physics():
    """Ghost fills are plane-disjoint: any mutually-exclusive order gives
    the same checksums."""
    plain = run(cfg())
    commutative = run(cfg(commutative_ghosts=True))
    assert plain.num_blocks == commutative.num_blocks
    assert len(plain.checksums) == len(commutative.checksums)
    for (_, a, _), (_, b, _) in zip(plain.checksums, commutative.checksums):
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12


def test_commutative_ghosts_run_completes_with_send_faces():
    res = run(cfg(commutative_ghosts=True, send_faces=True,
                  separate_buffers=True, max_comm_tasks=4))
    assert res.total_time > 0
    assert len(res.checksums) == 3


def test_commutative_ghosts_deterministic():
    a = run(cfg(commutative_ghosts=True))
    b = run(cfg(commutative_ghosts=True))
    assert a.total_time == b.total_time


# ----------------------------------------------------------------------
# Trace exports
# ----------------------------------------------------------------------
def test_to_records_roundtrip():
    t = Tracer([
        TraceEvent(0, 1, "task", "stencil b", "stencil", 0.5, 1.5),
        TraceEvent(2, -1, "mpi", "Isend", "mpi", 2.0, 2.1),
    ])
    records = t.to_records()
    assert len(records) == 2
    assert records[0]["phase"] == "stencil"
    assert records[0]["duration"] == pytest.approx(1.0)
    assert records[1]["rank"] == 2
    assert records[1]["kind"] == "mpi"


def test_summarize_empty():
    assert Tracer().summarize() == "empty trace"


def test_summarize_counts():
    t = Tracer([
        TraceEvent(0, 0, "task", "a", "stencil", 0.0, 1.0),
        TraceEvent(1, 0, "task", "b", "pack", 1.0, 2.0),
        TraceEvent(0, -1, "mpi", "Wait", "mpi", 0.0, 0.5),
    ])
    text = t.summarize()
    assert "2 task" in text
    assert "1 mpi" in text
    assert "2 ranks" in text


def test_run_trace_export():
    res = run(cfg(num_tsteps=1, refine_freq=0, max_refine_level=0,
                  objects=()), trace=True)
    records = res.tracer.to_records()
    assert records
    assert "events" in res.tracer.summarize()
