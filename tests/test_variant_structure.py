"""Structural tests: each variant creates the task/message pattern the
paper describes (phases, task types, message counts)."""

import pytest

from repro import AmrConfig, RunSpec, laptop, run_simulation, sphere
from repro.obs import task_time_by_phase


def cfg(**kw):
    d = dict(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=4,
        num_tsteps=2, stages_per_ts=3, refine_freq=1, checksum_freq=3,
        max_refine_level=1,
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25),),
    )
    d.update(kw)
    return AmrConfig(**d)


def run(variant, c=None, **kw):
    kw.setdefault("ranks_per_node", 2)
    return run_simulation(RunSpec(
        config=c or cfg(), machine=laptop(), variant=variant, num_nodes=1,
        trace=True, **kw,
    ))


def test_tampi_task_phases_match_algorithm3():
    res = run("tampi_dataflow", cfg(send_faces=True, separate_buffers=True))
    phases = task_time_by_phase(res.tracer)
    # Algorithm 3's task types all appear.
    for expected in ("recv", "pack", "send", "intra", "unpack", "stencil",
                     "checksum"):
        assert expected in phases, (expected, sorted(phases))
    # Refinement task types (Section IV-B).
    assert "split" in phases
    # Every phase actually consumed time.
    assert all(v > 0 for v in phases.values())


def test_fork_join_uses_parallel_regions():
    res = run("fork_join")
    phases = task_time_by_phase(res.tracer)
    # Fork-join parallelizes stencil/pack/unpack/intra/checksum as chunk
    # tasks, but has NO communication tasks (master-only MPI).
    assert "stencil" in phases
    assert "intra" in phases
    assert "checksum" in phases
    assert "recv" not in phases
    assert "send" not in phases


def test_mpi_only_has_no_tasks_at_all():
    res = run("mpi_only", cfg(npx=2, npy=2, npz=1, init_x=1, init_y=1,
                              init_z=2), ranks_per_node=4)
    assert res.tracer.by_kind("task") == []
    # ...but plenty of MPI call events (Algorithm 2).
    names = {e.name for e in res.tracer.by_kind("mpi")}
    assert {"Isend", "Irecv", "Waitany", "Waitall"} <= names


def test_tampi_fewer_but_larger_messages_when_aggregated():
    fine = run("tampi_dataflow", cfg(send_faces=True, separate_buffers=True))
    agg = run("tampi_dataflow")
    assert agg.comm_stats.messages < fine.comm_stats.messages
    # Identical bytes moved in face payloads regardless of aggregation is
    # not exactly true (block exchange etc.), but same order of magnitude.
    assert agg.comm_stats.bytes_sent == pytest.approx(
        fine.comm_stats.bytes_sent, rel=0.2
    )


def test_mpi_only_uses_more_ranks_and_messages():
    mpi = run("mpi_only", cfg(npx=2, npy=2, npz=1, init_x=1, init_y=1,
                              init_z=2), ranks_per_node=4)
    tampi = run("tampi_dataflow")
    assert mpi.ranks_per_node > tampi.ranks_per_node
    assert mpi.comm_stats.messages > tampi.comm_stats.messages


def test_refine_phase_markers_present_in_all_variants():
    for variant in ("mpi_only", "fork_join", "tampi_dataflow"):
        c = (
            cfg(npx=2, npy=2, npz=1, init_x=1, init_y=1, init_z=2)
            if variant == "mpi_only"
            else cfg()
        )
        rpn = 4 if variant == "mpi_only" else 2
        res = run_simulation(RunSpec(
            config=c, machine=laptop(), variant=variant, num_nodes=1,
            ranks_per_node=rpn, trace=True,
        ))
        spans = res.tracer.phases("refine")
        assert spans, variant
        assert sum(s.duration for s in spans if s.rank == 0) == (
            pytest.approx(res.refine_time)
        )
