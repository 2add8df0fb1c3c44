"""Tests for the tracing module: events, analyses, Paraver export."""

import pytest

from repro import AmrConfig, RunSpec, run_simulation
from repro.obs import (
    Profiler,
    TraceEvent,
    Tracer,
    core_utilization,
    legend,
    mpi_time_by_call,
    overlap_fraction,
    phase_time,
    render_ascii,
    task_time_by_phase,
    unpack_follows_gap_fraction,
    write_pcf,
    write_prv,
)


def _small_spec(**overrides):
    cfg = AmrConfig(
        npx=2, npy=1, npz=1, init_x=1, init_y=1, init_z=1,
        nx=4, ny=4, nz=4, num_vars=2, num_tsteps=1, stages_per_ts=2,
        refine_freq=0, checksum_freq=2, max_refine_level=0, objects=(),
    )
    return RunSpec(config=cfg, machine="laptop", variant="tampi_dataflow",
                   ranks_per_node=2, **overrides)


def make_tracer():
    return Tracer([
        # rank 0, core 0: stencil [0,2], pack [2,3], idle [3,5], unpack [5,6]
        TraceEvent(0, 0, "task", "stencil b1", "stencil", 0.0, 2.0),
        TraceEvent(0, 0, "task", "pack b1", "pack", 2.0, 3.0),
        TraceEvent(0, 0, "task", "unpack b1", "unpack", 5.0, 6.0),
        # rank 0, core 1: intra [1,4]
        TraceEvent(0, 1, "task", "intra b2", "intra", 1.0, 4.0),
        # MPI calls on rank 0
        TraceEvent(0, -1, "mpi", "Isend", "mpi", 2.9, 3.0),
        TraceEvent(0, -1, "mpi", "Waitany", "mpi", 3.0, 5.0),
        # phases
        TraceEvent(0, -1, "phase", "refine", "refine", 6.0, 8.0),
    ])


def test_event_duration():
    e = TraceEvent(0, 0, "task", "x", "stencil", 1.0, 3.5)
    assert e.duration == 2.5


def test_disabled_tracer_records_nothing():
    # Without trace or profile no recorder is installed: every hook site
    # is a skipped ``is None`` branch and the result carries no trace.
    res = run_simulation(_small_spec())
    assert res.tracer is None
    assert res.profiler is None
    assert res.phase_summary is None


class _Task:
    def __init__(self, tid, label, phase):
        self.tid, self.label, self.phase = tid, label, phase


def test_from_profiler_merges_streams_by_end_time():
    prof = Profiler()
    a, b = _Task(0, "stencil a", "stencil"), _Task(1, "pack b", "pack")
    prof.task_spawned(a, 0, 0.0)
    prof.task_spawned(b, 1, 0.0)
    prof.phase_begin(0, "timestep", 0.0)
    prof.task_ran(b, 0, 0.0, 1.0)  # b finishes first: recording order
    prof.mpi_call(1, "Isend", 1.0, 1.5)
    prof.task_ran(a, 2, 0.5, 2.0)
    prof.phase_end(0, "timestep", 3.0)
    t = Tracer.from_profiler(prof)
    assert [(e.kind, e.name) for e in t.events] == [
        ("task", "pack b"), ("mpi", "Isend"), ("task", "stencil a"),
        ("phase", "timestep"),
    ]
    assert t.events[0] == TraceEvent(1, 0, "task", "pack b", "pack", 0.0, 1.0)
    assert t.events[1] == TraceEvent(1, -1, "mpi", "Isend", "mpi", 1.0, 1.5)
    assert phase_time(t, "timestep") == 3.0


def test_traced_run_is_a_view_over_its_profiler():
    res = run_simulation(_small_spec(trace=True))
    assert res.profile is None  # a report is built only for profile=True
    assert res.tracer.events == Tracer.from_profiler(res.profiler).events
    assert len(res.tracer.by_kind("task")) == len(res.profiler.ran) > 0
    assert res.phase_summary.events == len(res.tracer.events)
    assert res.phase_summary.task_time_by_phase == pytest.approx(
        task_time_by_phase(res.tracer)
    )


def test_by_kind_and_for_rank():
    t = make_tracer()
    assert len(t.by_kind("task")) == 4
    assert len(t.by_kind("mpi")) == 2
    assert len(t.for_rank(0)) == 7
    assert t.for_rank(3) == []


def test_phase_time():
    t = make_tracer()
    assert phase_time(t, "refine") == pytest.approx(2.0)
    assert phase_time(t, "absent") == 0.0


def test_phase_end_without_begin_ignored():
    prof = Profiler()
    prof.phase_end(0, "never-began", 1.0)
    assert prof.phases == []
    assert Tracer.from_profiler(prof).events == []


def test_mpi_time_by_call():
    t = make_tracer()
    totals = mpi_time_by_call(t)
    assert totals["Waitany"] == pytest.approx(2.0)
    assert totals["Isend"] == pytest.approx(0.1)


def test_task_time_by_phase():
    t = make_tracer()
    totals = task_time_by_phase(t)
    assert totals["stencil"] == pytest.approx(2.0)
    assert totals["intra"] == pytest.approx(3.0)


def test_core_utilization_busy_and_gaps():
    t = make_tracer()
    report = core_utilization(t, 0, 2, 0.0, 6.0)
    # core 0 busy 4s of 6, core 1 busy 3s of 6 => 7/12.
    assert report.busy_fraction == pytest.approx(7 / 12)
    assert report.max_gap == pytest.approx(2.0)  # core 1 idle [4,6]


def test_core_utilization_rejects_empty_window():
    t = make_tracer()
    with pytest.raises(ValueError):
        core_utilization(t, 0, 2, 5.0, 5.0)


def test_overlap_fraction():
    t = make_tracer()
    # intra [1,4] vs stencil [0,2]: overlap [1,2] = 1 of intra's 3.
    assert overlap_fraction(t, 0, "intra", "stencil") == pytest.approx(1 / 3)
    assert overlap_fraction(t, 0, "stencil", "intra") == pytest.approx(1 / 2)
    assert overlap_fraction(t, 0, "absent", "stencil") == 0.0


def test_unpack_follows_gap_fraction():
    t = make_tracer()
    # core 0 has one gap (3->5) followed by an unpack task.
    assert unpack_follows_gap_fraction(t, 0, gap_min=0.5) == 1.0


def test_write_prv_and_pcf(tmp_path):
    t = make_tracer()
    prv = write_prv(t, tmp_path / "trace.prv", num_ranks=1, duration=8.0)
    pcf = write_pcf(t, tmp_path / "trace.pcf")
    lines = (tmp_path / "trace.prv").read_text().strip().splitlines()
    assert lines[0].startswith("#Paraver")
    # One record per task/mpi event.
    assert len(lines) == 1 + 6
    # Records are colon-separated with 8 fields.
    assert all(len(line.split(":")) == 8 for line in lines[1:])
    pcf_text = (tmp_path / "trace.pcf").read_text()
    assert "STATES" in pcf_text
    assert "task:stencil" in pcf_text


def test_paraver_state_codes_are_per_trace(tmp_path):
    # A trace's .prv/.pcf bytes must not depend on what the process wrote
    # before: codes are numbered 1.. over that trace's own categories.
    a = make_tracer()
    b = Tracer([
        TraceEvent(1, -1, "mpi", "Waitall", "mpi", 0.0, 1.0),
        TraceEvent(1, 0, "task", "split b9", "split", 0.5, 2.0),
        TraceEvent(1, 0, "task", "stencil b9", "stencil", 2.0, 3.0),
    ])

    def write(tracer, name):
        prv = write_prv(tracer, tmp_path / f"{name}.prv", 2, 8.0)
        pcf = write_pcf(tracer, tmp_path / f"{name}.pcf")
        return prv.read_bytes(), pcf.read_bytes()

    alone = write(a, "a1")
    write(b, "b")
    assert write(a, "a2") == alone
    prv, pcf = alone
    assert prv.decode().splitlines()[1].endswith(":1")
    assert pcf.decode().splitlines() == [
        "STATES",
        "1    task:stencil",
        "2    task:intra",
        "3    task:pack",
        "4    mpi:mpi",
        "5    task:unpack",
    ]


def test_render_ascii_paints_glyphs():
    t = make_tracer()
    art = render_ascii(t, [(0, 0), (0, 1)], 0.0, 6.0, width=12)
    lines = art.splitlines()
    assert len(lines) == 2
    assert "s" in lines[0]  # stencil glyph
    assert "u" in lines[0]  # unpack glyph
    assert "i" in lines[1]  # intra glyph
    assert "." in lines[1]  # idle
    assert "legend" in legend()


def test_render_ascii_rejects_empty_window():
    t = make_tracer()
    with pytest.raises(ValueError):
        render_ascii(t, [(0, 0)], 1.0, 1.0)
