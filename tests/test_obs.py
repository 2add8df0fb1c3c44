"""repro.obs: metrics, attribution invariants, reports, exporters.

The load-bearing checks:

* the critical path of a real run is ≤ the makespan and ≥ the heaviest
  single task (the chain is a non-overlapping sequence by construction);
* the cross-variant contrast the paper draws (Fig 2 vs Fig 3) falls out
  of the profiler: TAMPI+OSS overlaps communication tasks with stencils
  and shows less comm-blocked idle than MPI-only;
* everything serializes losslessly (report round-trips, cached profiled
  results keep their report, profile-off specs fingerprint exactly as
  before the field existed).
"""

import json

import pytest

from repro import AmrConfig, RunSpec, run_simulation, sphere
from repro.exec import ResultCache, SweepEngine
from repro.obs import (
    BLOCKERS,
    COMM_BLOCKED,
    MetricsRegistry,
    ProfileReport,
    Profiler,
    ascii_summary,
    chrome_trace_events,
    compare_reports,
    critical_path,
    idle_gaps,
    merge_intervals,
    metrics_csv,
    metrics_json,
    overlap_length,
    phase_overlap_fraction,
    write_chrome_trace,
)
from repro.obs.attribution import comm_blocked_fraction


def small_config(num_ranks=2, **overrides):
    kwargs = dict(
        npx=num_ranks, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2, num_tsteps=2, stages_per_ts=2,
        refine_freq=1, checksum_freq=2, max_refine_level=1,
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25),),
    )
    kwargs.update(overrides)
    return AmrConfig(**kwargs)


def profiled_spec(variant, **overrides):
    return RunSpec(
        config=small_config(), machine="laptop", variant=variant,
        ranks_per_node=2, profile=True, **overrides,
    )


@pytest.fixture(scope="module")
def tampi_result():
    return run_simulation(profiled_spec("tampi_dataflow"))


@pytest.fixture(scope="module")
def mpi_result():
    return run_simulation(profiled_spec("mpi_only"))


@pytest.fixture(scope="module")
def fork_result():
    return run_simulation(profiled_spec("fork_join"))


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("c", rank=0)
        reg.inc("c", 2, rank=0)
        reg.inc("c", rank=1)
        reg.set_gauge("g", 5.0)
        reg.set_gauge("g", 3.0)
        reg.observe("h", 1.5)
        reg.observe("h", 6.0)
        assert reg.value("c", rank=0) == 3
        assert reg.value("c", rank=1) == 1
        assert reg.value("c", rank=99) == 0
        assert reg.value("g") == 3.0  # latest, not sum
        assert reg.count("h") == 2
        assert reg.mean("h") == pytest.approx(3.75)
        assert reg.names() == ["c", "g", "h"]

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("x", a=1, b=2)
        reg.inc("x", b=2, a=1)
        assert reg.value("x", a=1, b=2) == 2

    def test_round_trip_is_exact(self):
        reg = MetricsRegistry()
        reg.inc("c", 7, rank=3, kind="steal")
        reg.set_gauge("g", 2.5, rank=0)
        for v in (0.0, 0.001, 3.0, 1024.0):
            reg.observe("h", v, call="Waitany")
        dump = json.loads(json.dumps(reg.to_dict()))
        back = MetricsRegistry.from_dict(dump)
        assert back.to_dict() == reg.to_dict()
        assert back.value("c", rank=3, kind="steal") == 7
        assert back.mean("h", call="Waitany") == reg.mean("h", call="Waitany")

    def test_csv_has_one_row_per_series(self):
        reg = MetricsRegistry()
        reg.inc("c", rank=0)
        reg.inc("c", rank=1)
        text = reg.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "name,labels,type,count,total,min,max"
        assert len(lines) == 3
        assert "rank=0" in lines[1]


# ----------------------------------------------------------------------
# Interval helpers
# ----------------------------------------------------------------------
def test_merge_intervals():
    assert merge_intervals([]) == []
    assert merge_intervals([(1, 1), (2, 1)]) == []  # empty/inverted dropped
    assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]
    assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]  # touching merge


def test_overlap_length():
    merged = [(0, 2), (4, 6)]
    assert overlap_length((1, 5), merged) == pytest.approx(2.0)
    assert overlap_length((2, 4), merged) == 0.0
    assert overlap_length((-1, 10), merged) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Critical path on a hand-built DAG
# ----------------------------------------------------------------------
class _FakeTask:
    def __init__(self, tid, label="t", phase="stencil"):
        self.tid = tid
        self.label = label
        self.phase = phase
        self.successors = []


def _run_task(prof, task, rank, core, t0, t1, t_complete=None):
    # Successors are spawned before their predecessors complete in the
    # real runtime (that ordering is what makes the executed-DAG edge
    # recording in task_completed work), so spawn separately when a task
    # has predecessors.
    if task.tid not in prof.tasks:
        prof.task_spawned(task, rank, t0)
    prof.task_ready(task, t0)
    prof.task_ran(task, core, t0, t1)
    prof.task_completed(task, t_complete if t_complete is not None else t1)


def test_critical_path_synthetic_chain():
    # a(1s) -> b(2s), plus an unrelated c(0.5s): CP = a + b = 3s.
    prof = Profiler()
    a, b, c = _FakeTask(1, "a"), _FakeTask(2, "b"), _FakeTask(3, "c")
    a.successors = [b]
    prof.task_spawned(a, 0, 0.0)
    prof.task_spawned(b, 0, 0.0)
    _run_task(prof, a, 0, 0, 0.0, 1.0)
    _run_task(prof, b, 0, 0, 1.0, 3.0)
    _run_task(prof, c, 0, 1, 0.0, 0.5)
    cp = critical_path(prof)
    assert cp["length"] == pytest.approx(3.0)
    assert cp["tasks"] == 2
    assert cp["task_labels"] == ["a", "b"]
    assert cp["composition"]["stencil"] == pytest.approx(3.0)


def test_critical_path_counts_release_pending():
    # Task body ends at 1.0 but releases deps at 1.4 (TAMPI window);
    # its successor runs 1.4 -> 2.0.  CP = 1.0 + 0.4 + 0.6.
    prof = Profiler()
    a, b = _FakeTask(1, "send", "send"), _FakeTask(2, "stencil")
    a.successors = [b]
    prof.task_spawned(a, 0, 0.0)
    prof.task_spawned(b, 0, 0.0)
    _run_task(prof, a, 0, 0, 0.0, 1.0, t_complete=1.4)
    _run_task(prof, b, 0, 0, 1.4, 2.0)
    cp = critical_path(prof)
    assert cp["length"] == pytest.approx(2.0)
    assert cp["composition"]["tampi_release"] == pytest.approx(0.4)


def test_critical_path_empty_profiler():
    cp = critical_path(Profiler())
    assert cp == {
        "length": 0.0, "tasks": 0, "composition": {}, "task_labels": []
    }


# ----------------------------------------------------------------------
# Idle-gap taxonomy on synthetic timelines
# ----------------------------------------------------------------------
def test_idle_gap_classification_priorities():
    # One rank, one core, busy [0, 1] and [3, 4]; the [1, 3] gap is fully
    # covered by a blocking Waitany, which outranks the network evidence.
    prof = Profiler()
    t1, t2 = _FakeTask(1), _FakeTask(2)
    _run_task(prof, t1, 0, 0, 0.0, 1.0)
    _run_task(prof, t2, 0, 0, 3.0, 4.0)
    prof.mpi_call(0, "Waitany", 1.0, 3.0)
    prof.message_posted(0, 1, 1.0, 3.0, 4096)
    idle = idle_gaps(prof, {0: 1}, makespan=4.0)
    assert idle["core_seconds"] == pytest.approx(4.0)
    assert idle["busy_seconds"] == pytest.approx(2.0)
    assert idle["by_blocker"] == {"mpi_wait": pytest.approx(2.0)}
    assert idle["gap_count"] == 1
    assert idle["max_gap"] == pytest.approx(2.0)


def test_idle_gap_no_ready_work_default():
    prof = Profiler()
    t1 = _FakeTask(1)
    _run_task(prof, t1, 0, 0, 0.0, 1.0)
    idle = idle_gaps(prof, {0: 1}, makespan=3.0)
    assert idle["by_blocker"] == {"no_ready_work": pytest.approx(2.0)}


def test_idle_gap_inline_busy_counts_on_core0():
    prof = Profiler()
    t1 = _FakeTask(1)
    _run_task(prof, t1, 0, 0, 0.0, 1.0)
    prof.inline_busy(0, 1.0, 3.0)  # main-thread untasked work
    idle = idle_gaps(prof, {0: 1}, makespan=3.0)
    assert idle["busy_seconds"] == pytest.approx(3.0)
    assert idle["by_blocker"] == {}


def test_idle_gap_taskless_rank_reads_mpi_intervals():
    # MPI-only shape: no tasks at all; blocked time comes from the
    # blocking-call and collective intervals directly.
    prof = Profiler()
    prof.mpi_call(0, "Waitany", 1.0, 2.0)
    prof.mpi_call(0, "Allreduce", 3.0, 3.5)
    prof.mpi_call(0, "Isend", 0.0, 0.0)  # non-blocking: ignored
    idle = idle_gaps(prof, {0: 1}, makespan=4.0)
    assert idle["by_blocker"]["mpi_wait"] == pytest.approx(1.0)
    assert idle["by_blocker"]["collective"] == pytest.approx(0.5)
    assert idle["busy_seconds"] == pytest.approx(2.5)
    assert comm_blocked_fraction(idle) == pytest.approx(0.25)


def test_phase_overlap_fraction_synthetic():
    prof = Profiler()
    s = _FakeTask(1, "stencil", "stencil")
    p = _FakeTask(2, "pack", "pack")
    _run_task(prof, s, 0, 0, 0.0, 2.0)
    _run_task(prof, p, 0, 1, 1.0, 3.0)  # covers half the stencil span
    assert phase_overlap_fraction(prof) == pytest.approx(0.5)
    assert phase_overlap_fraction(Profiler()) == 0.0


# ----------------------------------------------------------------------
# Invariants on real runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("which", ["tampi_result", "fork_result"])
def test_critical_path_bounds(which, request):
    res = request.getfixturevalue(which)
    prof, report = res.profiler, res.profile
    cp = report.critical_path_length
    assert 0.0 < cp <= res.total_time + 1e-9
    heaviest = max(
        r.exec_time + r.release_pending for r in prof.executed_tasks()
    )
    assert cp >= heaviest - 1e-12


def test_idle_accounting_closes(tampi_result):
    idle = tampi_result.profile.idle
    assert idle["core_seconds"] == pytest.approx(
        idle["busy_seconds"] + idle["idle_seconds"]
    )
    assert sum(idle["by_blocker"].values()) == pytest.approx(
        idle["idle_seconds"], rel=1e-6
    )
    assert set(idle["by_blocker"]) <= set(BLOCKERS)
    assert 0.0 < idle["busy_fraction"] <= 1.0


def test_fig2_vs_fig3_contrast():
    """The paper's qualitative claim, quantified: the data-flow variant
    overlaps phases; MPI-only spends more core-time blocked on comm.

    Uses the golden small configs (the tiny fixtures above are too short
    for the steady-state contrast to emerge through startup effects).
    """
    import dataclasses

    from repro.verify import default_golden_specs

    specs = default_golden_specs()
    a = run_simulation(
        dataclasses.replace(specs["mpi_only_small"], profile=True)
    ).profile
    b = run_simulation(
        dataclasses.replace(specs["tampi_dataflow_small"], profile=True)
    ).profile
    assert a.overlap_fraction == 0.0  # no tasks: alternation by definition
    assert b.overlap_fraction > 0.1
    assert b.comm_blocked_fraction < a.comm_blocked_fraction


def test_mpi_only_idle_is_wait_dominated(mpi_result):
    by = mpi_result.profile.idle["by_blocker"]
    assert by.get("mpi_wait", 0.0) > 0.0
    assert set(by) <= {"mpi_wait", "collective"}


def test_profiler_metrics_cover_all_layers(tampi_result):
    reg = tampi_result.profile.metrics_registry()
    names = set(reg.names())
    assert "kernel.events" in names
    assert "runtime.tasks_spawned" in names
    assert "runtime.ready_depth" in names
    assert "runtime.wait_to_run" in names
    assert "runtime.pops" in names
    assert "tampi.requests_bound" in names
    assert "tampi.iwait" in names
    assert "mpi.calls" in names
    assert "mpi.message_bytes" in names


def test_phase_summary_attached(tampi_result):
    ps = tampi_result.phase_summary
    assert ps is not None
    assert ps.phase_times.get("timestep", 0.0) > 0.0
    assert ps.events > 0


def test_phase_summary_sums_profiler_records(tampi_result):
    """The summary is a view over the profiler: rank-0 phase spans, MPI
    calls and executed tasks, summed in recording order."""
    prof = tampi_result.profiler
    phase_times, mpi_times, task_times = {}, {}, {}
    for p in prof.phases:
        if p.rank == 0:
            phase_times[p.name] = phase_times.get(p.name, 0.0) + p.duration
    for c in prof.mpi_calls:
        mpi_times[c.name] = mpi_times.get(c.name, 0.0) + c.duration
    for r in prof.ran:
        task_times[r.phase] = task_times.get(r.phase, 0.0) + r.exec_time
    ps = tampi_result.phase_summary
    assert ps.phase_times == phase_times
    assert ps.mpi_time_by_call == mpi_times
    assert ps.task_time_by_phase == task_times
    assert ps.events == (
        len(prof.ran) + len(prof.mpi_calls) + len(prof.phases)
    )
    # Every executed task is counted, and both phases are present.
    assert len(prof.ran) == tampi_result.profile.tasks
    assert set(ps.phase_times) == {"refine", "timestep"}
    assert ps == tampi_result.profile.phase_summary


# ----------------------------------------------------------------------
# Serialization: report round-trip, cache flow-through, fingerprints
# ----------------------------------------------------------------------
def test_profile_report_json_round_trip(tampi_result):
    report = tampi_result.profile
    dump = json.dumps(report.to_dict(), sort_keys=True)
    back = ProfileReport.from_dict(json.loads(dump))
    assert back == report
    assert json.dumps(back.to_dict(), sort_keys=True) == dump


def test_run_result_round_trip_keeps_profile(tampi_result):
    from repro.core.results import RunResult

    dump = json.loads(json.dumps(tampi_result.to_dict()))
    back = RunResult.from_dict(dump)
    assert back == tampi_result
    assert back.profile == tampi_result.profile
    assert back.phase_summary == tampi_result.phase_summary
    assert back.tracer is None and back.profiler is None


def test_profiled_run_flows_through_cache(tmp_path):
    spec = profiled_spec("tampi_dataflow")
    cache = ResultCache(tmp_path / "cache")
    first = SweepEngine(jobs=1, cache=cache).run([spec])
    assert first.failed == 0
    assert len(cache) == 1
    second = SweepEngine(jobs=1, cache=cache).run([spec])
    (res,) = second.results
    assert res.profile is not None
    assert res.profile == first.results[0].profile
    assert res.profile.overlap_fraction > 0.0


def test_profile_off_spec_dict_is_unchanged():
    """Fingerprint stability: a profile-off spec serializes without the
    new fields, so pre-existing fingerprints (and goldens) are intact."""
    spec = RunSpec(
        config=small_config(), machine="laptop", variant="mpi_only",
        ranks_per_node=2,
    )
    d = spec.resolve().to_dict()
    assert "profile" not in d
    on = profiled_spec("mpi_only")
    assert on.resolve().to_dict()["profile"] is True
    assert on.fingerprint() != spec.fingerprint()
    assert RunSpec.from_dict(on.resolve().to_dict()).profile is True


def test_profile_field_survives_spec_round_trip():
    spec = profiled_spec("tampi_dataflow")
    back = RunSpec.from_dict(spec.resolve().to_dict())
    assert back.profile is True
    assert back == spec.resolve()


def test_spec_from_dict_loads_legacy_trace_max_events():
    """Serve journals and cache envelopes replay spec dicts written when
    ``trace_max_events`` was still a field; they must keep loading."""
    spec = profiled_spec("tampi_dataflow")
    legacy = dict(spec.resolve().to_dict(), trace_max_events=500)
    back = RunSpec.from_dict(legacy)
    assert back == spec.resolve()
    assert back.fingerprint() == spec.fingerprint()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_chrome_trace_schema(tampi_result, tmp_path):
    events = chrome_trace_events(
        tampi_result.profiler, variant="tampi_dataflow"
    )
    assert events
    for ev in events:
        assert ev["ph"] in ("X", "M")
        assert isinstance(ev["pid"], int)
        if ev["ph"] == "X":
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert isinstance(ev["tid"], int)
    assert any(ev["ph"] == "M" for ev in events)
    path = tmp_path / "trace.json"
    n = write_chrome_trace(tampi_result.profiler, path)
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == n == len(events)


def test_ascii_summary_and_compare(mpi_result, tampi_result):
    text = ascii_summary(tampi_result.profile)
    assert "tampi_dataflow" in text
    assert "critical path" in text
    assert "idle gaps" in text
    cmp_text = compare_reports(mpi_result.profile, tampi_result.profile)
    assert "mpi_only" in cmp_text and "tampi_dataflow" in cmp_text
    assert "overlap" in cmp_text


def test_metrics_exports(tampi_result):
    report = tampi_result.profile
    doc = json.loads(metrics_json(report))
    assert doc == report.metrics
    csv_text = metrics_csv(report)
    assert csv_text.splitlines()[0].startswith("name,labels,")
    assert len(csv_text.splitlines()) == len(report.metrics) + 1


# ----------------------------------------------------------------------
# Trace retention: the ring buffer is gone; the trace view holds every
# event the (unbounded) profiler recorded
# ----------------------------------------------------------------------
class TestTracerRingBuffer:
    def test_unbounded_by_default(self):
        from repro.obs import Tracer

        prof = Profiler()
        for i in range(100):
            prof.mpi_call(0, "x", float(i), float(i))
        t = Tracer.from_profiler(prof)
        assert len(t.events) == 100
        assert [e.t0 for e in t.events] == [float(i) for i in range(100)]


# ----------------------------------------------------------------------
# trace.analysis edge cases (satellite: empty tracer, degenerate
# windows, single-rank runs)
# ----------------------------------------------------------------------
class TestAnalysisEdgeCases:
    def test_empty_tracer(self):
        from repro.obs import (
            Tracer,
            mpi_time_by_call,
            overlap_fraction,
            phase_time,
            task_time_by_phase,
            unpack_follows_gap_fraction,
        )

        t = Tracer()
        assert phase_time(t, "timestep") == 0.0
        assert mpi_time_by_call(t) == {}
        assert task_time_by_phase(t) == {}
        assert overlap_fraction(t, 0, "stencil", "pack") == 0.0
        assert unpack_follows_gap_fraction(t, 0) == 0.0
        assert t.summarize() == "empty trace"

    def test_zero_duration_window_raises(self):
        from repro.obs import Tracer, core_utilization

        t = Tracer()
        with pytest.raises(ValueError):
            core_utilization(t, 0, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            core_utilization(t, 0, 2, 2.0, 1.0)

    def test_utilization_of_empty_tracer_is_zero(self):
        from repro.obs import Tracer, core_utilization

        rep = core_utilization(Tracer(), 0, 2, 0.0, 1.0)
        assert rep.busy_fraction == 0.0
        assert rep.gaps == [(0.0, 1.0), (0.0, 1.0)]  # one per core
        assert rep.max_gap == 1.0

    def test_single_rank_run(self):
        cfg = small_config(
            num_ranks=1, npx=1, init_x=2
        )
        res = run_simulation(
            RunSpec(
                config=cfg, machine="laptop", variant="tampi_dataflow",
                num_nodes=1, ranks_per_node=1, profile=True,
            )
        )
        report = res.profile
        assert report.tasks > 0
        assert 0.0 < report.critical_path_length <= res.total_time + 1e-9
        assert report.idle["per_rank"][0]["rank"] == 0
        # One rank: any point-to-point traffic is at most self-sends.
        idle = report.idle
        assert idle["core_seconds"] == pytest.approx(
            report.cores_per_rank * res.total_time
        )
