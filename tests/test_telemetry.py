"""Engine telemetry bus: line atomicity, schema, aggregation, neutrality."""

import json
import multiprocessing
import os
from dataclasses import replace

import pytest

from repro import AmrConfig, RunSpec, sphere
from repro.exec import ResultCache, RunStatsStore, SweepEngine
from repro.exec.engine import RunOutcome, run_spec_dict
from repro.pipeline import (
    JobGraph,
    PipelineNode,
    PipelineSpec,
    register_generator,
)
from repro.obs import EngineReport
from repro.obs.telemetry import (
    TELEMETRY_ENV,
    ProgressPrinter,
    QueueEmitter,
    TelemetryBus,
    TelemetryError,
    drain_queue,
    iter_records,
    read_records,
    validate_file,
    validate_record,
)


def small_config(num_ranks=2, **overrides):
    kwargs = dict(
        npx=num_ranks, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2, num_tsteps=1, stages_per_ts=2,
        refine_freq=1, checksum_freq=2, max_refine_level=1,
        payload="synthetic",
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25),),
    )
    kwargs.update(overrides)
    return AmrConfig(**kwargs)


def small_sweep(n=3):
    variants = ("mpi_only", "fork_join", "tampi_dataflow")
    return [
        RunSpec(config=small_config(), machine="laptop",
                variant=variants[i % 3], ranks_per_node=2, sched_seed=i)
        for i in range(n)
    ]


def _crash_once(spec_dict):
    marker_dir = os.environ["REPRO_EXEC_TEST_DIR"]
    marker = os.path.join(marker_dir, "crashed")
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(42)
    return run_spec_dict(spec_dict)


@register_generator("tel.boom")
def _tel_boom(params, deps):
    raise RuntimeError("boom")


@register_generator("tel.downstream")
def _tel_downstream(params, deps):
    return {"never": "runs"}


def _hammer_bus(path, wid, count):
    with TelemetryBus(path, wid=wid) as bus:
        for i in range(count):
            bus.emit("job_queued", node=f"n{wid}-{i}",
                     reason="x" * 500)  # exercises truncation too


# ----------------------------------------------------------------------
# Schema and stream primitives
# ----------------------------------------------------------------------
class TestSchema:
    def test_validate_record_rejects_bad_shapes(self):
        with pytest.raises(TelemetryError):
            validate_record(["not", "a", "dict"])
        with pytest.raises(TelemetryError, match="base field"):
            validate_record({"type": "job_queued"})
        with pytest.raises(TelemetryError, match="unknown record type"):
            validate_record({"type": "nope", "t": 0.0, "pid": 1})
        with pytest.raises(TelemetryError, match="missing fields"):
            validate_record({"type": "job_launched", "t": 0.0, "pid": 1,
                             "node": "a"})
        record = {"type": "job_queued", "t": 1.0, "pid": 2, "node": "a"}
        assert validate_record(record) is record

    def test_corrupt_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        with TelemetryBus(path) as bus:
            bus.emit("job_queued", node="a")
        with open(path, "a") as fh:
            fh.write('{"torn": \n')
        with pytest.raises(TelemetryError, match=":2"):
            read_records(path)
        # Unvalidated iteration still chokes on unparsable JSON.
        with pytest.raises(TelemetryError):
            list(iter_records(path, validate=False))

    def test_oversized_record_degrades_to_stub(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        with TelemetryBus(path) as bus:
            bus.emit("job_queued", node="n", blob="y" * 10_000)
        (record,) = read_records(path, validate=False)
        assert record["truncated"] is True
        assert len(json.dumps(record)) < 4096

    def test_truncated_fields_stay_under_bound(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        with TelemetryBus(path) as bus:
            bus.emit("job_retry", node="n", attempt=1,
                     reason="r" * 5_000)
        (record,) = read_records(path)
        assert len(record["reason"]) == 200

    def test_from_env_disabled_and_unwritable(self, tmp_path,
                                              monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        assert TelemetryBus.from_env() is None
        monkeypatch.setenv(
            TELEMETRY_ENV, str(tmp_path / "no" / "such" / "dir" / "t")
        )
        assert TelemetryBus.from_env() is None  # never fails the run

    def test_queue_emitter_and_drain(self, tmp_path):
        queue = multiprocessing.get_context().Queue()
        emitter = QueueEmitter(queue, wid=3, run="f" * 8, node="n")
        emitter.emit("run_start")
        emitter.emit("run_end", ok=True)
        path = tmp_path / "tel.jsonl"
        with TelemetryBus(path) as bus:
            import time
            deadline = time.monotonic() + 5.0
            moved = 0
            while moved < 2 and time.monotonic() < deadline:
                moved += drain_queue(queue, bus)
        records = read_records(path)
        assert [r["type"] for r in records] == ["run_start", "run_end"]
        assert all(r["wid"] == 3 and r["node"] == "n" for r in records)


# ----------------------------------------------------------------------
# Concurrency: interleaved writers never tear a line
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_parallel_writers_no_torn_lines(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        procs = [
            ctx.Process(target=_hammer_bus, args=(path, wid, 200))
            for wid in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        assert validate_file(path) == 800
        wids = {r["wid"] for r in read_records(path)}
        assert wids == {0, 1, 2, 3}

    def test_four_worker_sweep_stream_validates(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        specs = small_sweep(6)
        with TelemetryBus(path) as bus:
            report = SweepEngine(jobs=4, telemetry=bus).run(
                JobGraph.from_specs(specs, name="tel4")
            )
        assert report.failed == 0
        count = validate_file(path)
        records = read_records(path)
        types = {r["type"] for r in records}
        assert {"engine_start", "engine_stop", "job_queued",
                "job_launched", "job_done", "run_start",
                "run_end"} <= types
        assert count == len(records)
        # Identity on every job/run record.
        for r in records:
            if r["type"].startswith(("job_", "run_")):
                assert r["node"]
        # Every pool child span carries the worker id it ran on.
        launched = [r for r in records if r["type"] == "job_launched"]
        assert {r["wid"] for r in launched} <= set(range(4))
        assert len(launched) == 6

    def test_engine_report_deterministic_across_runs(self, tmp_path):
        specs = small_sweep(5)
        digests = []
        for i in range(2):
            path = tmp_path / f"tel{i}.jsonl"
            with TelemetryBus(path) as bus:
                SweepEngine(jobs=4, telemetry=bus).run(
                    JobGraph.from_specs(specs, name="det")
                )
            digests.append(
                json.dumps(EngineReport.from_file(path).normalized(),
                           sort_keys=True)
            )
        assert digests[0] == digests[1]


# ----------------------------------------------------------------------
# Engine integration: lifecycle, cache, stats, retries, PDES
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_cache_hits_emit_job_cached(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        specs = small_sweep(2)
        cache = ResultCache(tmp_path / "cache")
        with TelemetryBus(path) as bus:
            engine = SweepEngine(jobs=1, cache=cache, telemetry=bus)
            engine.run(specs)
            warm = engine.run(specs)
        assert warm.cached == 2
        records = read_records(path)
        assert sum(r["type"] == "job_cached" for r in records) == 2
        # Each engine_stop reports its session's delta; the stream sum
        # reconciles with the cache object's cumulative counters.
        stops = [r for r in records if r["type"] == "engine_stop"]
        assert sum(s["cache_hits"] for s in stops) == cache.hits
        assert sum(s["cache_misses"] for s in stops) == cache.misses
        assert cache.hits == 2 and cache.misses == 2
        report = EngineReport.from_file(path)
        assert report.cache_hit_rate() is not None

    def test_stats_updates_reconcile_predictions(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        stats = RunStatsStore(tmp_path / "stats.json")
        spec = small_sweep(1)[0]
        with TelemetryBus(path) as bus:
            engine = SweepEngine(jobs=1, stats=stats, telemetry=bus)
            engine.run([spec])
            # profile=True: new fingerprint (so it executes), same stats
            # signature (observational field) -> second update carries
            # the EWMA learned from the first run as its prediction.
            engine.run([replace(spec, profile=True)])
        updates = [r for r in read_records(path)
                   if r["type"] == "stats_update"]
        assert len(updates) == 2
        assert "predicted" not in updates[0]  # cold signature
        assert updates[1]["predicted"] == pytest.approx(
            updates[0]["actual"]
        )

    def test_retry_ledger_records_crashes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(tmp_path))
        path = tmp_path / "tel.jsonl"
        with TelemetryBus(path) as bus:
            report = SweepEngine(
                jobs=2, retries=2, backoff=0.01, runner=_crash_once,
                telemetry=bus,
            ).run(small_sweep(1))
        assert report.failed == 0
        records = read_records(path)
        retries = [r for r in records if r["type"] == "job_retry"]
        assert len(retries) == 1
        assert "exit code 42" in retries[0]["reason"]
        engine_report = EngineReport.from_file(path)
        ledger = engine_report.retry_ledger()
        assert len(ledger) == 1 and ledger[0][1] == 1

    def test_blocked_nodes_emit_job_blocked(self, tmp_path):
        pipeline = PipelineSpec(
            "blocked",
            nodes=[
                PipelineNode(name="bad", generator="tel.boom"),
                PipelineNode(name="down", generator="tel.downstream",
                             after=("bad",)),
            ],
        )
        path = tmp_path / "tel.jsonl"
        with TelemetryBus(path) as bus:
            report = SweepEngine(jobs=1, telemetry=bus).run(pipeline)
        assert report.failed == 1 and report.blocked == 1
        records = read_records(path)
        blocked = [r for r in records if r["type"] == "job_blocked"]
        assert blocked and blocked[0]["blocker"] == "bad"
        norm = EngineReport.from_file(path).normalized()
        assert norm["nodes"]["down"]["status"] == "blocked"

    def test_pdes_workers_emit_window_records(self, tmp_path,
                                              monkeypatch):
        path = tmp_path / "tel.jsonl"
        monkeypatch.setenv(TELEMETRY_ENV, str(path))
        cfg = small_config(num_ranks=4, npx=2, npy=2, init_x=1, init_y=1)
        spec = RunSpec(config=cfg, machine="laptop", variant="mpi_only",
                       ranks_per_node=4, pdes_workers=2)
        from repro.core import run_simulation

        run_simulation(spec)
        records = read_records(path)
        runs = [r for r in records if r["type"] == "pdes_run"]
        windows = [r for r in records if r["type"] == "pdes_window"]
        assert len(runs) == 1 and runs[0]["workers"] == 2
        assert runs[0]["run"] == spec.fingerprint()
        assert windows and {r["wid"] for r in windows} == {0, 1}
        assert sum(1 for r in windows if r["wid"] == 0) == \
            runs[0]["windows"]
        report = EngineReport.from_file(path)
        entry = report.pdes[spec.fingerprint()]
        assert entry.window_efficiency is not None
        assert set(entry.partitions) == {0, 1}

    def test_trace_runs_get_pool_worker_ids(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        spec = small_sweep(1)[0]
        with TelemetryBus(path) as bus:
            report = SweepEngine(jobs=1, telemetry=bus).run(
                [spec, replace(spec, trace=True)]
            )
        assert [o.worker_id for o in report.outcomes] == [0, 0]
        launched = [r for r in read_records(path)
                    if r["type"] == "job_launched"]
        assert [r["wid"] for r in launched] == [0, 0]


# ----------------------------------------------------------------------
# Fingerprint / byte-identity neutrality
# ----------------------------------------------------------------------
class TestNeutrality:
    def test_fingerprint_ignores_telemetry_env(self, tmp_path,
                                               monkeypatch):
        spec = small_sweep(1)[0]
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        off = spec.fingerprint()
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path / "t.jsonl"))
        assert spec.fingerprint() == off

    def test_results_byte_identical_with_telemetry_on(self, tmp_path):
        specs = small_sweep(3)
        plain = SweepEngine(jobs=2).run(JobGraph.from_specs(specs, name="n"))
        with TelemetryBus(tmp_path / "tel.jsonl") as bus:
            instrumented = SweepEngine(jobs=2, telemetry=bus).run(
                JobGraph.from_specs(specs, name="n")
            )

        def blob(report):
            return json.dumps(
                [o.result.to_dict() for o in report.outcomes],
                sort_keys=True,
            )

        assert blob(plain) == blob(instrumented)
        assert (
            [o.fingerprint for o in plain.outcomes]
            == [o.fingerprint for o in instrumented.outcomes]
        )

    def test_cache_entries_shared_across_telemetry_modes(self, tmp_path):
        specs = small_sweep(2)
        cache = ResultCache(tmp_path / "cache")
        SweepEngine(jobs=1, cache=cache).run(specs)
        with TelemetryBus(tmp_path / "tel.jsonl") as bus:
            warm = SweepEngine(jobs=1, cache=cache,
                               telemetry=bus).run(specs)
        assert warm.cached == 2 and warm.executed == 0


# ----------------------------------------------------------------------
# RunOutcome worker attribution round-trip
# ----------------------------------------------------------------------
class TestRunOutcomeFields:
    def test_defaults_leave_existing_callers_untouched(self):
        outcome = RunOutcome(index=0, spec=None, fingerprint="f",
                             label="l", status="ok")
        assert outcome.worker_id is None and outcome.slots == 1

    def test_pipeline_report_roundtrips_worker_fields(self, tmp_path):
        spec = small_sweep(1)[0]
        pipeline = PipelineSpec(
            "attr", nodes=[PipelineNode(name="run0", run=spec)]
        )
        report = SweepEngine(jobs=2).run(pipeline)
        doc = json.loads(json.dumps(report.to_dict()))
        (node,) = doc["nodes"]
        assert node["worker_id"] in (0, 1)
        assert node["slots"] == 1

    def test_partitioned_outcome_reports_claimed_slots(self):
        cfg = small_config(num_ranks=4, npx=2, npy=2, init_x=1, init_y=1)
        spec = RunSpec(config=cfg, machine="laptop", variant="mpi_only",
                       ranks_per_node=4, pdes_workers=2)
        report = SweepEngine(jobs=2).run(
            JobGraph.from_specs([spec], labels=["wide"])
        )
        (outcome,) = report.outcomes
        assert outcome.status == "ok"
        assert outcome.slots == 2
        assert outcome.worker_id == 0


# ----------------------------------------------------------------------
# EngineReport exporters
# ----------------------------------------------------------------------
class TestEngineReportExports:
    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("tel")
        path = tmp / "tel.jsonl"
        cache = ResultCache(tmp / "cache")
        specs = small_sweep(4)
        with TelemetryBus(path) as bus:
            SweepEngine(jobs=2, cache=cache, telemetry=bus).run(
                JobGraph.from_specs(specs, name="export")
            )
            SweepEngine(jobs=2, cache=cache, telemetry=bus).run(
                JobGraph.from_specs(specs, name="export")
            )
        return path

    def test_chrome_trace_schema_matches_per_run_contract(self, stream,
                                                          tmp_path):
        report = EngineReport.from_file(stream)
        events = report.chrome_trace_events()
        assert events
        for ev in events:
            assert {"name", "ph", "pid", "tid"} <= ev.keys()
            if ev["ph"] == "X":
                assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert any(ev["ph"] == "M" for ev in events)
        assert any(ev["ph"] == "X" for ev in events)
        path = tmp_path / "engine.trace.json"
        n = report.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n

    def test_ascii_summary_sections(self, stream):
        text = EngineReport.from_file(stream).ascii_summary()
        assert "engine: export" in text
        assert "worker utilization" in text
        assert "queue wait" in text
        assert "cache hit rate" in text

    def test_multi_session_streams_stay_summable(self, stream):
        # Two engine sessions share the file: counters and makespans
        # accumulate, so no worker can appear >100% utilized and the
        # outcome counts cover both sessions.
        report = EngineReport.from_file(stream)
        assert report.executed + report.cached == 8
        assert report.slot_occupancy() <= 1.0 + 1e-9
        for busy in report.worker_busy().values():
            assert busy <= report.makespan * 1.05

    def test_normalized_is_timestamp_free(self, stream):
        norm = EngineReport.from_file(stream).normalized()
        blob = json.dumps(norm)
        assert '"t"' not in blob and "wid" not in blob
        assert norm["jobs"] == 2


# ----------------------------------------------------------------------
# Live tailing: the ``top --follow`` reader across rotation/truncation
# ----------------------------------------------------------------------
def _line(rtype, t, **kw):
    return json.dumps(dict(type=rtype, t=t, pid=1, **kw)) + "\n"


def _start(t=0.0, graph="g"):
    return _line("engine_start", t, graph=graph, jobs=1, total=2)


def _stop(t=9.0, graph="g"):
    return _line("engine_stop", t, graph=graph, makespan=t, executed=2,
                 cached=0, failed=0, blocked=0)


class TestTailFollow:
    def test_reader_is_incremental(self, tmp_path):
        from repro.obs.live import TailReader

        path = tmp_path / "t.jsonl"
        path.write_text(_start() + _line("job_queued", 1.0, node="a"))
        with TailReader(path) as tail:
            first = tail.poll()
            assert [r["type"] for r in first] == [
                "engine_start", "job_queued",
            ]
            assert tail.poll() == []  # nothing appended
            with open(path, "a") as fh:
                fh.write(_line("job_queued", 2.0, node="b"))
            second = tail.poll()
            assert [r["node"] for r in second] == ["b"]
            assert len(tail.records) == 3
            assert tail.report().graph == "g"

    def test_reader_buffers_torn_final_line(self, tmp_path):
        from repro.obs.live import TailReader

        path = tmp_path / "t.jsonl"
        whole = _line("job_queued", 1.0, node="a")
        path.write_text(_start() + whole[:10])  # writer mid-append
        with TailReader(path) as tail:
            assert [r["type"] for r in tail.poll()] == ["engine_start"]
            with open(path, "a") as fh:
                fh.write(whole[10:])  # the rest of the record arrives
            assert [r["node"] for r in tail.poll()] == ["a"]

    def test_reader_reopens_after_compaction(self, tmp_path):
        """os.replace swaps the inode under the follower — the pre-fix
        reader kept serving the stale generation forever."""
        from repro.obs.live import TailReader

        path = tmp_path / "t.jsonl"
        path.write_text(
            _start(graph="before")
            + _line("job_queued", 1.0, node="a")
            + _line("job_queued", 2.0, node="b")
        )
        with TailReader(path) as tail:
            assert len(tail.poll()) == 3
            # Compaction: a new, smaller generation replaces the file.
            compacted = tmp_path / "t.jsonl.new"
            compacted.write_text(_start(graph="after") + _stop())
            os.replace(compacted, path)
            fresh = tail.poll()
            assert [r["type"] for r in fresh] == [
                "engine_start", "engine_stop",
            ]
            # State from the dead generation is gone.
            assert tail.records == fresh
            assert tail.report().graph == "after"

    def test_reader_reopens_after_in_place_truncation(self, tmp_path):
        from repro.obs.live import TailReader

        path = tmp_path / "t.jsonl"
        path.write_text(
            _start() + _line("job_queued", 1.0, node="a" * 40)
        )
        with TailReader(path) as tail:
            assert len(tail.poll()) == 2
            path.write_text(_start(graph="g2"))  # same inode, shrunk
            records = tail.poll()
            assert [r["graph"] for r in records] == ["g2"]
            assert tail.records == records

    def test_reader_tolerates_missing_file(self, tmp_path):
        from repro.obs.live import TailReader

        path = tmp_path / "t.jsonl"
        with TailReader(path) as tail:
            assert tail.poll() == []  # not created yet — not an error
            path.write_text(_start())
            assert len(tail.poll()) == 1
            path.unlink()  # writer between unlink and replace
            assert tail.poll() == []
            assert len(tail.records) == 1  # keeps showing what it has

    def test_follow_survives_rotation_mid_stream(self, tmp_path,
                                                 monkeypatch):
        """End to end: ``top --follow`` must pick up the new generation
        (and its engine_stop) after the stream is compacted."""
        import io
        import time as time_mod

        from repro.obs.live import follow

        path = tmp_path / "t.jsonl"
        path.write_text(
            _start(graph="before") + _line("job_queued", 1.0, node="a")
        )

        def rotate_instead_of_sleeping(_interval):
            compacted = tmp_path / "t.jsonl.new"
            compacted.write_text(_start(graph="after") + _stop())
            os.replace(compacted, path)

        monkeypatch.setattr(
            time_mod, "sleep", rotate_instead_of_sleeping
        )
        out = io.StringIO()
        frame = follow(path, interval=0.01, out=out, clear=False,
                       max_frames=5)
        assert "after" in frame and "finished" in frame
        assert "before" not in frame


def test_progress_printer_reads_the_job_records_and_forwards_them(
        tmp_path, capsys):
    bus = TelemetryBus(tmp_path / "t.jsonl")
    printer = ProgressPrinter(bus)
    assert printer.path == bus.path and ProgressPrinter().path is None
    emit = printer.emit
    emit("engine_start", graph="g", jobs=2, total=2)
    emit("job_launched", node="a", wid=0, slots=1, attempt=1)
    emit("job_retry", node="a", attempt=1, reason="worker died")
    emit("job_launched", node="a", wid=0, slots=1, attempt=2)
    emit("job_done", node="a", status="ok", attempts=2, wall_time=1.5)
    emit("job_cached", node="b", run="f")
    emit("job_done", node="c", status="canceled", attempts=0,
         wall_time=0.0)
    emit("job_failed", node="d", attempts=1, wall_time=0.25)
    emit("job_blocked", node="e", blocker="d")  # a fan-out child past N
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("[0/2] a: retrying (")
    assert lines[1:] == [
        "[1/2] a: ok (1.50s)", "[2/2] b: cached (0.00s)",
        "[3/3] d: failed (0.25s)", "[4/4] e: blocked (0.00s)",
    ]
    assert [r["type"] for r in read_records(bus.path)] == [
        "engine_start", "job_launched", "job_retry", "job_launched",
        "job_done", "job_cached", "job_done", "job_failed", "job_blocked",
    ]
