"""SweepEngine: parallel==serial, caching, crash/timeout isolation."""

import os
import time
from pathlib import Path

import pytest

from repro import AmrConfig, RunSpec, run_simulation, sphere
from repro.bench import weak_scaling
from repro.exec import (
    ResultCache,
    SweepEngine,
    SweepError,
    run_spec_dict,
)
from repro.obs.telemetry import TelemetryBus, read_records
from repro.pipeline import JobGraph


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


def small_sweep():
    return [
        RunSpec(config=small_config(), machine="laptop", variant=v,
                ranks_per_node=2)
        for v in ("mpi_only", "fork_join", "tampi_dataflow")
    ]


# ----------------------------------------------------------------------
# Fault-injection runners (module-level: picklable; fork inherits state).
# ----------------------------------------------------------------------
def _crash_until_third_attempt(spec_dict):
    marker_dir = Path(os.environ["REPRO_EXEC_TEST_DIR"])
    attempts = len(list(marker_dir.glob("attempt-*")))
    (marker_dir / f"attempt-{attempts}").touch()
    if attempts < 2:
        os._exit(42)  # simulate a hard worker death (no exception path)
    return run_spec_dict(spec_dict)


def _crash_fork_join_only(spec_dict):
    if spec_dict["variant"] == "fork_join":
        os._exit(9)
    return run_spec_dict(spec_dict)


def _hang_forever(spec_dict):
    time.sleep(600)


def _raise_value_error(spec_dict):
    raise ValueError("deterministic failure, retrying cannot help")


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------
def test_parallel_equals_serial_on_small_sweep():
    specs = small_sweep()
    serial = SweepEngine(jobs=1).run(specs)
    parallel = SweepEngine(jobs=3).run(specs)
    assert serial.failed == parallel.failed == 0
    assert parallel.results == serial.results


def test_parallel_equals_serial_weak_scaling():
    serial = weak_scaling(node_counts=(1, 2), quick=True,
                          engine=SweepEngine(jobs=1))
    parallel = weak_scaling(node_counts=(1, 2), quick=True,
                            engine=SweepEngine(jobs=4))
    assert parallel.points == serial.points


def test_outcomes_preserve_input_order():
    specs = small_sweep()
    report = SweepEngine(jobs=3).run(JobGraph.from_specs(specs, name="order"))
    assert [o.spec for o in report.outcomes] == specs
    assert [o.index for o in report.outcomes] == [0, 1, 2]


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------
def test_warm_cache_executes_nothing(tmp_path):
    specs = small_sweep()
    cache = ResultCache(tmp_path / "cache")
    cold = SweepEngine(jobs=2, cache=cache).run(specs)
    assert cold.executed == 3 and cold.cached == 0
    warm = SweepEngine(jobs=2, cache=cache).run(specs)
    assert warm.executed == 0 and warm.cached == 3
    assert warm.results == cold.results


def test_serial_runs_also_fill_the_cache(tmp_path):
    specs = small_sweep()
    cache = ResultCache(tmp_path / "cache")
    SweepEngine(jobs=1, cache=cache).run(specs)
    warm = SweepEngine(jobs=1, cache=cache).run(specs)
    assert warm.executed == 0 and warm.cached == 3


def test_trace_specs_run_in_the_pool_and_cache(tmp_path):
    spec = RunSpec(config=small_config(), machine="laptop",
                   variant="tampi_dataflow", ranks_per_node=2, trace=True)
    local = run_simulation(spec)
    cache = ResultCache(tmp_path / "cache")
    first = SweepEngine(jobs=1, cache=cache).run([spec])
    second = SweepEngine(jobs=1, cache=cache).run([spec])
    cold, warm = first.outcomes[0], second.outcomes[0]
    # A trace run forks onto a pool worker like any other run...
    assert cold.status == "ok" and cold.worker_id == 0
    assert cold.result.tracer.events
    assert cold.result.tracer == local.tracer
    # ...and its trace is served from the cache on a warm re-run.
    assert len(cache) == 1
    assert warm.status == "cached" and second.executed == 0
    assert warm.result.tracer == local.tracer
    assert warm.result == cold.result


# ----------------------------------------------------------------------
# Fault isolation
# ----------------------------------------------------------------------
# Every run executes in a worker process at every ``jobs`` count, so the
# fault handling below must hold at jobs=1 exactly as in a wider pool.
@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_crash_is_retried_then_succeeds(tmp_path, monkeypatch, jobs):
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(tmp_path))
    spec = small_sweep()[2]
    engine = SweepEngine(jobs=jobs, retries=2, backoff=0.01,
                         runner=_crash_until_third_attempt)
    report = engine.run([spec])
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.attempts == 3
    assert outcome.result == SweepEngine(jobs=1).run([spec]).results[0]


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_crash_fails_only_that_run(jobs):
    specs = small_sweep()
    engine = SweepEngine(jobs=jobs, retries=1, backoff=0.01,
                         runner=_crash_fork_join_only)
    report = engine.run(specs)
    by_variant = {o.spec.variant: o for o in report.outcomes}
    assert by_variant["fork_join"].status == "failed"
    assert by_variant["fork_join"].attempts == 2  # initial + 1 retry
    assert "worker died" in by_variant["fork_join"].error
    assert by_variant["mpi_only"].status == "ok"
    assert by_variant["tampi_dataflow"].status == "ok"
    assert report.failed == 1 and report.executed == 2
    with pytest.raises(SweepError, match="fork_join"):
        report.raise_failures()


@pytest.mark.parametrize("jobs", [1, 2])
def test_timeout_kills_and_fails_the_run(jobs):
    spec = small_sweep()[0]
    engine = SweepEngine(jobs=jobs, timeout=0.25, retries=0,
                         runner=_hang_forever)
    report = engine.run([spec])
    outcome = report.outcomes[0]
    assert outcome.status == "failed"
    assert "timed out" in outcome.error


@pytest.mark.parametrize("jobs", [1, 2])
def test_deterministic_exception_is_not_retried(jobs):
    spec = small_sweep()[0]
    engine = SweepEngine(jobs=jobs, retries=5, backoff=0.01,
                         runner=_raise_value_error)
    report = engine.run([spec])
    outcome = report.outcomes[0]
    assert outcome.status == "failed"
    assert outcome.attempts == 1
    assert "deterministic failure" in outcome.error


def test_inline_errors_become_failed_outcomes():
    bad = RunSpec(config=small_config(num_ranks=2), machine="laptop",
                  variant="tampi_dataflow", num_nodes=1, ranks_per_node=4)
    report = SweepEngine(jobs=1).run([bad])
    assert report.failed == 1
    assert "rank grid" in report.outcomes[0].error
    with pytest.raises(SweepError):
        report.raise_failures()


# ----------------------------------------------------------------------
# Job records: the engine's one account of a job's life
# ----------------------------------------------------------------------
def test_progress_events_are_emitted(tmp_path):
    specs = small_sweep()
    cache = ResultCache(tmp_path / "cache")
    bus = TelemetryBus(tmp_path / "tel.jsonl")
    SweepEngine(jobs=2, cache=cache, telemetry=bus).run(specs)
    cold = read_records(bus.path)
    assert sum(1 for r in cold if r["type"] == "job_done") == 3
    SweepEngine(jobs=2, cache=cache, telemetry=bus).run(specs)
    records = read_records(bus.path)
    warm = records[len(cold):]
    assert sum(1 for r in warm if r["type"] == "job_cached") == 3
    starts = [r for r in records if r["type"] == "engine_start"]
    assert len(starts) == 2 and all(r["total"] == 3 for r in starts)
    done = [r for r in records if r["type"] == "job_done"]
    assert all(r["status"] == "ok" and r["wall_time"] > 0 for r in done)


def test_report_summary_mentions_counts(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    report = SweepEngine(jobs=1, cache=cache).run(small_sweep())
    text = report.summary()
    assert "3 executed" in text and "0 cached" in text


# ----------------------------------------------------------------------
# Partitioned runs claim multiple pool slots
# ----------------------------------------------------------------------
def test_partitioned_run_through_the_pool_matches_serial():
    """A ``pdes_workers > 1`` spec dispatched by the pool spawns its PDES
    workers from a non-daemonic child and reproduces the serial result
    byte for byte."""
    import json
    from dataclasses import replace

    cfg = small_config(num_ranks=4, npx=2, npy=2, init_x=1, init_y=1)
    spec = RunSpec(config=cfg, machine="laptop", variant="mpi_only",
                   ranks_per_node=4)
    sweep = JobGraph.from_specs([spec, replace(spec, pdes_workers=2)],
                                labels=["serial", "partitioned"])
    report = SweepEngine(jobs=2).run(sweep)
    outs = {}
    for o in report.outcomes:
        assert o.status == "ok", f"{o.label}: {o.error}"
        outs[o.label] = json.dumps(o.result.to_dict(), sort_keys=True)
    assert outs["serial"] == outs["partitioned"]


def test_partitioned_run_wider_than_the_pool_still_completes():
    """Slot demand is clamped to the pool width, and a wide task always
    launches once the pool is otherwise idle — no starvation."""
    from dataclasses import replace

    cfg = small_config(num_ranks=4, npx=2, npy=2, init_x=1, init_y=1)
    spec = RunSpec(config=cfg, machine="laptop", variant="mpi_only",
                   ranks_per_node=4)
    specs = [replace(spec, pdes_workers=8),
             replace(spec, pdes_workers=2, scheduler="fifo")]
    report = SweepEngine(jobs=2).run(
        JobGraph.from_specs(specs, labels=["wide", "narrow"])
    )
    assert report.failed == 0


def test_pending_slot_widths_bin_pack(tmp_path):
    """The scheduler never oversubscribes: concurrent slot usage stays
    within ``jobs`` (verified via launch/finish record ordering)."""
    from dataclasses import replace

    cfg = small_config(num_ranks=4, npx=2, npy=2, init_x=1, init_y=1)
    spec = RunSpec(config=cfg, machine="laptop", variant="mpi_only",
                   ranks_per_node=4)
    # Three 2-slot tasks in a 4-slot pool: at most two run at once.
    specs = [replace(spec, pdes_workers=2, sched_seed=i) for i in range(3)]
    bus = TelemetryBus(tmp_path / "tel.jsonl")
    report = SweepEngine(jobs=4, telemetry=bus).run(
        JobGraph.from_specs(specs, labels=["a", "b", "c"])
    )
    assert report.failed == 0
    concurrent = peak = 0
    for r in read_records(bus.path):
        if r["type"] == "job_launched":
            concurrent += 1
            peak = max(peak, concurrent)
        elif r["type"] in ("job_done", "job_failed", "job_retry"):
            concurrent -= 1
    assert peak <= 2, f"pool oversubscribed: {peak} 2-slot tasks at once"
