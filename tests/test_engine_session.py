"""EngineSession (incremental admission) and graceful engine shutdown."""

import json
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import AmrConfig, RunResult, RunSpec, run_simulation, sphere
from repro.exec import (
    EngineSession,
    ResultCache,
    RunStatsStore,
    SweepEngine,
    run_spec_dict,
    spec_signature,
)
from repro.exec.engine import GraphRun
from repro.faults import noise_plan
from repro.obs.telemetry import TelemetryBus, read_records, validate_file
from repro.pipeline import JobGraph, PipelineNode, PipelineSpec


def small_spec(variant="mpi_only", **overrides):
    cfg_kwargs = dict(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2, num_tsteps=1, stages_per_ts=2,
        refine_freq=1, checksum_freq=2, max_refine_level=1,
        payload="synthetic",
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25),),
    )
    cfg_kwargs.update(overrides)
    return RunSpec(
        config=AmrConfig(**cfg_kwargs), machine="laptop",
        variant=variant, ranks_per_node=2,
    )


def admit(session, spec, *, priority=0.0):
    """Admit ``spec`` as a one-node job graph; returns its GraphRun."""
    run = GraphRun(session, JobGraph.from_specs([spec]), priority=priority)
    run.start()
    return run


def _sleep_forever_runner(spec_dict):
    time.sleep(600)


def _holding_runner(spec_dict):
    hold = Path(os.environ["REPRO_EXEC_TEST_DIR"]) / "HOLD"
    while hold.exists():
        time.sleep(0.02)
    return run_spec_dict(spec_dict)


def pump(session, *, until, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        session.poll()
        if until():
            return
        time.sleep(0.01)
    raise AssertionError("session condition not reached in time")


# ----------------------------------------------------------------------
# Session basics
# ----------------------------------------------------------------------
def test_session_executes_and_matches_run(tmp_path):
    specs = [small_spec(variant=v)
             for v in ("mpi_only", "fork_join", "tampi_dataflow")]
    serial = SweepEngine(jobs=1).run(specs)

    engine = SweepEngine(jobs=2, cache=ResultCache(tmp_path / "cache"))
    session = engine.session()
    runs = [admit(session, spec) for spec in specs]
    pump(session, until=lambda: session.active == 0)
    outcomes = [run.outcomes()[0] for run in runs]
    assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
    # Always-subprocess execution reproduces in-process results exactly.
    assert [o.result for o in outcomes] == serial.results
    # Completed runs are stored to the shared cache.
    for spec in specs:
        assert engine.cache.get(spec.fingerprint()) is not None
    session.close()


def test_a_one_node_graph_keeps_the_trace(tmp_path):
    # The serve broker's path for a run: a traced spec admitted to a
    # session as a one-node graph comes back, and is cached, with the
    # trace an in-process run records.
    spec = replace(small_spec(variant="tampi_dataflow"), trace=True)
    local = run_simulation(spec)
    engine = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "cache"))
    session = engine.session()
    run = admit(session, spec)
    pump(session, until=lambda: session.active == 0)
    (outcome,) = run.outcomes()
    session.close()
    assert outcome.status == "ok"
    assert outcome.result.tracer.events
    assert outcome.result.tracer == local.tracer
    assert outcome.result == local
    assert engine.cache.get(spec.fingerprint()).tracer == local.tracer


def test_reap_caches_the_worker_dict_as_sent(tmp_path, monkeypatch):
    # The worker already serialized the result; the parent stores that
    # dict and never runs RunResult.to_dict (a traced run's dict holds
    # every trace row) a second time.
    spec = replace(small_spec(variant="tampi_dataflow"), trace=True)
    parent = os.getpid()
    to_dict = RunResult.to_dict
    parent_calls = []

    def watched_to_dict(self):
        if os.getpid() == parent:
            parent_calls.append(self)
        return to_dict(self)

    monkeypatch.setattr(RunResult, "to_dict", watched_to_dict)
    engine = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "cache"))
    session = engine.session()
    run = admit(session, spec)
    pump(session, until=lambda: session.active == 0)
    (outcome,) = run.outcomes()
    session.close()
    assert outcome.status == "ok"
    assert parent_calls == []
    entry = json.loads(engine.cache.path(spec.fingerprint()).read_text())
    assert entry["result"]["trace"]
    assert entry["result"] == json.loads(json.dumps(to_dict(outcome.result)))


def test_session_priority_orders_launches(tmp_path):
    engine = SweepEngine(jobs=1)
    session = engine.session()
    low = admit(session, small_spec(checksum_freq=2), priority=0.0)
    high = admit(session, small_spec(checksum_freq=3), priority=5.0)
    mid = admit(session, small_spec(checksum_freq=4), priority=1.0)
    pump(session, until=lambda: session.active == 0)
    # jobs=1 launches strictly one at a time, highest priority first —
    # queue wait times therefore order by descending priority.
    order = sorted(
        (low, high, mid),
        key=lambda run: run.outcomes()[0].wait_time,
    )
    assert order[0] == high
    assert order[1] == mid
    assert order[2] == low
    session.close()


def test_session_cancel_queued_and_running(tmp_path, monkeypatch):
    marker = tmp_path / "markers"
    marker.mkdir()
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(marker))
    (marker / "HOLD").touch()
    engine = SweepEngine(jobs=1, runner=_holding_runner)
    session = engine.session()
    running = admit(session, small_spec(checksum_freq=2))
    queued = admit(session, small_spec(checksum_freq=3))
    pump(session, until=lambda: session.busy_slots == 1)

    # Queued: canceled immediately, no subprocess ever existed.
    assert session.cancel(queued.first) is True
    (outcome,) = queued.outcomes()
    assert outcome.status == "canceled"
    assert outcome.error == "canceled while queued"
    assert outcome.worker_id is None

    # Running: terminate lands on the next poll.
    assert session.cancel(running.first) is True
    pump(session, until=lambda: running.outcomes()[0] is not None)
    (outcome,) = running.outcomes()
    assert outcome.status == "canceled"
    assert outcome.error == "canceled while running"
    # The worker process is gone, not orphaned.
    assert session.busy_slots == 0
    assert session.cancel(running.first) is False  # already terminal
    session.close()


def test_session_close_cancels_and_emits_stream(tmp_path, monkeypatch):
    marker = tmp_path / "markers"
    marker.mkdir()
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(marker))
    (marker / "HOLD").touch()
    stream = tmp_path / "session.jsonl"
    engine = SweepEngine(
        jobs=1, runner=_holding_runner, telemetry=TelemetryBus(stream),
    )
    session = engine.session()
    first = admit(session, small_spec(checksum_freq=2))
    second = admit(session, small_spec(checksum_freq=3))
    pump(session, until=lambda: session.busy_slots == 1)
    session.close()
    assert first.outcomes()[0].status == "canceled"
    assert second.outcomes()[0].status == "canceled"
    with pytest.raises(RuntimeError, match="closed"):
        admit(session, small_spec())

    assert validate_file(stream) > 0
    records = read_records(stream)
    types = [r["type"] for r in records]
    assert types[0] == "engine_start"
    assert records[0]["graph"] == "session"
    assert types[-1] == "engine_stop"
    assert records[-1]["canceled"] == 2


def test_a_session_routes_a_finished_run_to_its_graph():
    # The caller only polls and waits: the poll hands a's outcome to its
    # graph, which admits b.
    chain = PipelineSpec(name="chain", nodes=(
        PipelineNode("a", run=small_spec()),
        PipelineNode("b", run=small_spec(checksum_freq=3), after=("a",)),
    ))
    session = SweepEngine(jobs=1).session()
    try:
        run = GraphRun(session, JobGraph.from_pipeline(chain))
        run.start()
        deadline = time.monotonic() + 10
        while not run.done:
            assert time.monotonic() < deadline, "b was never admitted"
            due = session.poll()
            session.wait(due, 0.5)
        assert [o.status for o in run.outcomes()] == ["ok", "ok"]
    finally:
        session.close()


def test_session_close_flushes_the_stats_store(tmp_path):
    path = tmp_path / "stats.json"
    spec = small_spec()
    session = SweepEngine(jobs=1, stats=RunStatsStore(path)).session()
    run = admit(session, spec)
    pump(session, until=lambda: session.active == 0)
    assert run.outcomes()[0].status == "ok"
    session.close()
    # A fresh store at the same path learned the run's duration.
    assert RunStatsStore(path).predict(spec_signature(spec)) is not None


# ----------------------------------------------------------------------
# Graceful shutdown of SweepEngine.run (satellite b)
# ----------------------------------------------------------------------
def test_request_shutdown_drains_and_blocks(tmp_path):
    stream = tmp_path / "shutdown.jsonl"
    engine = SweepEngine(
        jobs=2, runner=_sleep_forever_runner, retries=0,
        drain_timeout=0.5, telemetry=TelemetryBus(stream),
    )
    specs = [small_spec(checksum_freq=2 + i) for i in range(4)]
    timer = threading.Timer(0.7, engine.request_shutdown)
    timer.start()
    try:
        report = engine.run(specs)
    finally:
        timer.cancel()
    statuses = sorted(o.status for o in report.outcomes)
    # Two in-flight runs were terminated after the drain budget; the
    # two never-launched ones are blocked with the distinct reason.
    assert statuses == ["blocked", "blocked", "failed", "failed"]
    for outcome in report.outcomes:
        if outcome.status == "blocked":
            assert outcome.error == "blocked: engine shutdown"
        else:
            assert "engine shutdown" in outcome.error
    # No orphaned worker processes survive run().
    assert not [
        p for p in multiprocessing.active_children() if p.is_alive()
    ]
    # The terminal engine_stop record names the shutdown.
    records = read_records(stream)
    stops = [r for r in records if r["type"] == "engine_stop"]
    assert len(stops) == 1
    assert stops[0]["reason"] == "shutdown"
    assert stops[0]["blocked"] == 2
    blocked = [r for r in records if r["type"] == "job_blocked"]
    assert {r["blocker"] for r in blocked} == {"<shutdown>"}


def test_shutdown_flag_resets_between_runs():
    engine = SweepEngine(jobs=1)
    engine.request_shutdown()
    # A fresh run() must not be stillborn from a stale flag.
    report = engine.run([small_spec()])
    assert report.outcomes[0].status == "ok"


def test_signal_handlers_trigger_shutdown_and_restore():
    engine = SweepEngine(jobs=1)
    original = signal.getsignal(signal.SIGTERM)
    previous = engine._install_signal_handlers()
    try:
        handler = signal.getsignal(signal.SIGTERM)
        assert handler is not original
        handler(signal.SIGTERM, None)
        assert engine._shutdown is True
    finally:
        engine._restore_signal_handlers(previous)
    assert signal.getsignal(signal.SIGTERM) is original


# ----------------------------------------------------------------------
# The persistent worker pool
# ----------------------------------------------------------------------
#: ``sched_seed`` values that make :func:`_pid_logging_runner` misbehave;
#: any other seed runs the spec.
CRASH, RAISE, HANG, HOLD, CRASH_ONCE = 1001, 1002, 1003, 1004, 1005


def _pid_logging_runner(spec_dict):
    """Log ``<pid> <sched_seed> <monotonic time>`` for each attempt, then
    act on the seed."""
    marker = Path(os.environ["REPRO_EXEC_TEST_DIR"])
    seed = spec_dict["sched_seed"]
    with open(marker / "attempts.log", "a") as fh:
        fh.write(f"{os.getpid()} {seed} {time.monotonic()}\n")
    if seed == CRASH:
        os._exit(3)
    if seed == CRASH_ONCE and not (marker / "crashed").exists():
        (marker / "crashed").touch()
        os._exit(3)
    if seed == RAISE:
        raise ValueError("deterministic failure")
    if seed == HANG:
        time.sleep(600)
    while seed == HOLD and (marker / "HOLD").exists():
        time.sleep(0.02)
    return run_spec_dict(spec_dict)


_pid_logging_runner.reuse_worker = True


def _fresh_pid_logging_runner(spec_dict):
    """:func:`_pid_logging_runner` without ``reuse_worker``."""
    return _pid_logging_runner(spec_dict)


def _attempts(marker):
    """``(pid, sched_seed)`` of every attempt, in launch order."""
    lines = (marker / "attempts.log").read_text().splitlines()
    return [tuple(int(x) for x in line.split()[:2]) for line in lines]


def _attempt_times(marker):
    """``(sched_seed, monotonic start)`` of every attempt."""
    lines = (marker / "attempts.log").read_text().splitlines()
    return [(int(line.split()[1]), float(line.split()[2]))
            for line in lines]


def _sleep_then_run(spec_dict):
    time.sleep(0.5)
    return run_spec_dict(spec_dict)


def _sleep_5s(spec_dict):
    # Longer than the test's budget: a shutdown that fails to wake the
    # loop shows as run() returning only when these end.
    time.sleep(5)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cold_sweep_forks_at_most_jobs_workers(tmp_path, monkeypatch,
                                                 jobs):
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(tmp_path))
    specs = [replace(small_spec(), sched_seed=i) for i in range(6)]
    report = SweepEngine(jobs=jobs, runner=_pid_logging_runner).run(specs)
    assert report.executed == 6
    pids = {pid for pid, _ in _attempts(tmp_path)}
    assert len(pids) <= jobs
    # close() stopped and joined every idle worker.
    assert multiprocessing.active_children() == []


def test_a_runner_without_reuse_worker_gets_a_fork_per_attempt(
        tmp_path, monkeypatch):
    # Such a runner may keep per-process state (a profiler writing one
    # file per pid, say), so no worker runs it twice.
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(tmp_path))
    specs = [replace(small_spec(), sched_seed=i) for i in range(3)]
    report = SweepEngine(jobs=1, runner=_fresh_pid_logging_runner).run(specs)
    assert report.executed == 3
    assert len({pid for pid, _ in _attempts(tmp_path)}) == 3
    assert multiprocessing.active_children() == []


def test_a_crash_retried_without_backoff_does_not_stall(tmp_path,
                                                        monkeypatch):
    # The retry is requeued after the poll's launch step, already due,
    # with nothing left running: the wait must not block on its own.
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(tmp_path))
    engine = SweepEngine(jobs=1, runner=_pid_logging_runner, retries=1,
                         backoff=0.0)
    reports = []
    thread = threading.Thread(
        target=lambda: reports.append(engine.run(
            [replace(small_spec(), sched_seed=CRASH_ONCE)])),
        daemon=True,
    )
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "run() stalled on a due retry"
    outcome = reports[0].outcomes[0]
    assert outcome.ok and outcome.attempts == 2


def test_queued_work_takes_the_slot_a_crash_freed_at_once(tmp_path,
                                                          monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(tmp_path))
    session = SweepEngine(jobs=1, runner=_pid_logging_runner, retries=1,
                          backoff=2.0).session()
    crashing = admit(session,
                     replace(small_spec(), sched_seed=CRASH_ONCE))
    queued = admit(session, replace(small_spec(), sched_seed=0))
    deadline = time.monotonic() + 60
    while session.active and time.monotonic() < deadline:
        session.wait(session.poll())
    session.close()
    assert crashing.outcomes()[0].ok and queued.outcomes()[0].ok
    (first, crashed_at), (second, started_at), (third, _) = (
        _attempt_times(tmp_path))
    assert (first, second, third) == (CRASH_ONCE, 0, CRASH_ONCE)
    # Well inside the crashed run's 2 s backoff.
    assert started_at - crashed_at < 1.0


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_worker_never_runs_again_after_a_failed_attempt(
        tmp_path, monkeypatch, jobs):
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(tmp_path))
    seeds = [0, CRASH, 1, RAISE, 2, HANG, 3, 4]
    specs = [replace(small_spec(), sched_seed=s) for s in seeds]
    engine = SweepEngine(jobs=jobs, runner=_pid_logging_runner,
                         retries=1, backoff=0.01, timeout=2.0)
    report = engine.run(specs)
    status = {o.spec.sched_seed: o.status for o in report.outcomes}
    assert status == {s: "failed" if s in (CRASH, RAISE, HANG) else "ok"
                      for s in seeds}
    attempts = _attempts(tmp_path)
    # Crashes and timeouts are retried (on a fresh fork); errors are not.
    assert [s for _, s in attempts].count(CRASH) == 2
    assert [s for _, s in attempts].count(HANG) == 2
    for k, (pid, seed) in enumerate(attempts):
        if seed in (CRASH, RAISE, HANG):
            assert pid not in {p for p, _ in attempts[k + 1:]}
    assert multiprocessing.active_children() == []


def test_a_canceled_run_kills_its_worker(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(tmp_path))
    (tmp_path / "HOLD").touch()
    session = SweepEngine(jobs=1, runner=_pid_logging_runner).session()
    first = admit(session, replace(small_spec(), sched_seed=0))
    pump(session, until=lambda: session.active == 0)
    held = admit(session, replace(small_spec(), sched_seed=HOLD))
    pump(session, until=lambda: len(_attempts(tmp_path)) == 2)
    session.cancel(held.first)
    pump(session, until=lambda: held.outcomes()[0] is not None)
    last = admit(session, replace(small_spec(), sched_seed=1))
    pump(session, until=lambda: session.active == 0)
    session.close()
    assert [run.outcomes()[0].status for run in (first, held, last)] == [
        "ok", "canceled", "ok"]
    (ok_pid, _), (held_pid, _), (last_pid, _) = _attempts(tmp_path)
    # The idle worker took the held run; after the cancel a fresh one
    # was forked.
    assert held_pid == ok_pid
    assert last_pid != held_pid
    assert multiprocessing.active_children() == []


def test_one_worker_runs_any_history_like_a_fresh_process(tmp_path,
                                                          monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(tmp_path))
    base = small_spec()
    specs = [small_spec(variant=v)
             for v in ("mpi_only", "fork_join", "tampi_dataflow")]
    specs += [replace(small_spec(variant="tampi_dataflow"),
                      scheduler="fuzz", sched_seed=seed) for seed in (5, 6)]
    specs += [replace(base, trace=True), replace(base, profile=True),
              replace(base, faults=noise_plan(seed=3))]
    together = SweepEngine(jobs=1, runner=_pid_logging_runner).run(specs)
    assert len({pid for pid, _ in _attempts(tmp_path)}) == 1
    for spec, outcome in zip(specs, together.outcomes):
        # Each run() forks its own worker: a process with no run history.
        alone = SweepEngine(jobs=1).run([spec]).outcomes[0]
        assert outcome.status == alone.status == "ok"
        assert json.dumps(outcome.result.to_dict(), sort_keys=True) == (
            json.dumps(alone.result.to_dict(), sort_keys=True)
        )


def test_the_scheduling_loop_blocks_instead_of_polling():
    engine = SweepEngine(jobs=1, runner=_sleep_then_run)
    before = resource.getrusage(resource.RUSAGE_SELF)
    report = engine.run([small_spec()])
    after = resource.getrusage(resource.RUSAGE_SELF)
    assert report.executed == 1
    cpu = (after.ru_utime - before.ru_utime) + (
        after.ru_stime - before.ru_stime
    )
    assert cpu < 0.05, f"parent spent {cpu:.3f}s CPU waiting on one run"


def test_request_shutdown_from_a_thread_wakes_the_loop():
    engine = SweepEngine(jobs=2, runner=_sleep_5s, retries=0,
                         drain_timeout=0.3)
    fired = []

    def shutdown():
        fired.append(time.monotonic())
        engine.request_shutdown()

    timer = threading.Timer(0.3, shutdown)
    timer.start()
    try:
        report = engine.run(
            [small_spec(checksum_freq=2 + i) for i in range(3)]
        )
    finally:
        timer.cancel()
    elapsed = time.monotonic() - fired[0]
    assert sorted(o.status for o in report.outcomes) == [
        "blocked", "failed", "failed"]
    assert elapsed < engine.drain_timeout + 0.2


_KILLED_ENGINE = """
import os, signal, sys
sys.path.insert(0, sys.argv[1])
from test_engine_session import admit, small_spec
from repro.exec import SweepEngine
session = SweepEngine(jobs=2).session()
runs = [admit(session, small_spec(checksum_freq=c)) for c in (2, 3)]
while session.active:
    session.wait(session.poll(), 0.05)
print(*(proc.pid for proc, _ in session._idle), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _exited(pid):
    """The process ended (a zombie awaiting its new parent, or gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_idle_workers_exit_when_the_engine_process_dies():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _KILLED_ENGINE, str(here)], env=env,
        stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == -signal.SIGKILL
    pids = [int(p) for p in done.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while not all(_exited(p) for p in pids):
        assert time.monotonic() < deadline, "idle workers outlived the engine"
        time.sleep(0.05)
