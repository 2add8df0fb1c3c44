"""EngineSession (incremental admission) and graceful engine shutdown."""

import json
import os
import signal
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
from repro.obs.telemetry import TelemetryBus, read_records, validate_file


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
    tickets = [session.submit(spec) for spec in specs]
    pump(session, until=lambda: session.active == 0)
    outcomes = [session.outcome(t) for t in tickets]
    assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
    # Always-subprocess execution reproduces in-process results exactly.
    assert [o.result for o in outcomes] == serial.results
    # Completed runs are stored to the shared cache.
    for spec in specs:
        assert engine.cache.get(spec.fingerprint()) is not None
    session.close()


def test_session_submit_keeps_the_trace(tmp_path):
    # The serve broker's path: a traced spec submitted to a session comes
    # back, and is cached, with the trace an in-process run records.
    spec = replace(small_spec(variant="tampi_dataflow"), trace=True)
    local = run_simulation(spec)
    engine = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "cache"))
    session = engine.session()
    ticket = session.submit(spec)
    pump(session, until=lambda: session.active == 0)
    outcome = session.outcome(ticket)
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
    ticket = session.submit(spec)
    pump(session, until=lambda: session.active == 0)
    outcome = session.outcome(ticket)
    session.close()
    assert outcome.status == "ok"
    assert parent_calls == []
    entry = json.loads(engine.cache.path(spec.fingerprint()).read_text())
    assert entry["result"]["trace"]
    assert entry["result"] == json.loads(json.dumps(to_dict(outcome.result)))


def test_session_priority_orders_launches(tmp_path):
    engine = SweepEngine(jobs=1)
    session = engine.session()
    low = session.submit(small_spec(checksum_freq=2), priority=0.0)
    high = session.submit(small_spec(checksum_freq=3), priority=5.0)
    mid = session.submit(small_spec(checksum_freq=4), priority=1.0)
    pump(session, until=lambda: session.active == 0)
    # jobs=1 launches strictly one at a time, highest priority first —
    # queue wait times therefore order by descending priority.
    order = sorted(
        (low, high, mid),
        key=lambda t: session.outcome(t).wait_time,
    )
    assert order[0] == high
    assert order[1] == mid
    assert order[2] == low
    session.close()


def test_session_aging_prevents_starvation():
    engine = SweepEngine(jobs=1)
    # Enormous aging rate: one queued second outweighs any base priority.
    session = engine.session(aging_rate=1000.0)
    old = session.submit(small_spec(checksum_freq=2), priority=0.0)
    time.sleep(0.15)
    young = session.submit(small_spec(checksum_freq=3), priority=5.0)
    started = []
    deadline = time.monotonic() + 30
    while session.active and time.monotonic() < deadline:
        started.extend(session.poll().started)
        time.sleep(0.01)
    # The older low-priority job out-ages the younger high-priority one.
    assert started[0] == old
    session.close()


def test_session_cancel_queued_and_running(tmp_path, monkeypatch):
    marker = tmp_path / "markers"
    marker.mkdir()
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(marker))
    (marker / "HOLD").touch()
    engine = SweepEngine(jobs=1, runner=_holding_runner)
    session = engine.session()
    running = session.submit(small_spec(checksum_freq=2))
    queued = session.submit(small_spec(checksum_freq=3))
    pump(session, until=lambda: session.busy_slots == 1)

    # Queued: canceled immediately, no subprocess ever existed.
    assert session.cancel(queued) is True
    outcome = session.outcome(queued)
    assert outcome.status == "canceled"
    assert outcome.error == "canceled while queued"
    assert outcome.worker_id is None

    # Running: terminate lands on the next poll.
    assert session.cancel(running) is True
    pump(session, until=lambda: session.outcome(running) is not None)
    outcome = session.outcome(running)
    assert outcome.status == "canceled"
    assert outcome.error == "canceled while running"
    # The worker process is gone, not orphaned.
    assert session.busy_slots == 0
    assert session.cancel(running) is False  # already terminal
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
    first = session.submit(small_spec(checksum_freq=2), tenant="alice")
    second = session.submit(small_spec(checksum_freq=3), tenant="bob")
    pump(session, until=lambda: session.busy_slots == 1)
    session.close()
    assert session.outcome(first).status == "canceled"
    assert session.outcome(second).status == "canceled"
    with pytest.raises(RuntimeError, match="closed"):
        session.submit(small_spec())

    assert validate_file(stream) > 0
    records = read_records(stream)
    types = [r["type"] for r in records]
    assert types[0] == "engine_start"
    assert records[0]["graph"] == "session"
    assert types[-1] == "engine_stop"
    assert records[-1]["canceled"] == 2
    # Tenant attribution rides on the session's job records.
    queued = [r for r in records if r["type"] == "job_queued"]
    assert {r.get("tenant") for r in queued} == {"alice", "bob"}


def test_session_close_flushes_the_stats_store(tmp_path):
    path = tmp_path / "stats.json"
    spec = small_spec()
    session = SweepEngine(jobs=1, stats=RunStatsStore(path)).session()
    ticket = session.submit(spec)
    pump(session, until=lambda: session.active == 0)
    assert session.outcome(ticket).status == "ok"
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
    import multiprocessing

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
