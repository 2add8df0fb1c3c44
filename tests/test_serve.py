"""repro.serve: protocol, journal, and broker invariants (no HTTP).

The broker invariants of ISSUE satellite (c) live here: N concurrent
clients with overlapping fingerprints get exactly one execution per
unique fingerprint, quotas hold under contention, and a journal replay
after a simulated crash completes every job without duplicate
executions.  Execution counting uses completion markers the runner
writes at the *end* of a run — an attempt killed mid-run (the crash
tests) deliberately does not count.
"""

import json
import os
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import AmrConfig, RunSpec, sphere
from repro.exec import ResultCache, SweepEngine, run_spec_dict
from repro.pipeline import register_generator
from repro.serve import (
    Broker,
    JobRecord,
    JobStore,
    ProtocolError,
    TokenBucket,
    parse_submit,
    submit_fingerprint,
)


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


def submit_body(spec, *, tenant="anon", priority=0.0, kind="run"):
    return {"v": 1, "kind": kind, "spec": spec.to_dict(),
            "tenant": tenant, "priority": priority}


def small_pipeline():
    from repro.pipeline import PipelineNode, PipelineSpec

    return PipelineSpec(name="serve-pipeline", nodes=(
        PipelineNode("root", run=small_spec()),
        PipelineNode("fork", run=small_spec(variant="fork_join"),
                     after=("root",)),
    ))


# ----------------------------------------------------------------------
# Runners (module-level: picklable across fork/spawn)
# ----------------------------------------------------------------------
def _marking_runner(spec_dict):
    """Real run, then a completion marker named by the fingerprint."""
    result = run_spec_dict(spec_dict)
    fp = RunSpec.from_dict(spec_dict).fingerprint()
    marker_dir = Path(os.environ["REPRO_EXEC_TEST_DIR"])
    (marker_dir / f"exec-{fp}-{os.getpid()}-{time.monotonic_ns()}").touch()
    return result


def _holding_runner(spec_dict):
    """Blocks while the HOLD file exists, then completes with a marker."""
    hold = Path(os.environ["REPRO_EXEC_TEST_DIR"]) / "HOLD"
    while hold.exists():
        time.sleep(0.02)
    return _marking_runner(spec_dict)


def _sleeping_runner(spec_dict):
    """Outlives any test timeout; the engine must kill it."""
    time.sleep(60)
    return run_spec_dict(spec_dict)


_SLOW_NODE_STARTED = threading.Event()


@register_generator("test.serve_slow_analysis")
def _slow_analysis(params, deps):
    """An analysis node that takes 1.5 s to build in the broker."""
    _SLOW_NODE_STARTED.set()
    time.sleep(1.5)
    return {"done": True}


def executions(marker_dir, fingerprint=None) -> int:
    pattern = f"exec-{fingerprint}-*" if fingerprint else "exec-*"
    return len(list(Path(marker_dir).glob(pattern)))


@pytest.fixture
def marker_dir(tmp_path, monkeypatch):
    d = tmp_path / "markers"
    d.mkdir()
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(d))
    return d


def make_broker(tmp_path, *, runner=_marking_runner, jobs=2, timeout=None,
                **kwargs):
    engine = SweepEngine(
        jobs=jobs, cache=ResultCache(tmp_path / "cache"),
        runner=runner, drain_timeout=5.0, timeout=timeout,
    )
    kwargs.setdefault("quota_rate", 1000.0)
    kwargs.setdefault("quota_burst", 1000)
    return Broker(
        engine=engine, store=JobStore(tmp_path / "serve"), **kwargs,
    )


def wait_admitted(broker, count, timeout=10.0):
    """Wait until the session holds ``count`` live tickets."""
    deadline = time.monotonic() + timeout
    while broker.session.active < count:
        assert time.monotonic() < deadline, "work never admitted"
        time.sleep(0.01)


def finish_order(marker_dir, *specs):
    """``specs`` in the order their runs finished (one marker each)."""
    def finished_ns(spec):
        (marker,) = Path(marker_dir).glob(f"exec-{spec.fingerprint()}-*")
        return int(marker.name.rsplit("-", 1)[1])

    return sorted(specs, key=finished_ns)


def wait_terminal(broker, job_ids, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        jobs = [broker.store.get(j) for j in job_ids]
        if all(j is not None and j.terminal for j in jobs):
            return jobs
        time.sleep(0.02)
    states = [getattr(broker.store.get(j), "state", None) for j in job_ids]
    raise AssertionError(f"jobs not terminal after {timeout}s: {states}")


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
def test_parse_submit_roundtrip():
    spec = small_spec()
    kind, payload, tenant, priority = parse_submit(
        submit_body(spec, tenant="alice", priority=2.5)
    )
    assert kind == "run"
    assert payload == spec
    assert (tenant, priority) == ("alice", 2.5)
    # The service keys the cache with the spec's native fingerprint, so
    # served runs share entries with ad-hoc CLI runs.
    assert submit_fingerprint(kind, payload) == spec.fingerprint()


@pytest.mark.parametrize("mutate, code", [
    (lambda b: b.update(v=99), "unsupported_version"),
    (lambda b: b.update(kind="bogus"), "invalid_request"),
    (lambda b: b.pop("spec"), "invalid_request"),
    (lambda b: b.update(spec={"variant": "no_such_variant"}),
     "invalid_spec"),
    (lambda b: b.update(tenant=""), "invalid_request"),
    (lambda b: b.update(tenant="x" * 65), "invalid_request"),
    (lambda b: b.update(priority="high"), "invalid_request"),
])
def test_parse_submit_rejections(mutate, code):
    body = submit_body(small_spec())
    mutate(body)
    with pytest.raises(ProtocolError) as err:
        parse_submit(body)
    assert err.value.code == code
    assert err.value.exit_code == 2
    assert err.value.http_status == 400


def test_protocol_error_body_and_retry_after():
    err = ProtocolError("quota_exceeded", "slow down", retry_after=3)
    assert err.http_status == 429
    body = err.body()
    assert body["v"] == 1
    assert body["error"]["code"] == "quota_exceeded"
    assert body["error"]["retry_after"] == 3


def test_token_bucket_burst_then_refill():
    bucket = TokenBucket(capacity=2, rate=10.0)
    assert bucket.take(0.0) == 0.0
    assert bucket.take(0.0) == 0.0
    wait = bucket.take(0.0)
    assert wait == pytest.approx(0.1)
    # After the advertised wait, one token is back.
    assert bucket.take(wait) == 0.0


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def job_record(i, state="queued", **kwargs):
    kwargs.setdefault("fingerprint", f"f{i:03d}")
    return JobRecord(id=f"j{i:03d}", tenant="t", kind="run",
                     spec={"n": i}, state=state, **kwargs)


def test_journal_replay_last_wins(tmp_path):
    store = JobStore(tmp_path)
    job = job_record(1)
    store.record(job)
    job.state = "running"
    store.record(job)
    job.state = "done"
    store.record(job)
    store.record(job_record(2))
    store.close()
    replayed = JobStore(tmp_path)
    assert len(replayed) == 2
    assert replayed.get("j001").state == "done"
    assert replayed.get("j002").state == "queued"
    # Three mutations of j001 really are three journal lines pre-compact.
    lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
    assert len(lines) == 4


def test_journal_tolerates_torn_final_line_only(tmp_path):
    store = JobStore(tmp_path)
    store.record(job_record(1))
    store.record(job_record(2))
    store.close()
    path = tmp_path / "jobs.jsonl"
    with open(path, "a") as fh:
        fh.write('{"id": "j003", "tenant": "t", "ki')  # torn mid-write
    replayed = JobStore(tmp_path)
    assert len(replayed) == 2
    replayed.close()
    # The same corruption anywhere else is a loud error.
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[-1]] + lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="corrupt journal line"):
        JobStore(tmp_path)


def test_journal_compaction_collapses_history(tmp_path):
    store = JobStore(tmp_path, compact_every=10_000)
    for i in range(5):
        job = job_record(i)
        store.record(job)
        job.state = "done"
        store.record(job)
    assert len((tmp_path / "jobs.jsonl").read_text().splitlines()) == 10
    store.compact()
    assert len((tmp_path / "jobs.jsonl").read_text().splitlines()) == 5
    # The journal stays appendable after the fd swap.
    store.record(job_record(99))
    store.close()
    assert len(JobStore(tmp_path)) == 6


def test_journal_auto_compacts_at_threshold(tmp_path):
    store = JobStore(tmp_path, compact_every=8)
    job = job_record(1)
    for _ in range(20):
        store.record(job)
    lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
    assert len(lines) < 20
    store.close()


def test_job_record_rejects_unknown_state():
    with pytest.raises(ValueError, match="unknown job state"):
        job_record(1, state="paused")


# ----------------------------------------------------------------------
# Broker invariants (satellite c)
# ----------------------------------------------------------------------
def test_concurrent_overlapping_submits_execute_each_fingerprint_once(
    tmp_path, marker_dir,
):
    broker = make_broker(tmp_path)
    broker.start()
    try:
        specs = [small_spec(), small_spec(variant="fork_join")]
        responses = []
        errors = []

        def client(i):
            try:
                body = submit_body(
                    specs[i % 2], tenant=f"tenant{i % 3}",
                )
                responses.append(broker.submit(body))
            except Exception as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(responses) == 8
        job_ids = [r["job"]["id"] for r in responses]
        jobs = wait_terminal(broker, job_ids)
        assert all(j.state == "done" for j in jobs)
        for spec in specs:
            # Exactly one completion marker per unique fingerprint, no
            # matter how many clients raced on it.
            assert executions(marker_dir, spec.fingerprint()) == 1
        # Every non-primary submit was coalesced (or cached if it landed
        # after completion) — never a second execution.
        modes = sorted(r["mode"] for r in responses)
        assert modes.count("new") == 2
        assert set(modes) <= {"new", "coalesced", "cached"}
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_cache_fast_path_skips_execution(tmp_path, marker_dir):
    broker = make_broker(tmp_path)
    broker.start()
    try:
        spec = small_spec()
        first = broker.submit(submit_body(spec))
        wait_terminal(broker, [first["job"]["id"]])
        again = broker.submit(submit_body(spec, tenant="other"))
        assert again["mode"] == "cached"
        assert again["job"]["state"] == "done"
        assert again["job"]["cached"] is True
        assert executions(marker_dir, spec.fingerprint()) == 1
        # Both jobs resolve to the same result payload.
        r1 = broker.result(first["job"]["id"])["result"]
        r2 = broker.result(again["job"]["id"])["result"]
        assert json.dumps(r1, sort_keys=True) == json.dumps(
            r2, sort_keys=True
        )
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_an_idle_broker_keeps_no_worker_alive(tmp_path):
    import multiprocessing

    broker = make_broker(tmp_path, runner=run_spec_dict, jobs=1)
    broker.start()
    try:
        job = broker.submit(submit_body(small_spec()))
        wait_terminal(broker, [job["job"]["id"]])
        deadline = time.monotonic() + 10
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "idle worker kept alive"
            time.sleep(0.02)
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_an_idle_broker_uses_no_cpu(tmp_path):
    import multiprocessing

    broker = make_broker(tmp_path, runner=run_spec_dict, jobs=1)
    broker.start()
    try:
        job = broker.submit(submit_body(small_spec()))
        wait_terminal(broker, [job["job"]["id"]])
        deadline = time.monotonic() + 10
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "idle worker kept alive"
            time.sleep(0.02)
        # The scheduler thread's own CPU clock: other threads of the
        # test process do not count.
        (thread,) = broker._threads
        clock = time.pthread_getcpuclockid(thread.ident)
        before = time.clock_gettime(clock)
        time.sleep(1.0)
        used = time.clock_gettime(clock) - before
        assert used < 0.002, f"idle scheduler used {used * 1e3:.1f} ms/s"
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_an_older_run_outranks_a_younger_higher_priority_run(
    tmp_path, marker_dir,
):
    """Aging is the broker's rule: at this rate, the old run's extra
    queue time outweighs the young run's higher base priority."""
    (marker_dir / "HOLD").touch()
    broker = make_broker(tmp_path, runner=_holding_runner, jobs=1,
                         aging_rate=1000.0)
    broker.start()
    holder, old, young = (small_spec(checksum_freq=f) for f in (2, 3, 4))
    try:
        ids = []
        for count, (spec, priority) in enumerate(
            ((holder, 0.0), (old, 0.0), (young, 5.0)), start=1,
        ):
            ids.append(broker.submit(
                submit_body(spec, priority=priority)
            )["job"]["id"])
            wait_admitted(broker, count)
            time.sleep(0.05)
        (marker_dir / "HOLD").unlink()
        assert {j.state for j in wait_terminal(broker, ids)} == {"done"}
        assert finish_order(marker_dir, young, old, holder) == [
            holder, old, young,
        ]
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_a_pipeline_node_ages_from_its_execution_admission(
    tmp_path, marker_dir,
):
    """A pipeline's second node enters the session after a younger run,
    yet outranks it: every node of a graph ages from the admission of
    its execution, not from its own readiness."""
    from repro.pipeline import JobGraph

    (marker_dir / "HOLD").touch()
    broker = make_broker(tmp_path, runner=_holding_runner, jobs=1,
                         aging_rate=1000.0)
    pipeline = small_pipeline()
    root, fork = (node.run for node in pipeline.nodes)
    graph = JobGraph.from_pipeline(pipeline)
    fork_rank = graph.critical_path_priorities(
        broker.engine.predict_costs(graph)
    )[1]
    young = small_spec(checksum_freq=3)
    broker.start()
    try:
        ids = [broker.submit(
            submit_body(pipeline, kind="pipeline")
        )["job"]["id"]]
        wait_admitted(broker, 1)   # the root, held; the fork waits on it
        time.sleep(0.05)
        # Without aging, the young run's base priority wins.
        ids.append(broker.submit(
            submit_body(young, priority=fork_rank + 5.0)
        )["job"]["id"])
        wait_admitted(broker, 2)
        (marker_dir / "HOLD").unlink()
        assert {j.state for j in wait_terminal(broker, ids)} == {"done"}
        assert finish_order(marker_dir, young, fork, root) == [
            root, fork, young,
        ]
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_a_graph_starts_at_its_execution_priority(tmp_path, marker_dir):
    """A pipeline's head starts at the pipeline's own priority, not above
    it by the graph's predicted cost: an older run of equal priority
    still goes first."""
    (marker_dir / "HOLD").touch()
    broker = make_broker(tmp_path, runner=_holding_runner, jobs=1,
                         aging_rate=0.0)
    pipeline = small_pipeline()
    root = pipeline.nodes[0].run
    holder, old = (small_spec(checksum_freq=f) for f in (3, 4))
    broker.start()
    try:
        ids = []
        for count, body in enumerate((
            submit_body(holder), submit_body(old),
            submit_body(pipeline, kind="pipeline"),
        ), start=1):
            ids.append(broker.submit(body)["job"]["id"])
            wait_admitted(broker, count)
        (marker_dir / "HOLD").unlink()
        assert {j.state for j in wait_terminal(broker, ids)} == {"done"}
        assert finish_order(marker_dir, root, old, holder) == [
            holder, old, root,
        ]
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_quota_enforced_under_contention(tmp_path, marker_dir):
    broker = make_broker(
        tmp_path, quota_rate=0.001, quota_burst=3,
    )
    # No broker.start(): admission control needs no scheduler.
    spec_for = lambda i: small_spec(num_tsteps=1, checksum_freq=2 + i)
    rejected = []
    accepted = []

    def client(i):
        try:
            accepted.append(broker.submit(
                submit_body(spec_for(i), tenant="greedy")
            ))
        except ProtocolError as exc:
            rejected.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Burst of 3 admitted; the rest rejected with a Retry-After hint.
    assert len(accepted) == 3
    assert len(rejected) == 5
    for exc in rejected:
        assert exc.code == "quota_exceeded"
        assert exc.http_status == 429
        assert exc.retry_after >= 1
    # A different tenant draws from its own bucket.
    other = broker.submit(submit_body(spec_for(99), tenant="patient"))
    assert other["mode"] == "new"
    broker.shutdown(drain_timeout=0.0)


def test_queue_cap_backpressure(tmp_path, marker_dir):
    broker = make_broker(tmp_path, queue_cap=2)
    try:
        broker.submit(submit_body(small_spec(checksum_freq=2)))
        broker.submit(submit_body(small_spec(checksum_freq=3)))
        with pytest.raises(ProtocolError) as err:
            broker.submit(submit_body(small_spec(checksum_freq=4)))
        assert err.value.code == "queue_full"
        assert err.value.http_status == 429
        assert err.value.retry_after >= 1
        # Coalescing onto an existing execution is not new queue depth.
        dup = broker.submit(submit_body(small_spec(checksum_freq=2),
                                        tenant="other"))
        assert dup["mode"] == "coalesced"
    finally:
        broker.shutdown(drain_timeout=0.0)


@pytest.mark.parametrize("cap, retry_after", [(2, 1), (64, 13)])
def test_queue_full_retry_after_grows_with_depth(
    tmp_path, marker_dir, cap, retry_after,
):
    broker = make_broker(tmp_path, queue_cap=cap)
    # Not started: every execution stays queued.
    try:
        for seed in range(cap):
            broker.submit(submit_body(replace(small_spec(), sched_seed=seed)))
        with pytest.raises(ProtocolError) as err:
            broker.submit(submit_body(replace(small_spec(), sched_seed=cap)))
        assert err.value.code == "queue_full"
        assert err.value.retry_after == retry_after
    finally:
        broker.shutdown(drain_timeout=0.0)


def test_cancel_queued_job(tmp_path, marker_dir):
    broker = make_broker(tmp_path)
    # Not started: the job stays queued, cancel must be immediate.
    submitted = broker.submit(submit_body(small_spec()))
    job_id = submitted["job"]["id"]
    canceled = broker.cancel(job_id)
    assert canceled["job"]["state"] == "canceled"
    with pytest.raises(ProtocolError) as err:
        broker.result(job_id)
    assert err.value.code == "conflict"
    # Cancel of a terminal job conflicts too.
    with pytest.raises(ProtocolError) as err:
        broker.cancel(job_id)
    assert err.value.code == "conflict"
    broker.shutdown(drain_timeout=0.0)


def test_cancel_of_a_run_queued_in_the_session_frees_its_queue_slot(
    tmp_path, marker_dir,
):
    """A run the session holds queued behind a busy slot settles at once
    on cancel, so it no longer counts against ``queue_cap``."""
    broker = make_broker(tmp_path, runner=_sleeping_runner, jobs=1,
                         queue_cap=2)
    broker.start()
    try:
        holder = broker.submit(submit_body(small_spec()))["job"]["id"]
        deadline = time.monotonic() + 10
        while broker.store.get(holder).state != "running":
            assert time.monotonic() < deadline, "holder never started"
            time.sleep(0.02)
        for freq in (3, 4):
            job_id = broker.submit(
                submit_body(small_spec(checksum_freq=freq))
            )["job"]["id"]
            # Wait until the scheduler has admitted it into the session.
            while broker.session.active < 2:
                assert time.monotonic() < deadline, "run never admitted"
                time.sleep(0.02)
            broker.cancel(job_id)
        assert broker.metrics()["queue"]["depth"] == 1
        accepted = broker.submit(submit_body(small_spec(checksum_freq=5)))
        assert accepted["mode"] == "new"
    finally:
        broker.shutdown(drain_timeout=0.0)


def test_coalesced_job_survives_primary_cancel(tmp_path, marker_dir):
    (marker_dir / "HOLD").touch()
    broker = make_broker(tmp_path, runner=_holding_runner)
    broker.start()
    try:
        spec = small_spec()
        first = broker.submit(submit_body(spec, tenant="a"))
        second = broker.submit(submit_body(spec, tenant="b"))
        assert second["mode"] == "coalesced"
        # Canceling the primary leaves the execution alive for the
        # coalesced attachee.
        broker.cancel(first["job"]["id"])
        (marker_dir / "HOLD").unlink()
        jobs = wait_terminal(broker, [second["job"]["id"]])
        assert jobs[0].state == "done"
        assert broker.store.get(first["job"]["id"]).state == "canceled"
        assert executions(marker_dir, spec.fingerprint()) == 1
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_journal_replay_recovers_after_simulated_crash(
    tmp_path, marker_dir,
):
    (marker_dir / "HOLD").touch()
    broker = make_broker(tmp_path, runner=_holding_runner, jobs=1)
    broker.start()
    spec_a = small_spec()
    spec_b = small_spec(variant="fork_join")
    ids = [
        broker.submit(submit_body(spec_a, tenant="a"))["job"]["id"],
        broker.submit(submit_body(spec_b, tenant="b"))["job"]["id"],
        broker.submit(submit_body(spec_a, tenant="c"))["job"]["id"],
    ]
    # Wait until the first execution is journaled as running.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if any(broker.store.get(j).state == "running" for j in ids):
            break
        time.sleep(0.02)
    else:
        raise AssertionError("no job reached running")
    # Simulated crash: kill the threads and worker processes without any
    # graceful shutdown — the journal is whatever was already on disk.
    broker._stop_scheduler()
    broker.session.close()
    broker.store.close()

    # Restart: a fresh broker over the same journal directory.
    (marker_dir / "HOLD").unlink()
    engine = SweepEngine(
        jobs=1, cache=ResultCache(tmp_path / "cache"),
        runner=_marking_runner, drain_timeout=5.0,
    )
    broker2 = Broker(
        engine=engine, store=JobStore(tmp_path / "serve"),
        quota_rate=1000.0, quota_burst=1000,
    )
    # Recovery re-queued the interrupted execution rather than losing
    # or completing it blindly.
    assert {broker2.store.get(j).state for j in ids} == {"queued"}
    broker2.start()
    try:
        jobs = wait_terminal(broker2, ids)
        assert [j.state for j in jobs] == ["done", "done", "done"]
        # The killed first attempt never completed (no marker), so
        # exactly one *completed* execution per unique fingerprint.
        assert executions(marker_dir, spec_a.fingerprint()) == 1
        assert executions(marker_dir, spec_b.fingerprint()) == 1
        # Coalesced duplicate shares the primary's result bytes.
        r1 = broker2.result(ids[0])["result"]
        r3 = broker2.result(ids[2])["result"]
        assert json.dumps(r1, sort_keys=True) == json.dumps(
            r3, sort_keys=True
        )
    finally:
        broker2.shutdown(drain_timeout=5.0)


@pytest.mark.parametrize("kind", ["run", "pipeline", "tune"])
def test_restart_reattaches_done_results_from_cache(
    tmp_path, marker_dir, kind,
):
    broker = make_broker(tmp_path)
    broker.start()
    spec = {"run": small_spec, "pipeline": small_pipeline,
            "tune": small_tune}[kind]()
    job_id = broker.submit(submit_body(spec, kind=kind))["job"]["id"]
    (job,) = wait_terminal(broker, [job_id])
    assert job.state == "done", job.error
    assert job.attempts >= 1
    before = broker.result(job_id)["result"]
    broker.shutdown(drain_timeout=5.0)
    ran = executions(marker_dir)
    assert ran >= 1

    engine = SweepEngine(
        jobs=2, cache=ResultCache(tmp_path / "cache"),
        runner=_marking_runner,
    )
    broker2 = Broker(
        engine=engine, store=JobStore(tmp_path / "serve"),
        quota_rate=1000.0, quota_burst=1000,
    )
    # Without ever starting the scheduler: the result of every job kind
    # comes straight from the content-addressed cache the previous life
    # wrote.
    after = broker2.result(job_id)["result"]
    assert json.dumps(after, sort_keys=True) == json.dumps(
        before, sort_keys=True
    )
    assert broker2._threads == []
    assert executions(marker_dir) == ran
    broker2.shutdown(drain_timeout=0.0)


@pytest.mark.parametrize("kind", ["run", "pipeline"])
def test_engine_timeout_fails_every_kind_alike(tmp_path, marker_dir, kind):
    broker = make_broker(
        tmp_path, runner=_sleeping_runner, jobs=1, timeout=0.3,
    )
    broker.start()
    try:
        spec = small_pipeline() if kind == "pipeline" else small_spec()
        job_id = broker.submit(submit_body(spec, kind=kind))["job"]["id"]
        (job,) = wait_terminal(broker, [job_id])
        assert job.state == "failed"
        assert "timed out after 0.3s" in job.error
        with pytest.raises(ProtocolError) as err:
            broker.result(job_id)
        assert err.value.code == "job_failed"
    finally:
        broker.shutdown(drain_timeout=5.0)


@pytest.mark.parametrize("kind", ["pipeline", "tune"])
def test_shutdown_stops_inflight_pipeline_lane_and_restart_finishes_it(
    tmp_path, marker_dir, kind,
):
    broker = make_broker(tmp_path, runner=_sleeping_runner, jobs=1)
    broker.start()
    spec = small_pipeline() if kind == "pipeline" else small_tune()
    job_id = broker.submit(submit_body(spec, kind=kind))["job"]["id"]
    deadline = time.monotonic() + 10
    while broker.store.get(job_id).state != "running":
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.02)
    t0 = time.monotonic()
    broker.shutdown(drain_timeout=0.2)
    assert time.monotonic() - t0 < 3.0
    assert not any(t.is_alive() for t in broker._threads)

    # Same journal and cache, a runner that finishes.
    broker2 = make_broker(tmp_path)
    assert broker2.store.get(job_id).state == "queued"
    broker2.start()
    try:
        (job,) = wait_terminal(broker2, [job_id])
        assert job.state == "done", job.error
    finally:
        broker2.shutdown(drain_timeout=5.0)


def test_cancel_withdraws_a_running_pipeline_from_the_pool(
    tmp_path, marker_dir,
):
    broker = make_broker(tmp_path, runner=_sleeping_runner, jobs=1)
    broker.start()
    try:
        job_id = broker.submit(
            submit_body(small_pipeline(), kind="pipeline")
        )["job"]["id"]
        deadline = time.monotonic() + 10
        while broker.store.get(job_id).state != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.02)
        # The pipeline's node occupies the one shared worker slot.
        assert broker.metrics()["engine"]["busy_slots"] >= 1
        broker.cancel(job_id)
        deadline = time.monotonic() + 2.0
        while broker.metrics()["engine"]["busy_slots"]:
            assert time.monotonic() < deadline, "canceled work kept running"
            time.sleep(0.02)
        assert broker.store.get(job_id).state == "canceled"
    finally:
        broker.shutdown(drain_timeout=0.0)


def test_cancel_withdraws_a_running_run_from_the_pool(tmp_path, marker_dir):
    broker = make_broker(tmp_path, runner=_sleeping_runner, jobs=1)
    broker.start()
    try:
        job_id = broker.submit(submit_body(small_spec()))["job"]["id"]
        deadline = time.monotonic() + 10
        while broker.store.get(job_id).state != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.02)
        broker.cancel(job_id)
        deadline = time.monotonic() + 2.0
        while (broker.metrics()["engine"]["busy_slots"]
               or broker.queue_snapshot()["depth"]):
            assert time.monotonic() < deadline, "canceled work kept running"
            time.sleep(0.02)
    finally:
        broker.shutdown(drain_timeout=0.0)


def test_cancel_of_a_pipeline_queued_in_the_session_frees_its_queue_slot(
    tmp_path, marker_dir,
):
    """A graph whose only live node waits behind a busy slot ends at
    once on cancel, so it no longer counts against ``queue_cap``."""
    broker = make_broker(tmp_path, runner=_sleeping_runner, jobs=1)
    broker.start()
    try:
        holder = broker.submit(submit_body(small_spec()))["job"]["id"]
        deadline = time.monotonic() + 10
        while broker.store.get(holder).state != "running":
            assert time.monotonic() < deadline, "holder never started"
            time.sleep(0.02)
        job_id = broker.submit(
            submit_body(small_pipeline(), kind="pipeline")
        )["job"]["id"]
        wait_admitted(broker, 2)
        broker.cancel(job_id)
        deadline = time.monotonic() + 2.0
        while broker.queue_snapshot()["depth"] != 1:
            assert time.monotonic() < deadline, "canceled graph kept its slot"
            time.sleep(0.02)
    finally:
        broker.shutdown(drain_timeout=0.0)


def test_concurrent_graph_submits_and_cancels_all_settle(
    tmp_path, marker_dir,
):
    """Client threads submit and cancel pipeline jobs while the one
    scheduler thread admits and routes their graphs: every job ends
    terminal, kept jobs finish ``done``, and no graph keeps a slot."""
    from repro.pipeline import PipelineSpec

    broker = make_broker(tmp_path, jobs=2)
    broker.start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pipes = [PipelineSpec(name=f"p{i}", nodes=small_pipeline().nodes)
                 for i in range(3)]
        kept, dropped, errors = [], [], []

        def client(i):
            try:
                body = submit_body(pipes[i % 3], kind="pipeline")
                job_id = broker.submit(body)["job"]["id"]
                if i % 2:
                    try:
                        broker.cancel(job_id)
                    except ProtocolError as exc:  # finished first
                        assert exc.code == "conflict"
                    dropped.append(job_id)
                else:
                    kept.append(job_id)
            except Exception as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert not errors
        assert all(j.state == "done" for j in wait_terminal(broker, kept))
        assert {j.state for j in wait_terminal(broker, dropped)} <= {
            "canceled", "done",
        }
        deadline = time.monotonic() + 10
        while broker.queue_snapshot()["depth"] or (
            broker.metrics()["engine"]["busy_slots"]
        ):
            assert time.monotonic() < deadline, broker.queue_snapshot()
            time.sleep(0.02)
    finally:
        sys.setswitchinterval(interval)
        broker.shutdown(drain_timeout=5.0)


def test_metrics_and_queue_snapshot_shape(tmp_path, marker_dir):
    broker = make_broker(tmp_path)
    broker.start()
    try:
        job_id = broker.submit(submit_body(small_spec()))["job"]["id"]
        wait_terminal(broker, [job_id])
        metrics = broker.metrics()
        assert metrics["v"] == 1
        assert metrics["jobs"]["total"] == 1
        assert metrics["jobs"]["by_state"]["done"] == 1
        assert metrics["executions"]["started"] == 1
        assert metrics["executions"]["completed"] == 1
        assert metrics["queue"]["cap"] == broker.queue_cap
        assert metrics["engine"]["jobs"] == 2
        assert metrics["queue"]["wait_histogram_ms"]  # at least 1 bucket
        snapshot = broker.queue_snapshot()
        assert snapshot["depth"] == 0
        assert snapshot["queued"] == [] and snapshot["running"] == []
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_a_new_served_run_counts_one_cache_miss(tmp_path, marker_dir):
    """Submit looks the run up, and admission re-checks it; only the
    first lookup counts as a miss."""
    broker = make_broker(tmp_path, jobs=1)
    broker.start()
    try:
        job_id = broker.submit(submit_body(small_spec()))["job"]["id"]
        wait_terminal(broker, [job_id])
        cache = broker.metrics()["cache"]
        assert (cache["hits"], cache["misses"]) == (0, 1)
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_a_slow_successor_node_does_not_block_submit(tmp_path, marker_dir):
    """A successor's generator builds while the session routes, off the
    broker lock, so a submit meanwhile answers at once."""
    from repro.pipeline import PipelineNode, PipelineSpec

    pipeline = PipelineSpec(name="slow-successor", nodes=(
        PipelineNode("root", run=small_spec()),
        PipelineNode("slow", generator="test.serve_slow_analysis",
                     after=("root",)),
    ))
    _SLOW_NODE_STARTED.clear()
    broker = make_broker(tmp_path, jobs=1)
    broker.start()
    try:
        first = broker.submit(
            submit_body(pipeline, kind="pipeline"))["job"]["id"]
        assert _SLOW_NODE_STARTED.wait(30), "the slow node never built"
        t0 = time.monotonic()
        second = broker.submit(
            submit_body(small_spec(checksum_freq=3)))["job"]["id"]
        elapsed = time.monotonic() - t0
        assert elapsed < 0.5, f"submit blocked for {elapsed:.2f}s"
        assert [j.state for j in wait_terminal(broker, [first, second])] == [
            "done", "done"]
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_metrics_never_show_a_running_execution_without_its_slot(
    tmp_path, marker_dir,
):
    """The scheduler reaps outside the broker lock; metrics report the
    slots it saw when it last settled its executions, so no snapshot
    shows an execution running on fewer slots than it holds."""
    broker = make_broker(tmp_path, jobs=1)
    poll, snapshots = broker.session.poll, []

    def watched_poll():
        step = poll()
        with broker._lock:
            snapshots.append((
                broker.metrics()["engine"]["busy_slots"],
                len(broker.queue_snapshot()["running"]),
            ))
        return step

    broker.session.poll = watched_poll
    try:
        job_id = broker.submit(submit_body(small_spec()))["job"]["id"]
        deadline = time.monotonic() + 30
        while not broker.store.get(job_id).terminal:
            assert time.monotonic() < deadline, "run never finished"
            broker.session.wait(broker._scheduler_step(), 0.5)
        assert broker.store.get(job_id).state == "done"
        assert (1, 1) in snapshots
        assert all(busy >= running for busy, running in snapshots), (
            snapshots)
    finally:
        broker.shutdown(drain_timeout=0.0)


def test_shutdown_rejects_new_submits(tmp_path, marker_dir):
    broker = make_broker(tmp_path)
    broker.shutdown(drain_timeout=0.0)
    with pytest.raises(ProtocolError) as err:
        broker.submit(submit_body(small_spec()))
    assert err.value.code == "shutting_down"
    assert err.value.http_status == 503


# ----------------------------------------------------------------------
# Tune jobs
# ----------------------------------------------------------------------
def small_tune():
    from repro.tune import TuneSpec

    return TuneSpec(
        base=small_spec(variant="tampi_dataflow"),
        space={"variant": ("mpi_only", "tampi_dataflow")},
        name="serve-tune",
    )


def tune_body(tune, *, tenant="anon", priority=0.0):
    return {"v": 1, "kind": "tune", "spec": tune.to_dict(),
            "tenant": tenant, "priority": priority}


def test_parse_submit_tune_roundtrip():
    tune = small_tune()
    kind, payload, tenant, priority = parse_submit(tune_body(tune))
    assert kind == "tune"
    assert payload == tune
    # Tunes coalesce/memoize on their native fingerprint, exactly like
    # runs — identical to a local `miniamr-sim tune` declaration.
    assert submit_fingerprint(kind, payload) == tune.fingerprint()


def test_tune_submit_executes_and_memoizes(tmp_path, marker_dir):
    broker = make_broker(tmp_path)
    broker.start()
    try:
        tune = small_tune()
        first = broker.submit(tune_body(tune))
        assert first["mode"] == "new"
        wait_terminal(broker, [first["job"]["id"]])
        job = broker.store.get(first["job"]["id"])
        assert job.state == "done", job.error
        assert job.attempts >= 1
        report = broker.result(first["job"]["id"])["result"]
        assert report["name"] == "serve-tune"
        assert [e["rank"] for e in report["entries"]] == [1, 2]
        assert report["baseline"] is not None
        # An identical re-submit is served from the cache, no new work.
        again = broker.submit(tune_body(tune, tenant="other"))
        assert again["mode"] == "cached"
        assert again["job"]["state"] == "done"
        duplicate = broker.result(again["job"]["id"])["result"]
        assert json.dumps(duplicate, sort_keys=True) == json.dumps(
            report, sort_keys=True
        )
    finally:
        broker.shutdown(drain_timeout=5.0)


def test_tune_submit_rejects_invalid_spec(tmp_path, marker_dir):
    broker = make_broker(tmp_path)
    broker.start()
    try:
        body = tune_body(small_tune())
        body["spec"]["space"] = {}
        with pytest.raises(ProtocolError) as err:
            broker.submit(body)
        assert err.value.code == "invalid_spec"
    finally:
        broker.shutdown(drain_timeout=5.0)
