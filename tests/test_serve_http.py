"""End-to-end HTTP acceptance tests for ``repro.serve``.

Covers the PR's acceptance scenario: concurrent clients sharing one
execution with byte-identical results, quota backpressure as real 429 +
Retry-After responses, cancellation, metrics schema, SSE streaming, the
CLI client subcommands, restart-mid-queue journal recovery, and
fingerprint neutrality of the serving layer.
"""

import json
import os
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro import AmrConfig, RunSpec, run_simulation, sphere
from repro.cli import main
from repro.exec import ResultCache, SweepEngine, run_spec_dict
from repro.serve import Broker, JobStore, ServeClient, ServeError, ServeServer


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


def _marking_runner(spec_dict):
    result = run_spec_dict(spec_dict)
    fp = RunSpec.from_dict(spec_dict).fingerprint()
    marker_dir = Path(os.environ["REPRO_EXEC_TEST_DIR"])
    (marker_dir / f"exec-{fp}-{os.getpid()}-{time.monotonic_ns()}").touch()
    return result


def _holding_runner(spec_dict):
    hold = Path(os.environ["REPRO_EXEC_TEST_DIR"]) / "HOLD"
    while hold.exists():
        time.sleep(0.02)
    return _marking_runner(spec_dict)


def executions(marker_dir, fingerprint) -> int:
    return len(list(Path(marker_dir).glob(f"exec-{fingerprint}-*")))


class LiveServer:
    """A broker + ServeServer on an ephemeral port, torn down cleanly."""

    def __init__(self, tmp_path, *, runner=_marking_runner, jobs=2,
                 telemetry=None, **broker_kwargs):
        self.engine = SweepEngine(
            jobs=jobs, cache=ResultCache(tmp_path / "cache"),
            runner=runner, drain_timeout=5.0, telemetry=telemetry,
        )
        broker_kwargs.setdefault("quota_rate", 1000.0)
        broker_kwargs.setdefault("quota_burst", 1000)
        self.broker = Broker(
            engine=self.engine, store=JobStore(tmp_path / "serve"),
            **broker_kwargs,
        )
        self.server = ServeServer(("127.0.0.1", 0), self.broker)
        self.url = "http://127.0.0.1:%d" % self.server.server_address[1]
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True,
        )
        self._thread.start()
        self.broker.start()

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(self.url, **kwargs)

    def stop(self, *, drain_timeout=5.0):
        self.server.shutdown()
        self.server.server_close()
        self.broker.shutdown(drain_timeout=drain_timeout)
        self._thread.join(timeout=5)

    def crash(self):
        """Tear down with no drain and no journal cleanup."""
        self.server.shutdown()
        self.server.server_close()
        self.broker._stop_scheduler()
        self.broker.session.close()
        self.broker.store.close()
        self._thread.join(timeout=5)


@pytest.fixture
def marker_dir(tmp_path, monkeypatch):
    d = tmp_path / "markers"
    d.mkdir()
    monkeypatch.setenv("REPRO_EXEC_TEST_DIR", str(d))
    return d


# ----------------------------------------------------------------------
# The acceptance scenario
# ----------------------------------------------------------------------
def test_concurrent_clients_share_one_execution(tmp_path, marker_dir):
    live = LiveServer(tmp_path)
    try:
        spec = small_spec()
        responses, errors = [], []

        def one_client(tenant):
            try:
                client = live.client()
                body = client.submit(spec.to_dict(), tenant=tenant)
                view = client.wait(body["job"]["id"], timeout=60)
                assert view["state"] == "done"
                result = client.result(body["job"]["id"])["result"]
                responses.append((body["mode"], result))
            except Exception as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(f"tenant{i}",))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(responses) == 3
        # Exactly one execution happened, whichever client won the race.
        assert executions(marker_dir, spec.fingerprint()) == 1
        assert sum(1 for mode, _ in responses if mode == "new") == 1
        # All three clients read byte-identical RunResult JSON.
        blobs = {
            json.dumps(result, sort_keys=True) for _, result in responses
        }
        assert len(blobs) == 1
    finally:
        live.stop()


def test_over_quota_tenant_gets_429_with_retry_after(
    tmp_path, marker_dir,
):
    live = LiveServer(tmp_path, quota_rate=0.001, quota_burst=2)
    try:
        client = live.client()
        for i in range(2):
            client.submit(
                small_spec(checksum_freq=2 + i).to_dict(),
                tenant="greedy",
            )
        with pytest.raises(ServeError) as err:
            client.submit(
                small_spec(checksum_freq=9).to_dict(), tenant="greedy",
            )
        assert err.value.code == "quota_exceeded"
        assert err.value.http_status == 429
        assert err.value.retry_after >= 1
        assert err.value.exit_code == 1
        # An under-quota tenant is unaffected.
        ok = client.submit(
            small_spec(checksum_freq=9).to_dict(), tenant="patient",
        )
        assert ok["mode"] == "new"
    finally:
        live.stop()


def test_cancel_over_http(tmp_path, marker_dir):
    (marker_dir / "HOLD").touch()
    live = LiveServer(tmp_path, runner=_holding_runner, jobs=1)
    try:
        client = live.client()
        blocker = client.submit(small_spec(checksum_freq=2).to_dict())
        queued = client.submit(small_spec(checksum_freq=3).to_dict())
        view = client.cancel(queued["job"]["id"])["job"]
        assert view["state"] == "canceled"
        with pytest.raises(ServeError) as err:
            client.result(queued["job"]["id"])
        assert err.value.code == "conflict"
        (marker_dir / "HOLD").unlink()
        done = client.wait(blocker["job"]["id"], timeout=60)
        assert done["state"] == "done"
    finally:
        live.stop()


def test_metrics_and_queue_schema_over_http(tmp_path, marker_dir):
    live = LiveServer(tmp_path)
    try:
        client = live.client()
        body = client.submit(small_spec().to_dict(), tenant="alice")
        client.wait(body["job"]["id"], timeout=60)
        metrics = client.metrics()
        assert metrics["v"] == 1
        assert set(metrics) >= {
            "uptime", "jobs", "executions", "cache", "queue", "engine",
        }
        assert metrics["jobs"]["by_state"]["done"] == 1
        assert metrics["jobs"]["by_tenant"]["alice"]["submitted"] == 1
        assert set(metrics["executions"]) == {
            "started", "completed", "coalesced_attaches",
            "cache_fast_hits",
        }
        assert set(metrics["queue"]) == {
            "depth", "cap", "wait_histogram_ms",
        }
        assert 0.0 <= metrics["engine"]["utilization"] <= 1.0
        queue_view = client.queue()
        assert set(queue_view) >= {"queued", "running", "depth", "cap"}
        # Unknown jobs 404 with the typed not_found code.
        with pytest.raises(ServeError) as err:
            client.job("jdoesnotexist")
        assert err.value.code == "not_found"
        assert err.value.http_status == 404
    finally:
        live.stop()


def test_sse_event_stream(tmp_path, marker_dir):
    live = LiveServer(tmp_path)
    try:
        client = live.client()
        events = []
        seen_terminal = threading.Event()

        def listen():
            for event in client.events(timeout=30):
                events.append(event)
                if event["event"] in ("done", "failed"):
                    seen_terminal.set()
                    return

        listener = threading.Thread(target=listen, daemon=True)
        listener.start()
        time.sleep(0.2)  # let the subscription register
        body = client.submit(small_spec().to_dict(), tenant="alice")
        client.wait(body["job"]["id"], timeout=60)
        assert seen_terminal.wait(timeout=30)
        kinds = [e["event"] for e in events]
        assert "submitted" in kinds
        assert "done" in kinds
        submitted = next(e for e in events if e["event"] == "submitted")
        assert submitted["mode"] == "new"
        assert submitted["job"]["tenant"] == "alice"
    finally:
        live.stop()


def test_restart_mid_queue_recovers_without_duplicates(
    tmp_path, marker_dir,
):
    (marker_dir / "HOLD").touch()
    live = LiveServer(tmp_path, runner=_holding_runner, jobs=1)
    client = live.client()
    spec_a, spec_b = small_spec(), small_spec(variant="fork_join")
    ids = [
        client.submit(spec_a.to_dict(), tenant="a")["job"]["id"],
        client.submit(spec_b.to_dict(), tenant="b")["job"]["id"],
        client.submit(spec_a.to_dict(), tenant="c")["job"]["id"],
    ]
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if client.job(ids[0])["job"]["state"] == "running":
            break
        time.sleep(0.05)
    live.crash()

    (marker_dir / "HOLD").unlink()
    live2 = LiveServer(tmp_path)
    try:
        client2 = live2.client()
        for job_id in ids:
            view = client2.wait(job_id, timeout=60)
            assert view["state"] == "done"
        # The killed first attempt never completed; after recovery each
        # unique fingerprint executed exactly once.
        assert executions(marker_dir, spec_a.fingerprint()) == 1
        assert executions(marker_dir, spec_b.fingerprint()) == 1
        r1 = client2.result(ids[0])["result"]
        r3 = client2.result(ids[2])["result"]
        assert json.dumps(r1, sort_keys=True) == json.dumps(
            r3, sort_keys=True
        )
    finally:
        live2.stop()


# ----------------------------------------------------------------------
# Fingerprint neutrality (acceptance: serving must not move results)
# ----------------------------------------------------------------------
def test_serving_layer_is_fingerprint_neutral(tmp_path, marker_dir):
    spec = small_spec()
    # Reference: the same spec executed entirely outside the service.
    local = run_simulation(spec).to_dict()

    live = LiveServer(tmp_path)
    try:
        client = live.client()
        body = client.submit(spec.to_dict(), tenant="alice", priority=3.0)
        client.wait(body["job"]["id"], timeout=60)
        served = client.result(body["job"]["id"])["result"]
        # Byte-identical result JSON: tenant, priority, job ids, and the
        # transport leave the simulation untouched.
        assert json.dumps(served, sort_keys=True) == json.dumps(
            local, sort_keys=True
        )
        # The service keyed the shared cache with the spec's own
        # fingerprint — a later CLI run would hit this exact entry.
        assert body["job"]["fingerprint"] == spec.fingerprint()
        cached = live.engine.cache.get(spec.fingerprint())
        assert cached is not None
        assert json.dumps(cached.to_dict(), sort_keys=True) == json.dumps(
            local, sort_keys=True
        )
    finally:
        live.stop()


def test_submit_spec_dict_unchanged_by_transport(tmp_path, marker_dir):
    # RunSpec.to_dict round-trips through JSON + server parse untouched.
    spec = small_spec()
    wire = json.loads(json.dumps(spec.to_dict()))
    assert RunSpec.from_dict(wire) == spec
    assert RunSpec.from_dict(wire).fingerprint() == spec.fingerprint()


# ----------------------------------------------------------------------
# CLI client subcommands + telemetry endpoint
# ----------------------------------------------------------------------
def test_cli_submit_status_result_cancel(
    tmp_path, marker_dir, capsys,
):
    live = LiveServer(tmp_path)
    try:
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(small_spec().to_dict()))
        rc = main([
            "submit", "--server", live.url, "--file", str(spec_file),
            "--tenant", "alice", "--wait",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode: new" in out
        job_id = out.split()[1].rstrip(":")

        # status with a job id prints the job view JSON
        assert main(["status", job_id, "--server", live.url]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["state"] == "done"
        # status without a job id prints the queue + metrics overview
        assert main(["status", "--server", live.url]) == 0
        overview = json.loads(capsys.readouterr().out)
        assert overview["metrics"]["jobs"]["total"] == 1

        assert main(["result", job_id, "--server", live.url]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["total_time"] > 0

        # A duplicate CLI submit is served from cache, zero executions.
        rc = main([
            "submit", "--server", live.url, "--file", str(spec_file),
            "--tenant", "bob",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode: cached" in out

        # cancel of a terminal job maps the conflict to exit 1.
        assert main(["cancel", job_id, "--server", live.url]) == 1
        capsys.readouterr()
        # unknown job id -> not_found -> exit 2.
        assert main(["result", "jnope", "--server", live.url]) == 2
        capsys.readouterr()
    finally:
        live.stop()


def test_cli_submit_run_style_args(tmp_path, marker_dir, capsys):
    live = LiveServer(tmp_path)
    try:
        rc = main([
            "submit", "--server", live.url, "--variant", "mpi_only",
            "--preset", "laptop", "--ranks-per-node", "2",
            "--root", "1", "2", "2", "--nx", "4", "--num-vars", "2",
            "--tsteps", "1", "--stages", "2", "--checksum-freq", "2",
            "--max-refine-level", "1", "--wait",
        ])
        assert rc == 0
        assert "job " in capsys.readouterr().out
        # Exactly one spec source is enforced (exit 2 on ambiguity).
        rc = main([
            "submit", "--server", live.url, "--variant", "mpi_only",
            "--file", str(tmp_path / "nope.json"),
        ])
        assert rc == 2
    finally:
        live.stop()


def test_telemetry_endpoint_feeds_top(tmp_path, marker_dir, capsys):
    from repro.obs.live import read_stream
    from repro.obs.telemetry import TelemetryBus

    stream = tmp_path / "serve.jsonl"
    live = LiveServer(tmp_path, telemetry=TelemetryBus(stream))
    try:
        client = live.client()
        body = client.submit(small_spec().to_dict(), tenant="alice")
        client.wait(body["job"]["id"], timeout=60)
        # The raw endpoint serves the JSONL file itself.
        with urllib.request.urlopen(
            f"{live.url}/v1/telemetry", timeout=10
        ) as response:
            raw = response.read().decode("utf-8")
        assert any(
            json.loads(line)["type"] == "serve_submit"
            for line in raw.splitlines() if line
        )
        # read_stream accepts the server URL directly (top --follow URL).
        report = read_stream(live.url)
        assert any(
            r["type"] == "job_done" for r in report.records
        )
    finally:
        live.stop(drain_timeout=5.0)
    # After shutdown the stream carries the terminal serve_stop record.
    lines = [json.loads(l) for l in stream.read_text().splitlines()]
    assert any(r["type"] == "serve_stop" for r in lines)
    from repro.obs.telemetry import validate_file

    assert validate_file(stream) == len(lines)
