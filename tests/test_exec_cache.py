"""ResultCache: hit/miss semantics, corruption handling, atomicity."""

import json
from dataclasses import replace

import pytest

from repro import AmrConfig, RunSpec, run_simulation, sphere
from repro.exec import ResultCache


@pytest.fixture(scope="module")
def spec():
    cfg = AmrConfig(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2, num_tsteps=1, stages_per_ts=2,
        refine_freq=1, checksum_freq=2, max_refine_level=1,
        payload="synthetic",
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25),),
    )
    return RunSpec(config=cfg, machine="laptop", variant="tampi_dataflow",
                   ranks_per_node=2)


@pytest.fixture(scope="module")
def result(spec):
    return run_simulation(spec)


def test_miss_on_empty_cache(tmp_path, spec):
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(spec.fingerprint()) is None
    assert len(cache) == 0


def test_put_then_hit(tmp_path, spec, result):
    cache = ResultCache(tmp_path / "cache")
    fp = spec.fingerprint()
    cache.put(fp, spec, result.to_dict())
    assert fp in cache
    assert len(cache) == 1
    assert cache.get(fp) == result


def test_entry_is_sharded_and_self_describing(tmp_path, spec, result):
    cache = ResultCache(tmp_path / "cache")
    fp = spec.fingerprint()
    cache.put(fp, spec, result.to_dict())
    path = cache.path(fp)
    assert path.parent.name == fp[:2]
    envelope = json.loads(path.read_text())
    assert envelope["fingerprint"] == fp
    assert RunSpec.from_dict(envelope["spec"]) == spec


def test_corrupt_entry_is_a_miss_and_removed(tmp_path, spec, result):
    cache = ResultCache(tmp_path / "cache")
    fp = spec.fingerprint()
    cache.put(fp, spec, result.to_dict())
    cache.path(fp).write_text("{ not json !!!")
    assert cache.get(fp) is None
    assert not cache.path(fp).exists()


def test_non_dict_envelope_is_a_miss_and_removed(tmp_path, spec, result):
    """A JSON file whose top level is not an object (a list here) must be
    treated as a corrupt entry, not crash with AttributeError."""
    cache = ResultCache(tmp_path / "cache")
    fp = spec.fingerprint()
    cache.put(fp, spec, result.to_dict())
    cache.path(fp).write_text(json.dumps([1, 2, 3]))
    assert cache.get(fp) is None
    assert not cache.path(fp).exists()


def test_corrupt_entry_logs_a_warning(tmp_path, spec, result, caplog):
    import logging

    cache = ResultCache(tmp_path / "cache")
    fp = spec.fingerprint()
    cache.put(fp, spec, result.to_dict())
    cache.path(fp).write_text("{ not json !!!")
    with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
        assert cache.get(fp) is None
    assert any("corrupt cache entry" in r.message for r in caplog.records)


def test_truncated_entry_is_a_miss(tmp_path, spec, result):
    cache = ResultCache(tmp_path / "cache")
    fp = spec.fingerprint()
    cache.put(fp, spec, result.to_dict())
    blob = cache.path(fp).read_text()
    cache.path(fp).write_text(blob[: len(blob) // 2])
    assert cache.get(fp) is None


def test_fingerprint_mismatch_is_a_miss(tmp_path, spec, result):
    cache = ResultCache(tmp_path / "cache")
    fp = spec.fingerprint()
    cache.put(fp, spec, result.to_dict())
    envelope = json.loads(cache.path(fp).read_text())
    envelope["fingerprint"] = "0" * 64
    cache.path(fp).write_text(json.dumps(envelope))
    assert cache.get(fp) is None


def test_traced_entry_without_its_trace_is_a_miss(tmp_path, spec, result):
    # Entries written before traces serialized hold a trace-less result
    # under the traced fingerprint; serving one would drop the trace.
    traced = replace(spec, trace=True)
    cache = ResultCache(tmp_path / "cache")
    fp = traced.fingerprint()
    cache.put(fp, traced, result.to_dict())
    assert cache.get(fp) is None
    assert fp not in cache


def test_no_temp_files_left_behind(tmp_path, spec, result):
    cache = ResultCache(tmp_path / "cache")
    cache.put(spec.fingerprint(), spec, result.to_dict())
    leftovers = [
        p for p in (tmp_path / "cache").rglob("*")
        if p.is_file() and not p.name.endswith(".json")
    ]
    assert leftovers == []


def test_clear(tmp_path, spec, result):
    cache = ResultCache(tmp_path / "cache")
    cache.put(spec.fingerprint(), spec, result.to_dict())
    cache.clear()
    assert len(cache) == 0
    assert cache.get(spec.fingerprint()) is None


def test_version_bump_changes_fingerprint_and_misses(
    monkeypatch, tmp_path, spec, result
):
    """A package upgrade must invalidate cached results: the fingerprint
    embeds ``repro.__version__``, so the same spec misses after a bump."""
    import repro

    cache = ResultCache(tmp_path / "cache")
    old_fp = spec.fingerprint()
    cache.put(old_fp, spec, result.to_dict())
    assert cache.get(old_fp) == result

    monkeypatch.setattr(repro, "__version__", "999.0.0")
    new_fp = spec.fingerprint()
    assert new_fp != old_fp
    assert cache.get(new_fp) is None  # stale entry is not served
    assert cache.get(old_fp) == result  # ...but remains addressable


def test_sweep_engine_parallel_matches_serial_on_fuzz_seeds(spec):
    """A fuzz-seed sweep is the worst case for worker-process isolation
    (every run perturbs the schedule); jobs=1 and jobs>1 must agree."""
    from repro.exec import SweepEngine
    from repro.pipeline import JobGraph
    from repro.verify import fuzz_specs, invariants

    specs = [spec] + fuzz_specs(spec, range(3))
    serial = SweepEngine(jobs=1).run(JobGraph.from_specs(specs, name="fuzz"))
    parallel = SweepEngine(jobs=2).run(JobGraph.from_specs(specs, name="fuzz"))
    assert not serial.failed and not parallel.failed
    for a, b in zip(serial.outcomes, parallel.outcomes):
        assert a.fingerprint == b.fingerprint
        assert a.result.total_time == b.result.total_time
        assert invariants(a.result) == invariants(b.result)


# ----------------------------------------------------------------------
# Concurrent multi-process hardening (readers race writers on one root)
# ----------------------------------------------------------------------
def test_abandoned_partial_write_is_invisible(tmp_path, spec, result):
    """A writer that died between mkstemp and replace leaves a
    ``.tmp-*.part`` file; it must not count as an entry, must read as a
    miss, and ``clear()`` must sweep it."""
    cache = ResultCache(tmp_path / "cache")
    fp = spec.fingerprint()
    cache.put(fp, spec, result.to_dict())
    shard = cache.path(fp).parent
    orphan = shard / ".tmp-deadbeef.part"
    orphan.write_text('{"half": "written')

    assert len(cache) == 1  # the orphan is not an entry
    assert cache.get(fp) == result  # ...and does not shadow real reads
    cache.clear()
    assert not orphan.exists()
    assert len(cache) == 0


def test_publish_is_atomic_under_concurrent_readers(tmp_path, spec, result):
    """Hammer get() from threads while put() republishes the same entry:
    every read must be either a full hit or a clean miss, never a
    torn/partial decode (which would log + delete the good entry)."""
    import threading

    cache = ResultCache(tmp_path / "cache")
    fp = spec.fingerprint()
    stop = threading.Event()
    bad = []

    def reader():
        local = ResultCache(tmp_path / "cache")
        while not stop.is_set():
            got = local.get(fp)
            if got is not None and got != result:
                bad.append(got)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        for _ in range(50):
            cache.put(fp, spec, result.to_dict())
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert bad == []
    assert cache.get(fp) == result


def test_corrupt_unlink_is_inode_guarded(tmp_path, spec, result):
    """If another process republishes a good entry between our corrupt
    read and our unlink, the new file must survive."""
    import os

    cache = ResultCache(tmp_path / "cache")
    fp = spec.fingerprint()
    cache.put(fp, spec, result.to_dict())
    path = cache.path(fp)

    real_stat = os.stat

    def racing_stat(p, *a, **k):
        # Simulate the race: by the time the reader stats the path for
        # its unlink guard, a concurrent writer has already replaced the
        # corrupt file with a fresh (different-inode) good entry.
        st = real_stat(p, *a, **k)
        if str(p) == str(path):
            cache.put(fp, spec, result.to_dict())
            return real_stat(p, *a, **k)
        return st

    path.write_text("{ torn")
    inode_before = real_stat(path).st_ino
    import unittest.mock

    with unittest.mock.patch("repro.exec.cache.os.stat", racing_stat):
        assert cache.get(fp) is None  # the torn read is a miss...
    assert path.exists()  # ...but the republished entry survives
    assert real_stat(path).st_ino != inode_before
    assert cache.get(fp) == result
