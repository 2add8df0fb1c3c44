"""Run-duration statistics: signature normalization, store resilience."""

import dataclasses
import json

from repro import AmrConfig, RunSpec, marenostrum4, sphere
from repro.exec import (
    ResultCache,
    RunStatsStore,
    SweepEngine,
    fallback_cost,
    spec_signature,
)
from repro.faults import FaultPlan, noise_plan


def small_config(**overrides):
    kwargs = dict(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2, num_tsteps=1, stages_per_ts=2,
        refine_freq=1, checksum_freq=2, max_refine_level=1,
        payload="synthetic",
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25),),
    )
    kwargs.update(overrides)
    return AmrConfig(**kwargs)


def base_spec(**overrides):
    kwargs = dict(
        config=small_config(), machine="laptop", variant="tampi_dataflow",
        num_nodes=1, ranks_per_node=2,
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


# ----------------------------------------------------------------------
# Signature normalization (what shares one duration history)
# ----------------------------------------------------------------------
def test_observational_fields_share_one_signature():
    sig = spec_signature(base_spec())
    assert spec_signature(base_spec(profile=True)) == sig
    assert spec_signature(base_spec(trace=True)) == sig
    assert spec_signature(base_spec(profile=True, trace=True)) == sig


def test_pdes_worker_counts_keep_distinct_histories():
    """Regression: ``pdes_workers`` divides host wall time, so a serial
    run and a 4-worker run must NOT share one EWMA entry (they used to,
    polluting both predictions and skewing critical-path ordering)."""
    serial = spec_signature(base_spec())
    assert spec_signature(base_spec(pdes_workers=4)) != serial
    assert spec_signature(base_spec(pdes_workers=2)) != spec_signature(
        base_spec(pdes_workers=4)
    )
    # The partition *policy* is still observational: with the worker
    # count fixed it only shifts window-barrier slack.
    assert spec_signature(
        base_spec(pdes_workers=2, pdes_partition="contiguous")
    ) == spec_signature(base_spec(pdes_workers=2))
    # Observational knobs still fold into the partitioned key.
    assert spec_signature(
        base_spec(pdes_workers=8, profile=True)
    ) == spec_signature(base_spec(pdes_workers=8))


def test_pdes_worker_histories_accumulate_separately(tmp_path):
    """The satellite claim end-to-end: recording a partitioned duration
    must leave the serial prediction untouched, and vice-versa."""
    store = RunStatsStore(tmp_path / "stats.json")
    serial_sig = spec_signature(base_spec())
    pdes_sig = spec_signature(base_spec(pdes_workers=4))
    store.record(serial_sig, 8.0)
    store.record(pdes_sig, 2.0)
    assert store.predict(serial_sig) == 8.0
    assert store.predict(pdes_sig) == 2.0
    entry = store.get(serial_sig)
    assert entry["runs"] == 1 and entry["last"] == 8.0


def test_signature_version_orphans_v1_entries():
    """Moving ``pdes_workers`` into the signature bumped the version, so
    every pre-migration key (which blended serial and partitioned
    durations) is unreachable — the graceful-invalidation contract."""
    import hashlib
    import json

    from repro.exec.stats import OBSERVATIONAL_FIELDS, SIGNATURE_VERSION

    assert SIGNATURE_VERSION >= 2
    spec = base_spec()
    d = spec.resolve().to_dict()
    for field in OBSERVATIONAL_FIELDS:
        d.pop(field, None)
    v1_blob = json.dumps(
        {"sig": 1, "spec": d},
        sort_keys=True, separators=(",", ":"), allow_nan=False,
    )
    v1_key = hashlib.sha256(v1_blob.encode("utf-8")).hexdigest()
    assert spec_signature(spec) != v1_key


def test_every_spec_field_is_classified():
    """Each ``RunSpec`` field must be declared semantic or observational
    — exactly one of the two.  This is the test that would have caught
    ``profile`` leaking into signatures (and now ``pdes_workers``): a
    new field fails here until its signature role is decided."""
    from repro.exec.stats import OBSERVATIONAL_FIELDS, SEMANTIC_FIELDS

    spec_fields = {f.name for f in dataclasses.fields(RunSpec)}
    classified = set(SEMANTIC_FIELDS) | set(OBSERVATIONAL_FIELDS)
    assert set(SEMANTIC_FIELDS).isdisjoint(OBSERVATIONAL_FIELDS), (
        "a field cannot be both semantic and observational"
    )
    assert classified == spec_fields, (
        f"unclassified spec fields: {sorted(spec_fields - classified)}; "
        f"stale classifications: {sorted(classified - spec_fields)}"
    )
    # And the classification is real: every semantic field perturbs the
    # signature via at least one canonical example.
    sig = spec_signature(base_spec())
    assert spec_signature(base_spec(variant="fork_join")) != sig
    assert spec_signature(base_spec(scheduler="fifo")) != sig


def test_inactive_fault_plan_shares_the_clean_signature():
    clean = spec_signature(base_spec())
    idle = spec_signature(base_spec(faults=FaultPlan()))
    assert idle == clean
    active = spec_signature(base_spec(faults=noise_plan(1.0)))
    assert active != clean


def test_preset_and_expanded_machine_share_one_signature():
    assert (
        spec_signature(base_spec(machine="marenostrum4"))
        == spec_signature(base_spec(machine=marenostrum4()))
    )


def test_signature_sensitive_to_what_actually_runs():
    sig = spec_signature(base_spec())
    assert spec_signature(base_spec(variant="fork_join")) != sig
    assert spec_signature(
        base_spec(config=small_config(num_tsteps=2))
    ) != sig
    assert spec_signature(base_spec(num_nodes=2)) != sig


def test_signature_has_no_package_version():
    """History must survive version bumps (unlike cache fingerprints)."""
    from repro import __version__

    spec = base_spec()
    assert spec_signature(spec) == spec_signature(spec)
    # The fingerprint *does* mix the version in, so they must differ.
    assert spec_signature(spec) != spec.fingerprint()


# ----------------------------------------------------------------------
# Fallback cost model
# ----------------------------------------------------------------------
def test_fallback_cost_is_positive_and_scales_with_work():
    small = fallback_cost(base_spec())
    assert small > 0
    bigger = fallback_cost(base_spec(config=small_config(num_tsteps=4)))
    assert bigger > small
    deeper = fallback_cost(
        base_spec(config=small_config(max_refine_level=2))
    )
    assert deeper > small


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
def test_store_round_trips_through_disk(tmp_path):
    path = tmp_path / "stats.json"
    store = RunStatsStore(path)
    store.record("sig-a", 1.0)
    store.record("sig-a", 3.0)
    store.flush()
    again = RunStatsStore(path)
    entry = again.get("sig-a")
    assert entry["runs"] == 2
    assert entry["mean"] == 2.0
    assert again.predict("sig-a") == 2.0  # EWMA alpha=0.5: 0.5*3 + 0.5*1


def test_corrupt_stats_file_is_a_cold_start(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text("{not json at all")
    store = RunStatsStore(path)
    assert len(store) == 0
    assert store.predict("anything") is None
    store.record("sig", 0.5)
    store.flush()
    # The corrupt file was replaced by a valid one.
    doc = json.loads(path.read_text())
    assert doc["version"] == 1 and "sig" in doc["entries"]


def test_wrong_shape_stats_file_is_a_cold_start(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(["not", "a", "dict"]))
    assert len(RunStatsStore(path)) == 0


def test_cached_hits_update_history_from_envelope_times(tmp_path):
    store = RunStatsStore(tmp_path / "stats.json")
    store.record("sig", 2.0, cached=True)
    entry = store.get("sig")
    assert entry["cached"] == 1 and entry["runs"] == 1
    # Old envelopes without wall_time only bump the hit counter.
    store.record("sig", None, cached=True)
    entry = store.get("sig")
    assert entry["cached"] == 2 and entry["runs"] == 1


def test_missing_file_is_empty_not_an_error(tmp_path):
    store = RunStatsStore(tmp_path / "nope" / "stats.json")
    assert len(store) == 0
    store.record("s", 1.0)
    store.flush()  # creates the parent directory
    assert (tmp_path / "nope" / "stats.json").exists()


# ----------------------------------------------------------------------
# Engine integration: every completed run feeds the store
# ----------------------------------------------------------------------
def test_engine_records_executions_and_cache_hits(tmp_path):
    spec = base_spec()
    sig = spec_signature(spec)
    cache = ResultCache(tmp_path / "cache")
    stats = RunStatsStore(tmp_path / "stats.json")
    SweepEngine(jobs=1, cache=cache, stats=stats).run([spec])
    entry = RunStatsStore(tmp_path / "stats.json").get(sig)
    assert entry is not None and entry["runs"] == 1

    # A warm re-run is 100% cached yet still feeds the history (from the
    # execution time stored in the cache envelope).
    stats2 = RunStatsStore(tmp_path / "stats.json")
    report = SweepEngine(jobs=1, cache=cache, stats=stats2).run([spec])
    assert report.cached == 1
    entry = RunStatsStore(tmp_path / "stats.json").get(sig)
    assert entry["cached"] == 1 and entry["runs"] == 2


def test_profiled_run_feeds_the_plain_spec_history(tmp_path):
    """The satellite claim end-to-end: profile=True shares the key."""
    stats = RunStatsStore(tmp_path / "stats.json")
    SweepEngine(jobs=1, stats=stats).run([base_spec(profile=True)])
    entry = stats.get(spec_signature(base_spec()))
    assert entry is not None and entry["runs"] == 1


def test_predict_costs_prefers_history_over_fallback(tmp_path):
    from repro.pipeline import JobGraph

    spec = base_spec()
    other = base_spec(variant="fork_join")
    stats = RunStatsStore(tmp_path / "stats.json")
    stats.record(spec_signature(spec), 2.5)
    engine = SweepEngine(jobs=1, stats=stats)
    graph = JobGraph.from_specs([spec, other])
    costs = engine.predict_costs(graph)
    assert costs[0] == 2.5
    # The cold node gets a fallback estimate rescaled to measured
    # history, inflated by the conservatism factor — never zero.
    assert costs[1] > 0
