"""Tests of the performance ledger, on inputs small enough to run in seconds.

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import experiments
from repro.bench.inputs import four_spheres, weak_root_dims
from repro.exec import SweepEngine
from repro.verify.goldens import default_golden_specs

import compare
import harness
import probe
import run
import workloads

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_sim():
    spec = default_golden_specs(quick=True)["tampi_dataflow_small"]
    return workloads.Workload("tiny_sim", spec=spec)


def tiny_sweep():
    return workloads.Workload(
        "tiny_sweep", pipeline=workloads.fanout_pipeline(7, leaves=2),
        engine=SweepEngine(jobs=2), warm_replays=2,
    )


def expected_unit(name):
    """The unit a metric's name implies."""
    if name.endswith(("_s", ".s")):
        return "s"
    if "_us_" in name:
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_util", "_ratio", "_frac")):
        return "fraction"
    return "count"


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_declared_units_follow_metric_names(kind):
    for m in BENCH[kind]:
        assert m["unit"] == expected_unit(m["name"]), m


def test_probe_reads_a_slowdown_and_stops_its_helper():
    with probe.Probe() as read:
        assert 0.2 < read(os.sched_getaffinity(0)) < 10
        assert 0.2 < read({min(os.sched_getaffinity(0))}) < 10
    assert read._proc.returncode == 0


def test_measure_restores_cpu_affinity(tmp_path):
    before = os.sched_getaffinity(0)
    harness.measure(tiny_sim(), seconds=0.01, workdir=tmp_path)
    assert os.sched_getaffinity(0) == before


def test_end_to_end_metrics_are_emitted_nonzero(tmp_path):
    result = harness.measure(
        tiny_sim(), seconds=0.05, goldens=ROOT / "goldens",
        workdir=tmp_path,
    )
    assert result["correct"] and result["failed"] == 0, result["errors"]
    scaled, measured = run.measure_setup("fig4_mpi_4n", 0, tmp_path)
    assert len(scaled) == len(measured) == run.SETUP_RUNS
    result["metrics"]["setup_s"] = statistics.median(scaled)
    metrics = run.declared_metrics(result, BENCH["end_to_end"])
    assert list(metrics) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("make", [tiny_sim, tiny_sweep])
def test_per_layer_metrics_are_emitted(tmp_path, make):
    spans = tmp_path / "spans.json"
    result = harness.measure(
        make(), seconds=0.05, traced=True, workdir=tmp_path / "work",
        spans=spans,
    )
    assert result["correct"], result["errors"]
    metrics = run.declared_metrics(result, BENCH["per_layer"])
    assert {m["unit"] for m in metrics.values()} <= {
        "s", "us", "count", "bytes", "fraction",
    }
    values = {name: m["value"] for name, m in metrics.items()}
    assert values["tasking.tasks"] > 0
    assert values["tasking.deps_register_calls"] > 0
    assert values["simx.events"] > 0 and values["simx.run_s"] > 0
    assert values["gc.collections"] >= 1
    recorded = json.loads(spans.read_text())
    assert recorded and all(
        set(s) == {"name", "start", "end", "parent", "op"} for s in recorded
    )
    names = {s["name"] for s in recorded}
    assert {"op", "core.run_simulation", "simx.run", "gc"} <= names
    if make is tiny_sweep:
        runs = len(make().pipeline) - 1  # every node but the report
        assert values["exec.attempts"] == runs + 1
        assert values["exec.cache.puts"] == runs + 1
        assert values["exec.cache.hit_ratio"] == 2 / 3  # two warm replays
        assert 0 < values["exec.useful_ratio"] <= 1
        assert 0 < values["exec.slot_util"] <= 1
    else:
        assert values["exec.calls"] == 0 and values["exec.cache.gets"] == 0


def test_sweep_counts_repeat_exactly(tmp_path):
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]

    def traced(i):
        result = harness.measure(
            tiny_sweep(), seconds=0.05, traced=True, workdir=tmp_path / str(i),
        )
        assert result["correct"], result["errors"]
        return {name: result["metrics"][name] for name in counts}

    first = traced(0)
    assert first["builtins.calls"] > 0 and first["gc.collected"] > 0
    assert traced(1) == first


def test_failed_traced_ops_write_no_counts(tmp_path):
    result = harness.measure(
        tiny_sim(), seconds=0.05, traced=True, reference="0" * 64,
        workdir=tmp_path,
    )
    assert not result["correct"] and result["failed"] == result["attempted"]
    for name in ("tasking.tasks", "tasking.host_us_per_task",
                 "mpi.messages", "mpi.bytes"):
        assert name not in result["metrics"]


def test_corrupted_reference_fails_every_op(tmp_path):
    result = harness.measure(
        tiny_sim(), seconds=0.05, reference="0" * 64, workdir=tmp_path,
    )
    assert result["attempted"] >= 2
    assert result["failed"] / result["attempted"] == 1.0
    assert not result["correct"]
    assert run.exit_code([result]) != 0


def test_missing_reference_fails_the_gate(tmp_path):
    reference = tmp_path / "seed0.json"
    reference.write_text(json.dumps({"fig4_mpi_4n": "0" * 64}))
    assert harness.reference_digest("fig4_mpi_4n", 0, reference) == "0" * 64
    assert harness.reference_digest("fig4_tampi_4n", 3, reference) is None
    with pytest.raises(KeyError):
        harness.reference_digest("fig4_tampi_4n", 0, reference)


def test_committed_references_cover_every_workload():
    committed = json.loads(harness.REFERENCE.read_text())
    assert sorted(committed) == sorted(w["name"] for w in BENCH["workloads"])


def test_matching_reference_passes(tmp_path):
    first = harness.measure(tiny_sim(), seconds=0.01, workdir=tmp_path)
    again = harness.measure(
        tiny_sim(), seconds=0.01, reference=first["digest"], workdir=tmp_path,
    )
    assert again["correct"] and run.exit_code([first, again]) == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(name):
    same = workloads.build(name, 0).fingerprint()
    assert workloads.build(name, 0).fingerprint() == same
    assert workloads.build(name, 1).fingerprint() != same
    assert workloads.build(name, 2).fingerprint() not in (
        same, workloads.build(name, 1).fingerprint(),
    )


def test_seed_zero_is_the_paper_input():
    for name in ("fig4_tampi_4n", "fig4_mpi_4n", "weak_tampi_16n"):
        config = workloads.build(name, 0).spec.config
        assert config.objects == four_spheres(config.num_tsteps)
        assert workloads.build(name, 5).spec.config.objects != config.objects


def test_seed_zero_matches_the_weak_scaling_ladder():
    spec = workloads.build("weak_tampi_16n", 0).spec
    ladder = experiments._scaling_spec(
        "tampi_dataflow", 16, weak_root_dims((2, 2, 2), 4), 1, 1, "synthetic",
    )
    assert spec.fingerprint() == ladder.fingerprint()


def test_sweep_seeds_keep_the_variant_mix():
    def mix(seed):
        pipeline = workloads.build("sweep_fanout_j2", seed).pipeline
        leaves = [n.run for n in pipeline if n.name.startswith("leaf")]
        assert len({s.fingerprint() for s in leaves}) == len(leaves)
        assert len(leaves) == workloads.SWEEP_LEAVES
        return collections.Counter(s.variant for s in leaves)

    assert mix(0) == mix(1) == mix(2)


def test_failed_workload_still_prints_its_summary(monkeypatch, capsys):
    def fail(*args):
        raise RuntimeError("harness.py exited with 1")

    monkeypatch.setattr(run, "run_workload", fail)
    assert run.main(["--workload", "fig4_mpi_4n"]) == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] is False
    assert summary["attempted"] == summary["failed"] == 1


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "fig4_mpi_4n", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
STEADY = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.01]


def test_verdict_improved_needs_ten_pairs_and_nine_wins():
    faster = [x * 0.8 for x in STEADY]
    assert compare.verdict(STEADY, faster, "lower", 0.1) == "improved"
    assert compare.verdict(STEADY[:5], faster[:5], "lower", 0.1) == "no change"
    mixed = faster[:8] + STEADY[8:]  # 8 wins and 2 ties of 10 pairs
    assert compare.verdict(STEADY, mixed, "lower", 0.1) == "no change"
    higher = [x * 1.25 for x in STEADY]
    assert compare.verdict(STEADY, higher, "higher", 0.1) == "improved"


def test_verdict_regression_and_no_change_against_the_bound():
    assert compare.verdict(
        STEADY, [x * 1.2 for x in STEADY], "lower", 0.1) == "regression"
    assert compare.verdict(
        STEADY, [x * 1.05 for x in STEADY], "lower", 0.1) == "no change"
    assert compare.verdict([1.0], [1.05], "lower", 0.1) == "no change"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 0.7, 1.3]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert compare.verdict(
        noisy, [x * 1.3 for x in noisy], "lower", 0.1) == "unresolved"
    # Every run of B better than every run of A resolves a wide spread.
    assert compare.verdict(
        noisy, [x * 0.5 for x in noisy], "lower", 0.1) != "unresolved"


def test_verdict_counts_must_match_exactly():
    assert compare.verdict([5, 5], [5, 5], "lower", exact=True) == "no change"
    assert compare.verdict([5, 5], [4, 4], "lower", exact=True) == "improved"
    assert compare.verdict([5, 5], [6, 6], "lower", exact=True) == "regression"
    assert compare.verdict([5, 6], [5, 5], "lower", exact=True) == "unresolved"


def test_verdict_per_layer_without_bound():
    assert compare.verdict(STEADY[:3], STEADY[:3], "lower") == "unresolved"
    assert compare.verdict(STEADY, STEADY, "lower") == "no change"
    slower = [x * 1.3 for x in STEADY]
    assert compare.verdict(STEADY, slower, "lower") == "regression"


def test_compare_reads_result_files(tmp_path):
    def record(seed, trace, value):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                   for m in BENCH["per_layer" if trace else "end_to_end"]}
        return {"seed": seed, "trace": trace,
                "workloads": {"fig4_mpi_4n": {"metrics": metrics}}}

    for path, value in (("a.json", 1.0), ("b.json", 2.0)):
        for seed in range(2):
            run.append_run(tmp_path / path, record(seed, 0, value))
    rows = compare.compare(
        compare.load_runs(str(tmp_path / "a.json")),
        compare.load_runs(str(tmp_path / "b.json#1")), BENCH,
    )
    assert {r[1] for r in rows} == {m["name"] for m in BENCH["end_to_end"]}
    assert all(r[-1] == "regression" for r in rows)
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "a.json#0")]) == 0
