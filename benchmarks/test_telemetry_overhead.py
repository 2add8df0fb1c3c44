"""Benchmark: runtime overhead of the engine telemetry bus.

Telemetry must be cheap enough to leave on for entire campaigns: the
budget is **< 5% of engine run time** on the quick config, enforced when
``REPRO_PERF_ENFORCE=1`` (the CI ``telemetry`` job) and recorded
otherwise.  The measured path is a ``jobs=1`` sweep, where every
emission site — job lifecycle, ``run_start``/``run_end`` spans
queued from the worker, stats-store reconciliation — fires once per
run with no parallelism to hide behind.  (The PDES per-window emitters
guard on the same ``bus is None`` test and write through the same
``O_APPEND`` descriptor, so their per-record cost is the one measured
here.)

The methodology is :func:`conftest.paired_overhead`; the result is
written to ``benchmarks/results/BENCH_telemetry_overhead.json``.
"""

from conftest import (
    ENFORCE, QUICK, bench_once, metric, overhead_metrics, paired_overhead,
    write_bench,
)

from repro import AmrConfig, RunSpec, sphere
from repro.exec import RunStatsStore, SweepEngine
from repro.obs import TelemetryBus
from repro.pipeline import JobGraph

PAIRS = 3 if QUICK else 5
TSTEPS = 2 if QUICK else 4
BUDGET = 0.05
TARGET = 0.03  # stop retrying once comfortably under the 5% gate


def _specs():
    config = AmrConfig(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=8, ny=8, nz=8, num_vars=2, num_tsteps=TSTEPS,
        stages_per_ts=2, refine_freq=1, checksum_freq=2,
        max_refine_level=1, payload="synthetic",
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25),),
    )
    return [
        RunSpec(config=config, machine="laptop", variant=variant,
                ranks_per_node=2, sched_seed=seed)
        for variant in ("mpi_only", "tampi_dataflow")
        for seed in (0, 1)
    ]


def _sweep(specs, tmp, *, telemetry):
    stats_path = tmp / f"stats-{'on' if telemetry else 'off'}.json"
    stats_path.unlink(missing_ok=True)
    bus = None
    if telemetry:
        stream = tmp / "telemetry.jsonl"
        stream.unlink(missing_ok=True)
        bus = TelemetryBus(stream)
    try:
        engine = SweepEngine(
            jobs=1, stats=RunStatsStore(stats_path), telemetry=bus,
        )
        report = engine.run(
            JobGraph.from_specs(specs, name="telemetry-overhead")
        )
        assert report.failed == 0
    finally:
        if bus is not None:
            bus.close()


def _measure(tmp):
    specs = _specs()
    r = paired_overhead(
        lambda: _sweep(specs, tmp, telemetry=False),
        lambda: _sweep(specs, tmp, telemetry=True),
        pairs=PAIRS, target=TARGET,
    )
    with open(tmp / "telemetry.jsonl") as fh:
        r["records_per_sweep"] = sum(1 for _ in fh)
    r["runs_per_sweep"] = len(specs)
    return r


def test_telemetry_overhead(benchmark, save_result, tmp_path):
    report = bench_once(benchmark, _measure, tmp_path)
    write_bench("telemetry_overhead", {
        **overhead_metrics(report),
        "records_per_sweep": metric(report["records_per_sweep"], "count"),
    }, {
        "pairs": PAIRS, "tsteps": TSTEPS,
        "runs_per_sweep": report["runs_per_sweep"],
        "attempts": report["attempts"], "enforced": ENFORCE,
    })

    save_result(
        "telemetry overhead (best-of-N CPU time, bus on vs off)\n"
        f"  jobs=1 sweep            {report['overhead']:+7.1%}  "
        f"(pair median {report['median_pair_overhead']:+.1%}, "
        f"{PAIRS} pairs, "
        f"{report['records_per_sweep']} records/sweep, "
        f"baseline {report['baseline_cpu_seconds']:.2f}s)",
        "telemetry_overhead",
    )

    if ENFORCE:
        assert report["overhead"] < BUDGET, report
