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

Methodology — identical to ``test_profile_overhead.py``, built for
noisy single-core CI boxes:

* CPU seconds of the engine process plus its reaped workers
  (:func:`conftest.cpu_seconds`), not wall clock;
* cyclic GC collected then paused around each timed run;
* interleaved runs (off, on, off, on, ...) and the ratio of the
  *minimum* of each group — remaining noise is one-sided;
* up to three measurement attempts, keeping the smallest estimate.

The result is written to
``benchmarks/results/BENCH_telemetry_overhead.json`` — the seed of the
telemetry-overhead perf trajectory tracked by ``miniamr-sim trend``.
"""

import gc
import json
import os
import statistics

from conftest import QUICK, bench_once, cpu_seconds

from repro import AmrConfig, RunSpec, sphere
from repro.exec import RunStatsStore, Sweep, SweepEngine
from repro.obs import TelemetryBus

PAIRS = 3 if QUICK else 5
TSTEPS = 2 if QUICK else 4
ENFORCE = os.environ.get("REPRO_PERF_ENFORCE", "0") == "1"
BUDGET = 0.05


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


def _timed_sweep(specs, tmp, *, telemetry):
    stats_path = tmp / f"stats-{'on' if telemetry else 'off'}.json"
    if stats_path.exists():
        stats_path.unlink()
    bus = None
    try:
        if telemetry:
            stream = tmp / "telemetry.jsonl"
            if stream.exists():
                stream.unlink()
            bus = TelemetryBus(stream)
        engine = SweepEngine(
            jobs=1, stats=RunStatsStore(stats_path), telemetry=bus,
        )
        gc.collect()
        gc.disable()
        try:
            t0 = cpu_seconds()
            report = engine.run(Sweep(specs, name="telemetry-overhead"))
            dt = cpu_seconds() - t0
        finally:
            gc.enable()
        assert report.failed == 0
    finally:
        if bus is not None:
            bus.close()
    return dt


def measure_overhead(tmp):
    specs = _specs()
    _timed_sweep(specs, tmp, telemetry=False)   # warm both paths
    _timed_sweep(specs, tmp, telemetry=True)
    t_off, t_on = [], []
    for _ in range(PAIRS):
        t_off.append(_timed_sweep(specs, tmp, telemetry=False))
        t_on.append(_timed_sweep(specs, tmp, telemetry=True))
    ratios = [b / a for a, b in zip(t_off, t_on)]
    records = sum(1 for _ in open(tmp / "telemetry.jsonl"))
    return {
        "pairs": PAIRS,
        "runs_per_sweep": len(specs),
        "tsteps": TSTEPS,
        "records_per_sweep": records,
        "overhead": min(t_on) / min(t_off) - 1.0,
        "median_pair_overhead": statistics.median(ratios) - 1.0,
        "baseline_cpu_seconds": min(t_off),
    }


ATTEMPTS = 3
TARGET = 0.03  # stop retrying once comfortably under the 5% gate


def _measure(tmp):
    best = None
    for attempt in range(ATTEMPTS):
        r = measure_overhead(tmp)
        if best is None or r["overhead"] < best["overhead"]:
            best = r
        if best["overhead"] < TARGET:
            break
    best["attempts"] = attempt + 1
    best["enforced"] = ENFORCE
    return best


def test_telemetry_overhead(benchmark, results_dir, save_result,
                            tmp_path):
    report = bench_once(benchmark, _measure, tmp_path)
    path = results_dir / "BENCH_telemetry_overhead.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    save_result(
        "telemetry overhead (best-of-N CPU time, bus on vs off)\n"
        f"  jobs=1 sweep            {report['overhead']:+7.1%}  "
        f"(pair median {report['median_pair_overhead']:+.1%}, "
        f"{report['pairs']} pairs, "
        f"{report['records_per_sweep']} records/sweep, "
        f"baseline {report['baseline_cpu_seconds']:.2f}s)",
        "telemetry_overhead",
    )

    if ENFORCE:
        assert report["overhead"] < BUDGET, report
