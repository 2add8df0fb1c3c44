"""Benchmark: runtime overhead of ``RunSpec(profile=True)``.

Profiling must be cheap enough to leave on for real experiments: the
acceptance bar is **< 10% of run time** on the small config, always
enforced.  The measurement uses the golden small geometries at a
representative block size (32^3 cells — the paper's miniAMR runs use
blocks at least this large).  Profiling cost is essentially fixed per
task/event (record a task, classify a gap), while the baseline scales
with block volume, so the miniature 4^3 golden blocks — where a
simulated task is a few microseconds of numpy — would measure a worst
case no real experiment sees.  Runs are 8 timesteps instead of the
goldens' 2: the overhead ratio is timestep-invariant, while noise
bursts are fixed-size.

The methodology is :func:`conftest.paired_overhead`; the result is
written to ``benchmarks/results/BENCH_profile_overhead.json``.
"""

import dataclasses

from conftest import (
    QUICK, bench_once, overhead_metrics, paired_overhead, write_bench,
)

from repro.core.driver import execute
from repro.verify import default_golden_specs

# QUICK economizes on run length and pair count, NOT on block size:
# at small blocks the per-event numpy work is microseconds and the
# fixed per-task profiling cost dominates any measurement.
PAIRS = 3 if QUICK else 5
BLOCK = 32
TSTEPS = 4 if QUICK else 8
TARGET = 0.08  # stop retrying once comfortably under the 10% gate
WORLDS = ("mpi_only_small", "tampi_dataflow_small")


def _specs(name):
    base = default_golden_specs()[name]
    base = dataclasses.replace(
        base, config=dataclasses.replace(
            base.config,
            nx=BLOCK, ny=BLOCK, nz=BLOCK, num_tsteps=TSTEPS,
        )
    )
    return base, dataclasses.replace(base, profile=True)


def measure_overhead(name):
    off, on = _specs(name)

    def profiled():
        assert execute(on).profile is not None

    return paired_overhead(
        lambda: execute(off), profiled, pairs=PAIRS, target=TARGET,
    )


def _measure_all():
    return {name: measure_overhead(name) for name in WORLDS}


def test_profile_overhead(benchmark, save_result):
    report = bench_once(benchmark, _measure_all)
    metrics = {}
    for name, r in report.items():
        metrics.update(overhead_metrics(r, f"{name}."))
    write_bench("profile_overhead", metrics, {
        "pairs": PAIRS, "block": BLOCK, "tsteps": TSTEPS,
        "attempts": {name: r["attempts"] for name, r in report.items()},
    })

    lines = ["profiling overhead (best-of-N CPU time, on vs off)"]
    for name, r in report.items():
        lines.append(
            f"  {name:<24} {r['overhead']:+7.1%}  "
            f"(pair median {r['median_pair_overhead']:+.1%}, "
            f"{PAIRS} pairs, {BLOCK}^3 blocks, "
            f"baseline {r['baseline_cpu_seconds']:.2f}s)"
        )
    save_result("\n".join(lines), "profile_overhead")

    for name, r in report.items():
        assert r["overhead"] < 0.10, (name, r)
