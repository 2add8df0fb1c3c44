"""Benchmark: orchestration overhead of the design-space tuner.

``run_tune`` must cost (almost) nothing beyond the candidate runs it
drives: the budget is **< 10% over a raw sweep of the identical
specs**, enforced when ``REPRO_PERF_ENFORCE=1`` (the CI ``tune`` job)
and recorded otherwise.  The comparator is exact — the same profiled
baseline + candidate RunSpecs the tuner materializes, submitted as one
flat job graph (:meth:`~repro.pipeline.JobGraph.from_specs`) on an
identical engine — so the measured delta is purely the tuner's own work:
space enumeration, strategy bookkeeping, attribution reads, and report
assembly.

The methodology is :func:`conftest.paired_overhead`; the result is
written to ``benchmarks/results/BENCH_tune_overhead.json``.
"""

from dataclasses import replace

from conftest import (
    ENFORCE, QUICK, bench_once, overhead_metrics, paired_overhead,
    write_bench,
)

from repro import AmrConfig, RunSpec, sphere
from repro.exec import SweepEngine
from repro.pipeline import JobGraph
from repro.tune import TuneSpec, enumerate_space, materialize, run_tune

PAIRS = 3 if QUICK else 5
TSTEPS = 2 if QUICK else 4
BUDGET = 0.10
TARGET = 0.06  # stop retrying once comfortably under the 10% gate


def _tune():
    config = AmrConfig(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=8, ny=8, nz=8, num_vars=2, num_tsteps=TSTEPS,
        stages_per_ts=2, refine_freq=1, checksum_freq=2,
        max_refine_level=1, payload="synthetic",
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25),),
    )
    base = RunSpec(
        config=config, machine="laptop", variant="tampi_dataflow",
        ranks_per_node=2,
    )
    return TuneSpec(
        base=base,
        space={
            "variant": ("mpi_only", "fork_join", "tampi_dataflow"),
            "scheduler": ("locality", "fifo"),
        },
        name="tune-overhead",
    )


def _comparator_specs(tune):
    """Exactly the runs the tuner performs, as one flat sweep."""
    specs = [replace(tune.base, profile=True)]
    specs.extend(
        replace(materialize(tune, assignment), profile=True)
        for assignment in enumerate_space(tune.space)
    )
    return specs


def _measure():
    tune = _tune()
    specs = _comparator_specs(tune)

    def raw_sweep():
        report = SweepEngine(jobs=1).run(
            JobGraph.from_specs(specs, name="tune-overhead-raw")
        )
        assert report.failed == 0

    def tuned():
        report = run_tune(tune, engine=SweepEngine(jobs=1))
        assert not report.failed
        assert report.evaluations == len(specs) - 1

    r = paired_overhead(raw_sweep, tuned, pairs=PAIRS, target=TARGET)
    r["candidates"] = len(specs) - 1
    return r


def test_tune_overhead(benchmark, save_result):
    report = bench_once(benchmark, _measure)
    write_bench("tune_overhead", overhead_metrics(report), {
        "pairs": PAIRS, "tsteps": TSTEPS,
        "candidates": report["candidates"],
        "attempts": report["attempts"], "enforced": ENFORCE,
    })

    save_result(
        "tune orchestration overhead (best-of-N CPU time, "
        "run_tune vs raw sweep of identical specs)\n"
        f"  grid tune               {report['overhead']:+7.1%}  "
        f"(pair median {report['median_pair_overhead']:+.1%}, "
        f"{PAIRS} pairs, "
        f"{report['candidates']} candidates, "
        f"baseline {report['baseline_cpu_seconds']:.2f}s)",
        "tune_overhead",
    )

    if ENFORCE:
        assert report["overhead"] < BUDGET, report
