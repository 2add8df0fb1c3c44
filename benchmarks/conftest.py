"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures on the
simulated cluster.  Each runs exactly once (``rounds=1``) — the quantity of
interest is the *simulated* time/throughput inside the result, not the
wall-clock of the simulator.  Rendered tables are printed and archived
under ``benchmarks/results/``.

Host benchmarks — the ones that time the simulator itself — also write
``benchmarks/results/BENCH_<name>.json`` through :func:`write_bench`, in
the one schema ``miniamr-sim trend`` reads::

    {"host_cores": N, "config": {...},
     "metrics": {"<name>": {"value": x, "unit": "...",
                            "better": "lower" | "higher"}}}
"""

import gc
import json
import os
import resource
import statistics
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir, request):
    """Persist a rendered table/figure next to the benchmarks."""

    def _save(text, name=None):
        name = name or request.node.name
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print("\n" + text)
        return path

    return _save


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped worker processes.

    The sweep engine runs every simulation in a worker process (at
    ``jobs=1`` too) and joins it before the run completes, so this
    counts a whole engine sweep where ``time.process_time`` would see
    only the parent's orchestration.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + workers.ru_utime + workers.ru_stime)


def metric(value, unit, better="lower") -> dict:
    """One ``metrics`` entry of a BENCH document."""
    assert better in ("lower", "higher"), better
    return {"value": value, "unit": unit, "better": better}


def write_bench(name, metrics, config) -> Path:
    """Write ``BENCH_<name>.json``: measurements plus their settings.

    ``metrics`` maps a name to a :func:`metric` record; ``config`` holds
    the settings the numbers were measured under, which ``trend`` never
    compares.
    """
    from repro.simx.parallel.sync import _available_cores

    path = RESULTS_DIR / f"BENCH_{name}.json"
    doc = {"host_cores": _available_cores(), "config": config,
           "metrics": metrics}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _timed(fn) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = cpu_seconds()
        fn()
        return cpu_seconds() - t0
    finally:
        gc.enable()


def paired_overhead(off, on, *, pairs, target, attempts=3) -> dict:
    """CPU-time overhead of calling ``on`` instead of ``off``.

    Built for noisy single-core CI boxes:

    * :func:`cpu_seconds` (this process plus reaped workers), not wall
      clock: on a shared machine, wall time measures the neighbours;
    * both sides run once untimed first (imports, allocator, caches);
    * the cyclic GC is collected, then paused, around each timed call,
      so whole-heap pauses do not land on arbitrary calls;
    * ``pairs`` interleaved calls (off, on, off, on, ...) and the ratio
      of the *minimum* of each side: remaining noise is one-sided
      (preemption and frequency drift only ever add time), so best-of-N
      estimates the intrinsic cost more stably than means or medians;
    * up to ``attempts`` measurements, keeping the smallest estimate and
      stopping once it is under ``target``: noise bursts cluster for
      tens of seconds, so a whole attempt can be inflated, while a
      genuinely over-budget change still fails every attempt.

    Returns ``overhead`` (min/min - 1), the pair-median
    ``median_pair_overhead``, the ``baseline_cpu_seconds`` of ``off``
    and the number of ``attempts`` made.
    """
    best = None
    for attempt in range(1, attempts + 1):
        off()
        on()
        t_off, t_on = [], []
        for _ in range(pairs):
            t_off.append(_timed(off))
            t_on.append(_timed(on))
        ratios = [b / a for a, b in zip(t_off, t_on)]
        r = {
            "overhead": min(t_on) / min(t_off) - 1.0,
            "median_pair_overhead": statistics.median(ratios) - 1.0,
            "baseline_cpu_seconds": min(t_off),
        }
        if best is None or r["overhead"] < best["overhead"]:
            best = r
        if best["overhead"] < target:
            break
    best["attempts"] = attempt
    return best


def overhead_metrics(r, prefix="") -> dict:
    """The measured fields of a :func:`paired_overhead` result."""
    return {
        f"{prefix}overhead": metric(r["overhead"], "fraction"),
        f"{prefix}median_pair_overhead": metric(
            r["median_pair_overhead"], "fraction"),
        f"{prefix}baseline_cpu_seconds": metric(
            r["baseline_cpu_seconds"], "s"),
    }


def bench_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)


#: Perf budgets and gates are asserted only when REPRO_PERF_ENFORCE=1 (the CI
#: jobs); otherwise they are measured and recorded.
ENFORCE = os.environ.get("REPRO_PERF_ENFORCE", "0") == "1"

#: Smaller geometries when REPRO_BENCH_QUICK=1 (used by CI/smoke runs).
QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") == "1"

#: Paper-scale sweeps when REPRO_BENCH_FULL=1: the scaling figures extend
#: to 256 scaled nodes (2048 MPI-only ranks), matching the published node
#: range.  Off by default — the top points dominate the suite's wall-clock.
FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Worker processes for the sweep engine (REPRO_BENCH_JOBS=N parallelizes
#: every experiment's runs; results are identical to serial execution).
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Optional content-addressed result cache (REPRO_BENCH_CACHE=<dir>):
#: rerunning the suite with a warm cache skips the simulations entirely.
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE", "")


@pytest.fixture(scope="session")
def engine():
    """A shared sweep engine for every experiment in the session."""
    from repro.exec import ResultCache, SweepEngine

    cache = ResultCache(CACHE_DIR) if CACHE_DIR else None
    return SweepEngine(jobs=JOBS, cache=cache)
