"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures on the
simulated cluster.  Each runs exactly once (``rounds=1``) — the quantity of
interest is the *simulated* time/throughput inside the result, not the
wall-clock of the simulator.  Rendered tables are printed and archived
under ``benchmarks/results/``.
"""

import os
import resource
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


def bench_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)


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
