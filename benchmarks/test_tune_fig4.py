"""Benchmark: tuning the paper's Fig 4 four-node configuration.

The committed :func:`repro.bench.fig4_tune` problem re-opens the two
decisions the paper settles empirically for the 4-node weak-scaling
point — the parallelization variant and Table I's ranks-per-node —
with the paper's own choice (``tampi_dataflow`` at the scaled
ranks-per-node) sitting *inside* the space as the baseline.  The
acceptance property is therefore structural: the tune's top-ranked
configuration is at least as fast as the paper default — strictly
faster, or the default confirmed already-optimal — and the full ranked
evidence lands in ``benchmarks/results/tune_fig4.json``.

Deterministic under the fixed seed: this JSON is byte-stable across
reruns, worker counts, and cache states (the CI ``tune`` job diffs it).
It is a golden of the simulated result, not a host benchmark, so it sits
outside the ``BENCH_*.json`` set that ``miniamr-sim trend`` reads.
"""

from conftest import QUICK, bench_once

from repro.bench import fig4_tune
from repro.tune import run_tune


def test_tune_fig4(benchmark, results_dir, save_result, engine):
    tune = fig4_tune(quick=QUICK)
    report = bench_once(benchmark, run_tune, tune, engine=engine)

    path = results_dir / "tune_fig4.json"
    path.write_text(report.to_json())
    save_result(report.ascii().rstrip("\n"), "tune_fig4")

    # Full coverage of the declared space: nothing failed, nothing
    # silently dropped.
    assert report.evaluations == 9
    assert not report.failed and not report.infeasible
    assert report.truncated == 0
    assert report.baseline is not None

    # The paper default lives in the space, so the winner is provably
    # no worse than it.
    gain = report.improvement_over_baseline()
    assert gain is not None and gain >= 0, report.to_dict()

    # The winner keeps the paper's variant choice: data-flow wins the
    # 4-node point in every ranks-per-node column (paper Table I).
    assert report.best["assignment"]["variant"] == "tampi_dataflow"
