"""Benchmarks: paper Figures 1-3 — trace analyses on 2 nodes.

Fig 1: full-run traces of MPI-only vs TAMPI+OSS at the same time scale;
the non-refinement region of the taskified version is ~1.3x shorter.

Fig 2: the MPI-only timeline alternates computation with communication
windows dominated by ``MPI_Waitany``.

Fig 3: the TAMPI+OSS timeline is dense — cores almost always running
tasks, phases overlapping — with occasional small idle gaps typically
followed by unpack/intra tasks (data just arrived).
"""

import pytest
from conftest import QUICK, bench_once

from repro.bench import trace_runs
from repro.obs import (
    core_utilization,
    mpi_time_by_call,
    overlap_fraction,
    task_time_by_phase,
    unpack_follows_gap_fraction,
)

_cache = {}


@pytest.fixture(scope="module")
def traces():
    if "exp" not in _cache:
        _cache["exp"] = trace_runs(quick=QUICK)
    return _cache["exp"]


def test_fig1_trace_overview(benchmark, traces, save_result):
    exp = bench_once(benchmark, lambda: traces)
    save_result(exp.text, "fig1_traces")
    mpi = exp.results["mpi_only"]
    tampi = exp.results["tampi_dataflow"]

    # Same physics on both sides of the figure.
    assert mpi.num_blocks == tampi.num_blocks

    # The taskified non-refinement region is distinctly shorter
    # (paper: ~1.3x on 2 nodes).
    speedup = mpi.non_refine_time / tampi.non_refine_time
    assert speedup > 1.1, f"non-refinement speedup {speedup:.2f}"

    # Refinement phases exist in both traces.
    assert mpi.refine_time > 0 and tampi.refine_time > 0


def test_fig2_mpi_trace_zoom(benchmark, traces, save_result):
    exp = bench_once(benchmark, lambda: traces)
    mpi = exp.results["mpi_only"]
    calls = mpi_time_by_call(mpi.tracer)
    lines = ["Fig 2 — MPI-only call-time breakdown (all ranks)"]
    for name, t in sorted(calls.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<10} {t:.5f} s")
    save_result("\n".join(lines), "fig2_mpi_zoom")

    # Waitany dominates the MPI time (the green regions of Fig 2) over the
    # non-blocking call costs.
    wait_time = calls.get("Waitany", 0.0) + calls.get("Waitall", 0.0)
    post_time = calls.get("Isend", 0.0) + calls.get("Irecv", 0.0)
    assert wait_time > post_time, calls


def test_fig3_taskified_trace_zoom(benchmark, traces, save_result):
    exp = bench_once(benchmark, lambda: traces)
    tampi = exp.results["tampi_dataflow"]
    cores = 12  # 4 ranks/node on 48-core nodes

    # Mid-run window (outside init/refine phases).
    t0 = tampi.total_time * 0.35
    t1 = tampi.total_time * 0.65
    report = core_utilization(tampi.tracer, 0, cores, t0, t1)
    phases = task_time_by_phase(tampi.tracer)
    stencil_intra = overlap_fraction(tampi.tracer, 0, "intra", "stencil")
    gap_follow = unpack_follows_gap_fraction(tampi.tracer, 0, gap_min=2e-6)

    lines = [
        "Fig 3 — TAMPI+OSS density analysis (rank 0, mid-run window)",
        f"  busy fraction:              {report.busy_fraction:.3f}",
        f"  largest idle gap:           {report.max_gap * 1e3:.3f} ms",
        f"  intra-copy time overlapped by stencils: {stencil_intra:.0%}",
        f"  idle gaps followed by unpack/intra:     {gap_follow:.0%}",
        "  task time by phase: "
        + ", ".join(f"{k}={v:.4f}s" for k, v in sorted(phases.items())),
    ]
    save_result("\n".join(lines), "fig3_tampi_zoom")

    # "The execution is very dense": cores mostly busy.
    assert report.busy_fraction > 0.80, report.busy_fraction
    # "Empty regions take less than three milliseconds."
    assert report.max_gap < 3e-3, report.max_gap
    # Phases overlap: communication tasks coincide with stencils.
    assert stencil_intra > 0.5, stencil_intra
    # Multiple task types executed (the colorful Fig 3 palette).
    assert {"stencil", "pack", "unpack", "intra", "recv", "send"} <= set(
        phases
    )
