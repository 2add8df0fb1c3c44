#!/usr/bin/env python
"""Trace a run and render a Paraver-style timeline (paper Figs 1-3).

Runs MPI-only and TAMPI+OSS on 2 simulated nodes with tracing enabled,
writes Paraver ``.prv``/``.pcf`` files, renders ASCII timelines of the
TAMPI+OSS cores, and prints the quantitative analyses behind the figures:
MPI-call time breakdown (Fig 2's Waitany dominance), core utilization and
idle gaps (Fig 3's density), and the non-refinement speedup (Fig 1).

Run:  python examples/trace_visualization.py [output_dir]
"""

import sys
from pathlib import Path

from repro import RunSpec, marenostrum4, run_simulation
from repro.bench import TAMPI_OPTS, build_config, four_spheres
from repro.obs import (
    core_utilization,
    legend,
    mpi_time_by_call,
    render_ascii,
    unpack_follows_gap_fraction,
    write_pcf,
    write_prv,
)


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    spec = marenostrum4()
    num_nodes = 2
    tsteps = 2
    root = (8, 4, 3)  # one root block per MPI-only rank (96)

    results = {}
    for variant, rpn in (("mpi_only", 48), ("tampi_dataflow", 4)):
        opts = TAMPI_OPTS if variant == "tampi_dataflow" else {}
        cfg = build_config(
            num_nodes * rpn, root, four_spheres(tsteps),
            num_tsteps=tsteps, stages_per_ts=4,
            refine_freq=2, checksum_freq=4, max_refine_level=1, **opts,
        )
        res = run_simulation(RunSpec(
            config=cfg, machine=spec, variant=variant,
            num_nodes=num_nodes, ranks_per_node=rpn, trace=True,
        ))
        results[variant] = res
        prv = outdir / f"{variant}.prv"
        write_prv(res.tracer, prv, cfg.num_ranks, res.total_time)
        write_pcf(res.tracer, outdir / f"{variant}.pcf")
        print(f"{variant}: total={res.total_time:.4f}s "
              f"refine={res.refine_time:.4f}s -> trace {prv}")

    mpi = results["mpi_only"]
    tampi = results["tampi_dataflow"]

    print("\n--- Fig 1: phase layout -------------------------------------")
    print(f"non-refinement speedup TAMPI+OSS vs MPI-only: "
          f"{mpi.non_refine_time / tampi.non_refine_time:.2f}x "
          f"(paper: ~1.3x)")

    print("\n--- Fig 2: MPI-only call-time breakdown (rank 0) -------------")
    for name, t in sorted(
        mpi_time_by_call(mpi.tracer, rank=0).items(),
        key=lambda kv: -kv[1],
    ):
        print(f"  {name:<10} {t * 1e3:8.3f} ms")

    print("\n--- Fig 3: TAMPI+OSS core density ----------------------------")
    window = (tampi.total_time * 0.3, tampi.total_time * 0.7)
    report = core_utilization(tampi.tracer, 0, 12, *window)
    print(f"  busy fraction (mid-run window): {report.busy_fraction:.2f}")
    print(f"  largest idle gap: {report.max_gap * 1e3:.3f} ms "
          f"(paper: gaps under ~3 ms)")
    frac = unpack_follows_gap_fraction(tampi.tracer, 0, gap_min=1e-5)
    print(f"  gaps followed by unpack/intra tasks: {frac:.0%}")

    print("\n--- ASCII timeline (TAMPI+OSS, rank 0, cores 0-11) ------------")
    rows = [(0, c) for c in range(12)]
    print(render_ascii(tampi.tracer, rows, *window, width=96))
    print(legend())


if __name__ == "__main__":
    main()
