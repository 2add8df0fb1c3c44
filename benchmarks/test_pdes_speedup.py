"""Benchmark: partitioned-kernel (PDES) wall-clock speedup over serial.

Measures end-to-end wall-clock of the same simulated world executed by
the serial event kernel and by ``pdes_workers`` partitioned workers, on
the Fig 4 weak-scaling ladder extended to 1024 scaled nodes (8192
MPI-only ranks).  Results are checked byte-identical at every scale
before any timing is trusted — a partitioned run that drifts is a bug,
not a data point.

Wall-clock (``time.perf_counter``), *not* CPU time: parallel speedup is
the quantity of interest, and it only exists when the host grants the
workers real cores.  The report therefore records the host's available
core count; the ``>= 2x at >= 64 nodes`` acceptance gate is enforced
with ``REPRO_PERF_ENFORCE=1`` on hosts with at least ``ENFORCE_WORKERS``
cores (the CI ``perf`` job), and is recorded-but-not-asserted on
narrower hosts.

The report is written to ``benchmarks/results/BENCH_pdes_speedup.json``.
"""

import json
import time

from conftest import ENFORCE, QUICK, bench_once, metric, write_bench

from repro.bench.experiments import _scaling_spec
from repro.bench.inputs import weak_root_dims
from repro.core.driver import execute
from repro.simx.parallel.sync import _available_cores

#: Scaled node counts measured (the weak-scaling ladder; 1024 nodes =
#: 8192 MPI-only ranks).  QUICK keeps CI smoke runs short.
SCALES = (16, 64) if QUICK else (16, 64, 256, 1024)

#: Worker counts per scale (1 = the serial baseline).
WORKER_COUNTS = (1, 2, 4)

#: Scales where full-result equivalence is asserted byte for byte.
#: Bounded because serializing an 8192-rank result dominates the run.
EQUIVALENCE_SCALES = (16, 64)

#: The acceptance gate: >= MIN_SPEEDUP at >= GATE_NODES scaled nodes.
MIN_SPEEDUP = 2.0
GATE_NODES = 64
ENFORCE_WORKERS = 4


def _spec(nodes, workers=1):
    doublings = nodes.bit_length() - 1
    root = weak_root_dims((2, 2, 2), doublings)
    # One timestep, two stages: enough windows to expose the
    # coordination cost, small enough that 1024 scaled nodes stay
    # benchmarkable.
    return _scaling_spec("mpi_only", nodes, root, 1, 2, "synthetic",
                         pdes_workers=workers)


def _canon(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _measure_scale(nodes):
    entry = {"ranks": _spec(nodes).config.num_ranks, "workers": {}}
    baseline = None
    serial_wall = None
    for workers in WORKER_COUNTS:
        spec = _spec(nodes, workers)
        t0 = time.perf_counter()
        result = execute(spec)
        wall = time.perf_counter() - t0
        if workers == 1:
            serial_wall = wall
            entry["serial_wall_seconds"] = wall
            if nodes in EQUIVALENCE_SCALES:
                baseline = _canon(result)
            continue
        if baseline is not None:
            assert _canon(result) == baseline, (
                f"{nodes}n: pdes_workers={workers} diverged from serial"
            )
        entry["workers"][str(workers)] = {
            "wall_seconds": wall,
            "speedup": serial_wall / wall,
        }
    return entry


def _measure_all():
    scales = {nodes: _measure_scale(nodes) for nodes in SCALES}
    best = max(
        (
            scales[n]["workers"][str(w)]["speedup"]
            for n in SCALES if n >= GATE_NODES
            for w in WORKER_COUNTS if w > 1
        ),
        default=0.0,
    )
    return scales, best


def test_pdes_speedup(benchmark, save_result):
    scales, best = bench_once(benchmark, _measure_all)
    gate = {
        "min_speedup": MIN_SPEEDUP,
        "at_nodes": GATE_NODES,
        "requires_cores": ENFORCE_WORKERS,
        "met": best >= MIN_SPEEDUP,
    }
    metrics = {"best_speedup_at_gate": metric(best, "x", "higher")}
    for nodes, s in scales.items():
        metrics[f"scales.{nodes}.serial_wall_seconds"] = metric(
            s["serial_wall_seconds"], "s")
        for w, r in s["workers"].items():
            prefix = f"scales.{nodes}.workers.{w}."
            metrics[prefix + "wall_seconds"] = metric(r["wall_seconds"], "s")
            metrics[prefix + "speedup"] = metric(r["speedup"], "x", "higher")
    write_bench("pdes_speedup", metrics, {
        "variant": "mpi_only",
        "machine": "marenostrum4_scaled",
        "quick": QUICK,
        "gate": gate,
        "ranks": {str(nodes): s["ranks"] for nodes, s in scales.items()},
    })
    host_cores = _available_cores()

    lines = [
        f"partitioned kernel speedup (wall clock, "
        f"{host_cores} host cores)"
    ]
    for nodes, s in scales.items():
        per_w = "  ".join(
            f"w{w}: {r['wall_seconds']:.2f}s ({r['speedup']:.2f}x)"
            for w, r in s["workers"].items()
        )
        lines.append(
            f"  {nodes:>5}n ({s['ranks']:>5} ranks)  "
            f"serial {s['serial_wall_seconds']:.2f}s  {per_w}"
        )
    lines.append(
        f"  gate: >= {MIN_SPEEDUP:.1f}x at >= {GATE_NODES}n"
        f" -> best {best:.2f}x"
        f" ({'met' if gate['met'] else 'not met'})"
    )
    save_result("\n".join(lines), "pdes_speedup")

    # Timings only mean something if the partitioned runs were real:
    # every measured scale ran every worker count.
    for s in scales.values():
        assert set(s["workers"]) == {
            str(w) for w in WORKER_COUNTS if w > 1
        }

    if ENFORCE and host_cores >= ENFORCE_WORKERS:
        assert gate["met"], (
            f"partitioned kernel reached only {best:.2f}x at >= "
            f"{GATE_NODES} scaled nodes (target {MIN_SPEEDUP:.1f}x) on a "
            f"{host_cores}-core host"
        )
