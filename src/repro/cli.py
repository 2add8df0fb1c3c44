"""Command-line interface: run simulated miniAMR, sweeps, or experiments.

Examples::

    miniamr-sim run --variant tampi_dataflow --nodes 2 --ranks-per-node 2
    miniamr-sim run --variant mpi_only --nodes 1 --preset laptop
    miniamr-sim sweep --variants mpi_only tampi_dataflow --nodes 1 2 --jobs 4
    miniamr-sim bench table1
    miniamr-sim bench weak --nodes 1 2 4 8 --jobs 4 --cache-dir .repro-cache
    miniamr-sim profile --variant tampi_dataflow --preset laptop \\
        --json tampi.json --chrome-trace tampi.trace.json
    miniamr-sim report mpi_only.json tampi.json
    miniamr-sim faults --intensities 0.5 1.0 --quick
    miniamr-sim pipeline paper --quick --jobs 2
    miniamr-sim pipeline paper --quick --show-dag
    miniamr-sim sweep --jobs 4 --telemetry sweep.jsonl
    miniamr-sim top sweep.jsonl --follow
    miniamr-sim tune --fig4 --quick --json tune.json
    miniamr-sim tune --variant tampi_dataflow --nodes 2 \\
        --tune-variants mpi_only tampi_dataflow --tune-rpn 2 4 8
    miniamr-sim pipeline tune --quick
    miniamr-sim engine-report sweep.jsonl --chrome-trace engine.trace.json
    miniamr-sim trend --results-dir benchmarks/results
    miniamr-sim serve --port 8742 --jobs 4 --journal-dir .repro-serve
    miniamr-sim submit --server http://127.0.0.1:8742 \\
        --variant tampi_dataflow --preset laptop --tenant alice --wait
    miniamr-sim submit --server http://127.0.0.1:8742 \\
        --tune-file tune_spec.json --wait
    miniamr-sim status --server http://127.0.0.1:8742
    miniamr-sim top http://127.0.0.1:8742 --follow

Exit codes: 0 success, 1 failed runs (sweep/bench/pipeline/verify) or
flagged regressions (trend --strict) or failed/rejected server jobs,
2 invalid spec or argument combination.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .bench import (
    build_config,
    format_table,
    four_spheres,
    resilience,
    single_sphere,
    strong_scaling,
    table1,
    table2,
    trace_runs,
    weak_scaling,
)
from .core import RunSpec, VARIANTS, resolve_ranks_per_node, run_simulation
from .faults import noise_plan
from .machine.presets import PRESETS, get_preset
from .tasking.runtime import SCHEDULERS
from .tune import OBJECTIVES, STRATEGIES

#: Default on-disk result cache for ``bench``/``sweep`` (override with
#: --cache-dir / REPRO_CACHE_DIR; disable with --no-cache).
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")

#: Default duration-statistics store feeding the DAG scheduler's cost
#: predictions (override with --stats-file / REPRO_STATS_FILE; disable
#: with --no-stats).
DEFAULT_STATS_FILE = os.environ.get("REPRO_STATS_FILE", ".repro-stats.json")


def _add_geometry_options(p):
    """Workload options shared by ``run`` and ``sweep``."""
    p.add_argument("--root", type=int, nargs=3, default=(4, 2, 2),
                   metavar=("RX", "RY", "RZ"),
                   help="root mesh blocks per dimension")
    p.add_argument("--nx", type=int, default=12, help="cells per block/dim")
    p.add_argument("--num-vars", type=int, default=20)
    p.add_argument("--comm-vars", type=int, default=0,
                   help="variables per communication group (0 = all)")
    p.add_argument("--tsteps", type=int, default=2)
    p.add_argument("--stages", type=int, default=10)
    p.add_argument("--refine-freq", type=int, default=2)
    p.add_argument("--checksum-freq", type=int, default=10)
    p.add_argument("--max-refine-level", type=int, default=2)
    p.add_argument("--input", choices=("single_sphere", "four_spheres"),
                   default="four_spheres")
    p.add_argument("--payload", choices=("real", "synthetic"),
                   default="synthetic")
    p.add_argument("--send-faces", action="store_true")
    p.add_argument("--separate-buffers", action="store_true")
    p.add_argument("--max-comm-tasks", type=int, default=0)
    p.add_argument("--stencil", type=int, choices=(7, 27), default=7)
    p.add_argument("--lb-method", choices=("sfc", "rcb"), default="sfc")
    p.add_argument("--uniform-refine", action="store_true")
    p.add_argument("--scheduler", choices=SCHEDULERS, default="locality")
    p.add_argument("--sched-seed", type=int, default=0,
                   help="schedule-perturbation seed (fuzz scheduler only)")


def _add_engine_options(p):
    """Sweep-engine options shared by ``sweep`` and ``bench``."""
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; every run executes in one, "
                        "so timeout/retry/cancel behave the same at any "
                        "count (default: %(default)s)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="content-addressed result cache directory "
                        "(default: %(default)s)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run timeout in seconds (any --jobs count)")
    p.add_argument("--retries", type=int, default=2,
                   help="crash/timeout retries per run before it fails")
    p.add_argument("--stats-file", default=DEFAULT_STATS_FILE,
                   help="duration-statistics store used for predicted-"
                        "cost scheduling (default: %(default)s)")
    p.add_argument("--no-stats", action="store_true",
                   help="neither read nor record run-duration statistics")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="append engine telemetry (job lifecycle, cache "
                        "hits, PDES windows) as JSONL here; watch live "
                        "with `miniamr-sim top PATH --follow`")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="graceful-shutdown budget: on SIGTERM/SIGINT "
                        "wait this long for in-flight runs before "
                        "terminating them (default: %(default)s)")


def _add_fault_options(p):
    """Fault-injection options shared by ``run`` and ``profile``."""
    p.add_argument("--fault-noise", type=float, default=0.0,
                   metavar="INTENSITY",
                   help="inject the canonical noise mix (CPU noise + OS "
                        "bursts + message jitter + transient loss) at "
                        "this intensity (0 = clean run)")
    p.add_argument("--fault-seed", type=int, default=2020,
                   help="fault-injection seed (default: %(default)s)")


def _add_pdes_options(p):
    """Partitioned-kernel options shared by ``run`` and ``bench``."""
    p.add_argument("--pdes-workers", type=int, default=1, metavar="N",
                   help="partition the simulated ranks across N worker "
                        "processes running the event kernel in parallel "
                        "(results stay byte-identical; default: serial)")
    p.add_argument("--pdes-partition", choices=("node", "contiguous"),
                   default=None,
                   help="rank->worker policy for --pdes-workers > 1 "
                        "(default: whole nodes per worker)")


def _fault_plan(args):
    """The :class:`~repro.faults.FaultPlan` of ``--fault-noise`` (or None)."""
    if args.fault_noise < 0:
        raise ValueError("--fault-noise must be >= 0")
    if args.fault_noise == 0:
        return None
    return noise_plan(args.fault_noise, seed=args.fault_seed)


def _add_run_parser(sub):
    p = sub.add_parser("run", help="run one simulated miniAMR execution")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="marenostrum4_scaled")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--ranks-per-node", type=int, default=None)
    p.add_argument("--check-access", action="store_true",
                   help="run the dependency race detector (fail on any "
                        "undeclared task data access)")
    _add_geometry_options(p)
    _add_fault_options(p)
    _add_pdes_options(p)
    return p


def _add_sweep_parser(sub):
    p = sub.add_parser(
        "sweep",
        help="run a variant x node-count sweep through the parallel, "
             "cached execution engine",
    )
    p.add_argument("--variants", nargs="+", choices=sorted(VARIANTS),
                   default=sorted(VARIANTS))
    p.add_argument("--nodes", type=int, nargs="+", default=(1,),
                   help="node counts to sweep")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="marenostrum4_scaled")
    p.add_argument("--ranks-per-node", type=int, default=None,
                   help="override the per-variant default "
                        "(all cores for mpi_only, 4 for hybrids)")
    _add_geometry_options(p)
    _add_engine_options(p)
    return p


def _add_bench_parser(sub):
    p = sub.add_parser(
        "bench", help="regenerate one of the paper's tables/figures"
    )
    p.add_argument(
        "experiment",
        choices=("table1", "table2", "weak", "strong", "traces"),
    )
    p.add_argument("--nodes", type=int, nargs="*", default=None,
                   help="node counts (weak/strong scaling only)")
    p.add_argument("--quick", action="store_true",
                   help="smaller geometry for a fast look")
    _add_engine_options(p)
    _add_pdes_options(p)
    return p


def _add_faults_parser(sub):
    p = sub.add_parser(
        "faults",
        help="resilience experiment: sweep injected-noise intensity x "
             "variant and print the degradation curve",
    )
    p.add_argument("--intensities", type=float, nargs="+",
                   default=(0.5, 1.0),
                   help="noise intensities to sweep (0 = clean baseline, "
                        "always included; default: %(default)s)")
    p.add_argument("--variants", nargs="+", choices=sorted(VARIANTS),
                   default=sorted(VARIANTS))
    p.add_argument("--nodes", type=int, default=2,
                   help="nodes per run (default: %(default)s)")
    p.add_argument("--seed", type=int, default=2020,
                   help="fault-injection seed (default: %(default)s)")
    p.add_argument("--quick", action="store_true",
                   help="smaller geometry for a fast look")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="write the degradation curve as CSV here")
    _add_engine_options(p)
    return p


def _add_pipeline_parser(sub):
    p = sub.add_parser(
        "pipeline",
        help="run a DAG-structured experiment pipeline: nodes launch as "
             "soon as their own predecessors finish, ordered "
             "critical-path-first by predicted cost",
    )
    p.add_argument("name", nargs="?", default=None,
                   help="registered pipeline (e.g. 'paper': the "
                        "calibrate -> {fig4, fig5} -> report diamond)")
    p.add_argument("--file", default=None, metavar="PATH",
                   help="load a PipelineSpec JSON instead of a "
                        "registered name")
    p.add_argument("--quick", action="store_true",
                   help="smaller geometry for a fast look")
    p.add_argument("--show-dag", action="store_true",
                   help="print the DAG with predicted per-node costs and "
                        "makespans, then exit without running anything")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write per-node results as JSON (timing-free: "
                        "byte-identical across cached re-runs)")
    _add_engine_options(p)
    return p


def _add_verify_parser(sub):
    p = sub.add_parser(
        "verify",
        help="correctness gate: golden-result regression, schedule-"
             "perturbation fuzz, and the dependency race detector",
    )
    p.add_argument("--goldens-dir", default=None,
                   help="golden store directory (default: goldens)")
    p.add_argument("--update-goldens", action="store_true",
                   help="rewrite the golden files from fresh runs "
                        "(review the diff like any other)")
    p.add_argument("--seeds", type=int, default=10,
                   help="fuzz schedules to try (default: %(default)s)")
    p.add_argument("--quick", action="store_true",
                   help="single-timestep goldens for a fast smoke check")
    p.add_argument("--skip-fuzz", action="store_true",
                   help="skip the schedule-perturbation sweep")
    p.add_argument("--skip-race", action="store_true",
                   help="skip the dependency race detector run")
    # Verification always re-executes: a result cache could mask drift
    # introduced without a version bump, so only jobs/timeout/retries of
    # the engine options apply here.
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; every run executes in one, "
                        "so timeout/retry/cancel behave the same at any "
                        "count (default: %(default)s)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run timeout in seconds (any --jobs count)")
    p.add_argument("--retries", type=int, default=2,
                   help="crash/timeout retries per run before it fails")
    return p


def _add_profile_parser(sub):
    p = sub.add_parser(
        "profile",
        help="run one profiled execution: metrics, critical path, "
             "idle-gap taxonomy; optionally export Chrome trace / JSON",
    )
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="marenostrum4_scaled")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--ranks-per-node", type=int, default=None)
    _add_geometry_options(p)
    _add_fault_options(p)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the ProfileReport JSON here (the input "
                        "format of `miniamr-sim report`)")
    p.add_argument("--chrome-trace", default=None, metavar="PATH",
                   help="write a Perfetto/chrome://tracing trace here")
    p.add_argument("--metrics-csv", default=None, metavar="PATH",
                   help="write the metrics registry as CSV here")
    p.add_argument("--top", type=int, default=8,
                   help="rows per section of the text summary")
    return p


def _add_top_parser(sub):
    p = sub.add_parser(
        "top",
        help="live view of a running sweep/pipeline from its telemetry "
             "stream: per-worker activity, queue, retries, ETA",
    )
    p.add_argument("stream", metavar="TELEMETRY",
                   help="telemetry JSONL written via --telemetry (or "
                        "REPRO_TELEMETRY), or an http(s):// serve-"
                        "server URL (fetched from its /v1/telemetry)")
    p.add_argument("--follow", action="store_true",
                   help="refresh in place until the engine (or serve "
                        "server) stops")
    p.add_argument("--interval", type=float, default=0.5,
                   help="refresh period in seconds (default: %(default)s)")
    return p


def _add_engine_report_parser(sub):
    p = sub.add_parser(
        "engine-report",
        help="aggregate a telemetry stream: worker utilization, queue "
             "waits, cache hit rate, retries, PDES window efficiency, "
             "predicted-vs-achieved makespan",
    )
    p.add_argument("stream", metavar="TELEMETRY",
                   help="telemetry JSONL written via --telemetry")
    p.add_argument("--chrome-trace", default=None, metavar="PATH",
                   help="write the engine-level Perfetto trace here "
                        "(one lane per engine worker)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the normalized (timestamp-free) digest "
                        "as JSON here")
    return p


def _add_trend_parser(sub):
    p = sub.add_parser(
        "trend",
        help="diff benchmarks/results/BENCH_*.json against their "
             "committed history and flag metric regressions",
    )
    p.add_argument("--results-dir", default="benchmarks/results",
                   help="BENCH_*.json directory (default: %(default)s)")
    p.add_argument("--baseline-dir", default=None, metavar="DIR",
                   help="compare against this directory instead of the "
                        "committed git version")
    p.add_argument("--rev", default="HEAD",
                   help="git revision holding the baseline "
                        "(default: %(default)s)")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="relative change treated as a trend "
                        "(default: %(default)s)")
    p.add_argument("--all", action="store_true",
                   help="print every metric, not just flagged ones")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any regression is flagged")
    return p


def _add_report_parser(sub):
    p = sub.add_parser(
        "report",
        help="compare two profiled runs side by side (phase times, "
             "overlap fraction, critical path, idle-gap taxonomy)",
    )
    p.add_argument("runs", nargs=2, metavar="RUN",
                   help="ProfileReport JSON files written by "
                        "`miniamr-sim profile --json` (a serialized "
                        "RunResult containing a profile also works)")
    return p


def _add_serve_parser(sub):
    p = sub.add_parser(
        "serve",
        help="run the multi-tenant sweep service: HTTP submit/status/"
             "result with request coalescing, per-tenant quotas, and a "
             "crash-safe job journal (see DESIGN.md §11)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8742)
    p.add_argument("--journal-dir", default=".repro-serve",
                   metavar="DIR",
                   help="job-journal directory; a restarted server "
                        "replays it and finishes queued work "
                        "(default: %(default)s)")
    p.add_argument("--queue-cap", type=int, default=64,
                   help="max queued+running unique executions before "
                        "submits get 429 queue_full "
                        "(default: %(default)s)")
    p.add_argument("--quota-rate", type=float, default=5.0,
                   help="per-tenant sustained submits/second "
                        "(default: %(default)s)")
    p.add_argument("--quota-burst", type=int, default=10,
                   help="per-tenant submit burst size "
                        "(default: %(default)s)")
    p.add_argument("--aging-rate", type=float, default=0.05,
                   help="priority gained per queued second "
                        "(anti-starvation; default: %(default)s)")
    p.add_argument("--verbose", action="store_true",
                   help="log each HTTP request to stderr")
    _add_engine_options(p)
    return p


def _add_client_options(p, *, job_arg=True):
    """Options shared by the ``submit``/``status``/``result``/``cancel``
    client subcommands."""
    if job_arg:
        p.add_argument("job", metavar="JOB_ID")
    p.add_argument("--server", required=True, metavar="URL",
                   help="serve-server base URL, e.g. "
                        "http://127.0.0.1:8742")
    p.add_argument("--http-timeout", type=float, default=30.0,
                   help="per-request timeout in seconds "
                        "(default: %(default)s)")


def _add_submit_parser(sub):
    p = sub.add_parser(
        "submit",
        help="submit one run (or pipeline, or tune) to a serve server; "
             "identical in-flight submits coalesce onto one execution",
    )
    _add_client_options(p, job_arg=False)
    p.add_argument("--file", default=None, metavar="SPEC_JSON",
                   help="submit this serialized RunSpec JSON file")
    p.add_argument("--pipeline-file", default=None, metavar="P_JSON",
                   help="submit this serialized PipelineSpec JSON file")
    p.add_argument("--tune-file", default=None, metavar="T_JSON",
                   help="submit this serialized TuneSpec JSON file "
                        "(write one with `tune ... --spec-json T_JSON`)")
    p.add_argument("--tenant", default="anon",
                   help="tenant id for quota accounting "
                        "(default: %(default)s)")
    p.add_argument("--priority", type=float, default=0.0,
                   help="base scheduling priority (higher first)")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job is terminal and print its "
                        "result JSON (exit 0 done / 1 otherwise)")
    p.add_argument("--wait-timeout", type=float, default=300.0,
                   help="--wait polling budget in seconds "
                        "(default: %(default)s)")
    # Run-style args as a third spec source: `submit --server URL
    # --variant tampi_dataflow --preset laptop ...` mirrors `run`.
    p.add_argument("--variant", choices=sorted(VARIANTS), default=None)
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="marenostrum4_scaled")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--ranks-per-node", type=int, default=None)
    _add_geometry_options(p)
    _add_fault_options(p)
    _add_pdes_options(p)
    return p


def _add_tune_parser(sub):
    p = sub.add_parser(
        "tune",
        help="explore a declared design space over RunSpec knobs and "
             "rank the candidates by a measured objective",
    )
    # Tune source: a committed preset, a serialized TuneSpec, or a
    # run-style base plus --tune-* axis declarations.
    p.add_argument("--fig4", action="store_true",
                   help="tune the committed Fig 4 problem (4 scaled "
                        "nodes; variant x ranks-per-node)")
    p.add_argument("--quick", action="store_true",
                   help="with --fig4: the reduced-tier geometry")
    p.add_argument("--file", default=None, metavar="T_JSON",
                   help="load this serialized TuneSpec JSON instead of "
                        "building one from options")
    p.add_argument("--tune-variants", nargs="+", default=None,
                   choices=sorted(VARIANTS), metavar="V",
                   help="axis: parallelization variants to explore")
    p.add_argument("--tune-schedulers", nargs="+", default=None,
                   choices=sorted(SCHEDULERS), metavar="S",
                   help="axis: task schedulers to explore")
    p.add_argument("--tune-rpn", nargs="+", type=int, default=None,
                   metavar="N",
                   help="axis: ranks-per-node values (the grid is "
                        "re-fitted per value)")
    p.add_argument("--tune-nx", nargs="+", type=int, default=None,
                   metavar="NX",
                   help="axis: cubic block sizes (sets nx=ny=nz)")
    p.add_argument("--tune-pdes-workers", nargs="+", type=int,
                   default=None, metavar="N",
                   help="axis: PDES worker counts")
    p.add_argument("--tune-comm-tasks", nargs="+", type=int,
                   default=None, metavar="N",
                   help="axis: max_comm_tasks granularity caps")
    # Search knobs.
    p.add_argument("--strategy", choices=sorted(STRATEGIES),
                   default="grid",
                   help="search strategy (default: %(default)s)")
    p.add_argument("--objective", choices=sorted(OBJECTIVES),
                   default="total_time",
                   help="ranking objective (default: %(default)s)")
    p.add_argument("--budget", type=int, default=None,
                   help="max candidate evaluations (default: the whole "
                        "space — grid only; --fig4 uses the preset's "
                        "committed budget)")
    p.add_argument("--seed", type=int, default=None,
                   help="search seed for random/halving (default: 0; "
                        "--fig4 uses the preset's committed seed)")
    p.add_argument("--tiers", nargs="+", type=float, default=(0.25, 1.0),
                   metavar="F",
                   help="halving fidelity tiers as stages_per_ts "
                        "fractions, ascending to 1.0 "
                        "(default: 0.25 1.0)")
    p.add_argument("--eta", type=int, default=2,
                   help="halving reduction factor (default: %(default)s)")
    p.add_argument("--robustness", type=float, default=0.0,
                   metavar="INTENSITY",
                   help="re-score finalists under the canonical noise "
                        "mix at this intensity and re-rank by the noisy "
                        "objective (0 = off)")
    p.add_argument("--top-k", type=int, default=3,
                   help="finalists kept for robustness re-scoring "
                        "(default: %(default)s)")
    p.add_argument("--no-prune", action="store_true",
                   help="disable critical-path/idle-gap pruning of "
                        "dominated ranks-per-node candidates")
    p.add_argument("--name", default="tune",
                   help="tune name used in labels and telemetry "
                        "(default: %(default)s)")
    # Outputs.
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the TuneReport JSON here")
    p.add_argument("--spec-json", default=None, metavar="PATH",
                   help="also write the resolved TuneSpec JSON here "
                        "(submittable via `submit --tune-file`)")
    # Run-style base (ignored with --fig4/--file).
    p.add_argument("--variant", choices=sorted(VARIANTS),
                   default="tampi_dataflow",
                   help="base variant (default: %(default)s)")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="marenostrum4_scaled")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--ranks-per-node", type=int, default=None)
    _add_geometry_options(p)
    _add_fault_options(p)
    _add_pdes_options(p)
    _add_engine_options(p)
    return p


def _add_status_parser(sub):
    p = sub.add_parser(
        "status",
        help="show one job's state on a serve server (omit JOB_ID "
             "for the queue + metrics overview)",
    )
    p.add_argument("job", nargs="?", default=None, metavar="JOB_ID")
    _add_client_options(p, job_arg=False)
    return p


def _add_result_parser(sub):
    p = sub.add_parser(
        "result",
        help="fetch a finished job's result JSON from a serve server "
             "(exit 1 while it is still queued/running)",
    )
    _add_client_options(p)
    p.add_argument("--profile", action="store_true",
                   help="fetch the ProfileReport instead (the spec must "
                        "have been submitted with profile=true)")
    return p


def _add_cancel_parser(sub):
    p = sub.add_parser(
        "cancel",
        help="cancel a queued (immediately) or running (best-effort) "
             "job on a serve server",
    )
    _add_client_options(p)
    return p


def _build_cfg(args, num_ranks):
    objects = (
        single_sphere(args.tsteps)
        if args.input == "single_sphere"
        else four_spheres(args.tsteps)
    )
    return build_config(
        num_ranks,
        tuple(args.root),
        objects,
        nx=args.nx,
        num_vars=args.num_vars,
        num_tsteps=args.tsteps,
        stages_per_ts=args.stages,
        refine_freq=args.refine_freq,
        checksum_freq=args.checksum_freq,
        max_refine_level=args.max_refine_level,
        payload=args.payload,
        comm_vars=args.comm_vars,
        send_faces=args.send_faces,
        separate_buffers=args.separate_buffers,
        max_comm_tasks=args.max_comm_tasks,
        stencil=args.stencil,
        lb_method=args.lb_method,
        uniform_refine=args.uniform_refine,
    )


def _make_engine(args):
    from .exec import ResultCache, RunStatsStore, SweepEngine

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    stats = None if args.no_stats else RunStatsStore(args.stats_file)
    telemetry = None
    if getattr(args, "telemetry", None):
        from .obs.telemetry import TELEMETRY_ENV, TelemetryBus

        telemetry = TelemetryBus(args.telemetry)
        # Exported so PDES worker grandchildren (and any other spawned
        # process) can attach to the same stream; deliberately not a
        # spec field — fingerprints stay identical with telemetry on.
        os.environ[TELEMETRY_ENV] = os.path.abspath(args.telemetry)

    def progress(event):
        if event["event"] in ("ok", "cached", "failed", "blocked", "retry"):
            print(
                f"[{event['index'] + 1}/{event['total']}] "
                f"{event['label']}: {event['status']}"
                f" ({event['wall_time']:.2f}s)",
                file=sys.stderr,
            )

    return SweepEngine(
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        retries=args.retries,
        progress=progress if args.jobs > 1 else None,
        stats=stats,
        telemetry=telemetry,
        drain_timeout=getattr(args, "drain_timeout", 30.0),
    )


def spec_from_args(args, **extra) -> RunSpec:
    """The one canonical :class:`RunSpec` of a run/profile-style namespace.

    Shared by ``run``, ``profile``, and fault-injected runs so every
    entry point resolves geometry, machine, and ranks-per-node the same
    way.  ``extra`` passes command-specific fields (``profile=True``).
    """
    machine = get_preset(args.preset)()
    ranks_per_node = resolve_ranks_per_node(
        args.variant, machine, args.ranks_per_node
    )
    cfg = _build_cfg(args, args.nodes * ranks_per_node)
    return RunSpec(
        config=cfg,
        machine=args.preset,
        variant=args.variant,
        num_nodes=args.nodes,
        ranks_per_node=ranks_per_node,
        scheduler=args.scheduler,
        sched_seed=args.sched_seed,
        check_access=getattr(args, "check_access", False),
        faults=_fault_plan(args),
        pdes_workers=getattr(args, "pdes_workers", 1),
        pdes_partition=getattr(args, "pdes_partition", None),
        **extra,
    )


def cmd_run(args) -> int:
    spec = spec_from_args(args)
    res = run_simulation(spec)
    if args.check_access:
        print("access check:     clean (no undeclared task accesses)")
    print(f"variant:          {res.variant}")
    print(f"machine:          {spec.machine_spec().name}, "
          f"{spec.num_nodes} nodes x {spec.ranks_per_node} ranks")
    print(f"total time:       {res.total_time:.6f} s (simulated)")
    print(f"refinement time:  {res.refine_time:.6f} s")
    print(f"throughput:       {res.gflops:.2f} GFLOPS")
    print(f"final blocks:     {res.num_blocks} "
          f"(imbalance {res.imbalance:.3f})")
    print(f"messages:         {res.comm_stats.messages} "
          f"({res.comm_stats.bytes_sent} bytes)")
    print(f"checksums:        {len(res.checksums)} validated")
    if res.fault_stats is not None:
        fs = res.fault_stats
        print(f"injected faults:  {fs['injected_cpu_seconds']:.6f} s CPU "
              f"({fs['cpu_noise_events']} events, "
              f"{fs['cpu_bursts']} bursts), "
              f"{fs['injected_network_seconds']:.6f} s network "
              f"({fs['messages_delayed']} delayed, "
              f"{fs['messages_lost']} lost)")
    return 0


def cmd_profile(args) -> int:
    import json

    from .obs import ascii_summary, metrics_csv, write_chrome_trace

    res = run_simulation(spec_from_args(args, profile=True))
    report = res.profile
    # Write every requested export before printing: stdout may be a pipe
    # that closes early (e.g. `| head`), and SIGPIPE must not lose files.
    chrome_events = None
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    if args.chrome_trace:
        chrome_events = write_chrome_trace(
            res.profiler, args.chrome_trace, variant=res.variant
        )
    if args.metrics_csv:
        with open(args.metrics_csv, "w") as fh:
            fh.write(metrics_csv(report))
    print(ascii_summary(report, top=args.top), end="")
    if args.json:
        print(f"profile report written: {args.json}")
    if args.chrome_trace:
        print(
            f"chrome trace written:   {args.chrome_trace} "
            f"({chrome_events} events)"
        )
    if args.metrics_csv:
        print(f"metrics CSV written:    {args.metrics_csv}")
    return 0


def cmd_report(args) -> int:
    import json

    from .obs import ProfileReport, compare_reports

    def load(path):
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data.get("profile"), dict):
            data = data["profile"]  # a serialized RunResult
        try:
            return ProfileReport.from_dict(data)
        except KeyError as exc:
            raise SystemExit(
                f"{path}: not a ProfileReport JSON (missing {exc}); "
                "produce one with `miniamr-sim profile --json PATH`"
            ) from None

    a, b = (load(path) for path in args.runs)
    print(compare_reports(a, b), end="")
    return 0


def cmd_top(args) -> int:
    from .obs.live import follow, read_stream, render_top

    if args.follow:
        follow(args.stream, interval=args.interval)
    else:
        print(render_top(read_stream(args.stream)), end="")
    return 0


def cmd_engine_report(args) -> int:
    import json

    from .obs import EngineReport

    report = EngineReport.from_file(args.stream)
    if args.chrome_trace:
        count = report.write_chrome_trace(args.chrome_trace)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.normalized(), fh, indent=2, sort_keys=True)
    print(report.ascii_summary(), end="")
    if args.chrome_trace:
        print(f"engine trace written: {args.chrome_trace} "
              f"({count} events)")
    if args.json:
        print(f"normalized digest written: {args.json}")
    return 0


def cmd_trend(args) -> int:
    from .obs.trend import trend_table

    text, regressions = trend_table(
        args.results_dir,
        baseline_dir=args.baseline_dir,
        rev=args.rev,
        threshold=args.threshold,
        show_all=args.all,
    )
    print(text, end="")
    return 1 if (regressions and args.strict) else 0


def cmd_sweep(args) -> int:
    machine = get_preset(args.preset)()
    specs = []
    for nodes in args.nodes:
        for variant in args.variants:
            rpn = resolve_ranks_per_node(
                variant, machine, args.ranks_per_node
            )
            cfg = _build_cfg(args, nodes * rpn)
            specs.append(RunSpec(
                config=cfg,
                machine=args.preset,
                variant=variant,
                num_nodes=nodes,
                ranks_per_node=rpn,
                scheduler=args.scheduler,
                sched_seed=args.sched_seed,
            ))
    engine = _make_engine(args)
    report = engine.run(specs)
    rows = []
    for outcome in report.outcomes:
        s = outcome.spec
        if outcome.ok:
            r = outcome.result
            rows.append((
                s.variant, s.num_nodes, s.ranks_per_node, outcome.status,
                f"{r.total_time:.4f}", f"{r.refine_time:.4f}",
                f"{r.gflops:.1f}", r.num_blocks,
            ))
        else:
            rows.append((
                s.variant, s.num_nodes, s.ranks_per_node, "FAILED",
                "-", "-", "-", "-",
            ))
    print(format_table(
        ["variant", "nodes", "ranks/node", "status", "total(s)",
         "refine(s)", "GFLOPS", "blocks"],
        rows,
        title=f"sweep on {args.preset} — {report.summary()}",
    ))
    return 1 if report.failed else 0


def cmd_bench(args) -> int:
    engine = _make_engine(args)
    if args.experiment == "table1":
        print(table1(quick=args.quick, engine=engine).text)
    elif args.experiment == "table2":
        print(table2(quick=args.quick, engine=engine).text)
    elif args.experiment == "traces":
        print(trace_runs(quick=args.quick, engine=engine).text)
    else:
        fn = weak_scaling if args.experiment == "weak" else strong_scaling
        kwargs = {"quick": args.quick, "engine": engine}
        if args.nodes:
            kwargs["node_counts"] = tuple(args.nodes)
        if args.pdes_workers > 1:
            kwargs["pdes_workers"] = args.pdes_workers
        result = fn(**kwargs)
        print(result.text)
    return 0


def cmd_faults(args) -> int:
    engine = _make_engine(args)
    result = resilience(
        intensities=tuple(args.intensities),
        variants=tuple(args.variants),
        num_nodes=args.nodes,
        quick=args.quick,
        engine=engine,
        seed=args.seed,
    )
    print(result.text)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(result.to_csv() + "\n")
        print(f"degradation curve written: {args.csv}")
    return 0


def cmd_pipeline(args) -> int:
    import json

    from . import bench  # noqa: F401 — registers the bench.* generators
    from .obs import pipeline_summary
    from .pipeline import JobGraph, PipelineSpec, run_pipeline

    if (args.name is None) == (args.file is None):
        raise ValueError(
            "pass exactly one of a pipeline name or --file PATH"
        )
    if args.file:
        with open(args.file) as fh:
            pipeline = PipelineSpec.from_json(fh.read())
    else:
        pipeline = bench.get_pipeline(args.name, quick=args.quick)
    engine = _make_engine(args)
    if args.show_dag:
        graph = JobGraph.from_pipeline(pipeline)
        print(graph.ascii(
            costs=engine.predict_costs(graph), workers=args.jobs,
        ))
        return 0
    report = run_pipeline(pipeline, engine=engine)
    print(pipeline_summary(report), end="")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.results_dict(), fh, indent=2, sort_keys=True)
        print(f"node results written: {args.json}")
    return 1 if report.sweep.failed else 0


def cmd_verify(args) -> int:
    from dataclasses import replace

    from .exec import SweepEngine
    from .pipeline import JobGraph
    from .verify import (
        DEFAULT_GOLDENS_DIR,
        AccessRaceError,
        GoldenStore,
        default_golden_specs,
        fuzz_sweep,
    )

    engine = SweepEngine(
        jobs=args.jobs, cache=None, timeout=args.timeout,
        retries=args.retries,
    )
    store = GoldenStore(args.goldens_dir or DEFAULT_GOLDENS_DIR)
    specs = default_golden_specs(quick=args.quick)
    problems = []

    # 1. Golden runs (one small config per variant) through the engine.
    names = sorted(specs)
    report = engine.run(
        JobGraph.from_specs([specs[n] for n in names], name="goldens",
                            labels=names)
    )
    results = {}
    for name, outcome in zip(names, report.outcomes):
        if outcome.ok:
            results[name] = outcome.result
        else:
            problems.append(f"{name}: run failed: {outcome.error}")

    if args.update_goldens:
        for name in sorted(results):
            store.save(name, specs[name], results[name])
            print(f"golden updated: {store.path(name)}")
    else:
        for name in sorted(results):
            drift = store.compare(name, specs[name], results[name])
            problems += drift
            status = "DRIFT" if name in store else (
                f"MISSING ({store.path(name).resolve()})")
            print(f"golden {name}: {status if drift else 'ok'}")

    # 2. Schedule-perturbation fuzz on the data-flow run; the MPI-only
    #    result doubles as the cross-variant reference.
    if not args.skip_fuzz and "tampi_dataflow_small" in results:
        fuzz = fuzz_sweep(
            specs["tampi_dataflow_small"],
            seeds=args.seeds,
            engine=engine,
            reference=results.get("mpi_only_small"),
        )
        print(fuzz.summary().splitlines()[0])
        if not fuzz.ok:
            problems += fuzz.mismatches + fuzz.failures

    # 3. Dependency race detector on the declared-dependency variant
    #    (in-process: the witness must observe the actual execution).
    if not args.skip_race:
        try:
            run_simulation(
                replace(specs["tampi_dataflow_small"], check_access=True)
            )
        except AccessRaceError as exc:
            problems.append(f"race detector: {exc}")
            print("race detector: VIOLATIONS")
        else:
            print("race detector: clean")

    if problems:
        print(f"\nverify FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("verify: all checks passed")
    return 0


def cmd_serve(args) -> int:
    import signal

    from .serve import Broker, JobStore, serve_forever

    if args.no_cache:
        raise ValueError(
            "serve needs the result cache: it is how coalesced and "
            "restarted jobs share results (drop --no-cache)"
        )
    engine = _make_engine(args)
    store = JobStore(args.journal_dir)
    broker = Broker(
        engine=engine,
        store=store,
        queue_cap=args.queue_cap,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        aging_rate=args.aging_rate,
    )

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:
        pass  # not on the main thread (tests drive serve_forever directly)
    print(
        f"serving on http://{args.host}:{args.port} "
        f"(journal: {args.journal_dir}, jobs: {args.jobs}, "
        f"queue cap: {args.queue_cap}, "
        f"quota: {args.quota_rate}/s burst {args.quota_burst})",
        file=sys.stderr,
    )
    serve_forever(
        broker, host=args.host, port=args.port, verbose=args.verbose,
    )
    print("serve: drained and stopped", file=sys.stderr)
    return 0


def cmd_tune(args) -> int:
    import json

    from .tune import TuneSpec, run_tune

    sources = sum((
        args.fig4,
        args.file is not None,
        any(values is not None for values in (
            args.tune_variants, args.tune_schedulers, args.tune_rpn,
            args.tune_nx, args.tune_pdes_workers, args.tune_comm_tasks,
        )),
    ))
    if sources != 1:
        raise ValueError(
            "pass exactly one tune source: --fig4, --file T_JSON, or at "
            "least one --tune-* axis over a run-style base"
        )
    if args.file is not None:
        with open(args.file) as fh:
            tune = TuneSpec.from_dict(json.load(fh))
    elif args.fig4:
        from .bench import fig4_tune

        # Only explicit --budget/--seed override the preset's committed
        # values: the default `tune --fig4 --quick` must reproduce the
        # exact spec CI double-runs and diffs.
        kwargs = dict(
            quick=args.quick, robustness=args.robustness,
            strategy=args.strategy,
        )
        if args.budget is not None:
            kwargs["budget"] = args.budget
        if args.seed is not None:
            kwargs["seed"] = args.seed
        tune = fig4_tune(**kwargs)
    else:
        space = {
            axis: tuple(values)
            for axis, values in (
                ("variant", args.tune_variants),
                ("scheduler", args.tune_schedulers),
                ("ranks_per_node", args.tune_rpn),
                ("nx", args.tune_nx),
                ("pdes_workers", args.tune_pdes_workers),
                ("max_comm_tasks", args.tune_comm_tasks),
            )
            if values is not None
        }
        tune = TuneSpec(
            base=spec_from_args(args),
            space=space,
            objective=args.objective,
            strategy=args.strategy,
            budget=0 if args.budget is None else args.budget,
            seed=0 if args.seed is None else args.seed,
            tiers=tuple(args.tiers),
            eta=args.eta,
            robustness=args.robustness,
            fault_seed=args.fault_seed,
            top_k=args.top_k,
            prune=not args.no_prune,
            name=args.name,
        )
    if args.spec_json:
        with open(args.spec_json, "w") as fh:
            json.dump(tune.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    report = run_tune(tune, engine=_make_engine(args))
    # Files before stdout: SIGPIPE on a closed pipe must not lose them.
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    print(report.ascii())
    return 0


def cmd_submit(args) -> int:
    import json

    from .serve import STATE_EXIT_CODES, ServeClient, ServeError

    sources = [
        source for source in (
            args.file, args.pipeline_file, args.tune_file, args.variant,
        )
        if source is not None
    ]
    if len(sources) != 1:
        raise ValueError(
            "pass exactly one spec source: --file SPEC_JSON, "
            "--pipeline-file P_JSON, --tune-file T_JSON, or run-style "
            "--variant ... options"
        )
    if args.file:
        with open(args.file) as fh:
            spec, kind = json.load(fh), "run"
    elif args.pipeline_file:
        with open(args.pipeline_file) as fh:
            spec, kind = json.load(fh), "pipeline"
    elif args.tune_file:
        with open(args.tune_file) as fh:
            spec, kind = json.load(fh), "tune"
    else:
        spec, kind = spec_from_args(args).to_dict(), "run"
    client = ServeClient(args.server, timeout=args.http_timeout)
    try:
        body = client.submit(
            spec, kind=kind, tenant=args.tenant, priority=args.priority,
        )
        job = body["job"]
        print(
            f"job {job['id']}: {job['state']} (mode: {body['mode']}, "
            f"fingerprint {job['fingerprint'][:12]})"
        )
        if not args.wait:
            return 0
        view = client.wait(job["id"], timeout=args.wait_timeout)
        if view["state"] == "done":
            print(json.dumps(
                client.result(job["id"])["result"],
                indent=2, sort_keys=True,
            ))
        else:
            detail = f": {view['error']}" if view.get("error") else ""
            print(
                f"job {job['id']}: {view['state']}{detail}",
                file=sys.stderr,
            )
        return STATE_EXIT_CODES.get(view["state"], 1)
    except ServeError as exc:
        print(f"miniamr-sim: server: {exc}", file=sys.stderr)
        return exc.exit_code


def cmd_status(args) -> int:
    import json

    from .serve import ServeClient, ServeError

    client = ServeClient(args.server, timeout=args.http_timeout)
    try:
        if args.job is not None:
            print(json.dumps(
                client.job(args.job)["job"], indent=2, sort_keys=True,
            ))
            return 0
        queue_view = client.queue()
        metrics = client.metrics()
        print(json.dumps(
            {
                "queue": {
                    key: queue_view[key]
                    for key in ("depth", "cap", "queued", "running")
                },
                "metrics": {
                    key: metrics[key]
                    for key in ("jobs", "executions", "cache", "engine")
                },
            },
            indent=2, sort_keys=True,
        ))
        return 0
    except ServeError as exc:
        print(f"miniamr-sim: server: {exc}", file=sys.stderr)
        return exc.exit_code


def cmd_result(args) -> int:
    import json

    from .serve import ServeClient, ServeError

    client = ServeClient(args.server, timeout=args.http_timeout)
    try:
        if args.profile:
            payload = client.profile(args.job)["profile"]
        else:
            payload = client.result(args.job)["result"]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    except ServeError as exc:
        print(f"miniamr-sim: server: {exc}", file=sys.stderr)
        return exc.exit_code


def cmd_cancel(args) -> int:
    from .serve import ServeClient, ServeError

    client = ServeClient(args.server, timeout=args.http_timeout)
    try:
        job = client.cancel(args.job)["job"]
        print(f"job {job['id']}: {job['state']}")
        return 0
    except ServeError as exc:
        print(f"miniamr-sim: server: {exc}", file=sys.stderr)
        return exc.exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="miniamr-sim",
        description=(
            "Simulated miniAMR: data-flow (TAMPI+OmpSs-2), fork-join, and "
            "MPI-only parallelizations on a modelled cluster"
        ),
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_sweep_parser(sub)
    _add_bench_parser(sub)
    _add_faults_parser(sub)
    _add_pipeline_parser(sub)
    _add_verify_parser(sub)
    _add_profile_parser(sub)
    _add_report_parser(sub)
    _add_top_parser(sub)
    _add_engine_report_parser(sub)
    _add_trend_parser(sub)
    _add_serve_parser(sub)
    _add_tune_parser(sub)
    _add_submit_parser(sub)
    _add_status_parser(sub)
    _add_result_parser(sub)
    _add_cancel_parser(sub)
    args = parser.parse_args(argv)
    commands = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "bench": cmd_bench,
        "faults": cmd_faults,
        "pipeline": cmd_pipeline,
        "verify": cmd_verify,
        "profile": cmd_profile,
        "report": cmd_report,
        "top": cmd_top,
        "engine-report": cmd_engine_report,
        "trend": cmd_trend,
        "serve": cmd_serve,
        "tune": cmd_tune,
        "submit": cmd_submit,
        "status": cmd_status,
        "result": cmd_result,
        "cancel": cmd_cancel,
    }
    from .exec import SweepError

    try:
        return commands[args.command](args)
    except BrokenPipeError:
        # stdout reader went away (e.g. `| head`): exit quietly.  Point
        # stdout at devnull so the interpreter's shutdown flush does not
        # raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except SweepError as exc:
        # Failed runs within an otherwise valid sweep/experiment.
        print(f"miniamr-sim: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as exc:
        # Invalid spec/scheduler/geometry combinations surface as clean
        # diagnostics with a distinct exit code, not raw tracebacks.
        message = exc.args[0] if exc.args else exc
        print(f"miniamr-sim: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
