"""The performance ledger: end-to-end and per-layer host cost of the simulator.

Run from the repository root::

    python benchmarks/ledger/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

Each workload runs in its own fresh interpreter (``harness.py``).  With
``--trace 0`` (the default) the metrics are the end-to-end ones of
``BENCHMARK.json``; ``setup_s`` is the median over five more fresh
interpreters that only import ``repro`` and build the workload's inputs.
With ``--trace 1`` they are the per-layer ones, and the spans are written
under ``benchmarks/ledger/out/spans/``.

Every metric is printed as ``workload metric value unit``, then the
workload's summary as one JSON line.  ``--out FILE`` appends this run to
FILE for ``compare.py``.  The exit status is non-zero when any op of any
workload failed its correctness check.

A benchmark runner appends ``--workload NAME --seed N --seconds S
--trace 0|1`` to the ``command`` of ``BENCHMARK.json`` and reads the last
line of the output; ``S`` is the file's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from probe import Probe

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent.parent
OUT = LEDGER / "out"
SETUP_RUNS = 5

#: Timed in a fresh interpreter pinned to one CPU: import ``repro`` and
#: build the inputs.  Prints that time as measured.
SETUP_CODE = """
import os, sys, time
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
start = time.perf_counter()
import workloads
workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
"""


def _env(workdir):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(LEDGER)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(workdir)
    return env


def _child(args, env, timeout) -> str:
    """Run a child interpreter and its whole process group to the end."""
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}")
    return out


def measure_setup(name, seed, workdir):
    """Seconds to import ``repro`` and build the inputs, one per fresh
    interpreter: scaled to the reference host by the slowdown of its CPU
    right after it ended (see probe.py), and as measured."""
    cpu = {min(os.sched_getaffinity(0))}
    scaled, measured = [], []
    with Probe() as probe:
        for _ in range(SETUP_RUNS):
            setup = float(_child(
                ["-c", SETUP_CODE, name, str(seed)], _env(workdir), 120,
            ))
            slowdown = statistics.median(probe(cpu) for _ in range(3))
            scaled.append(setup / slowdown)
            measured.append(setup)
    return scaled, measured


def run_workload(name, seed, seconds, trace) -> dict:
    workdir = OUT / f"work-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup, measured = (
            ([], []) if trace else measure_setup(name, seed, workdir)
        )
        out = _child(
            [str(LEDGER / "harness.py"), name, str(seed), str(seconds),
             str(trace), str(workdir),
             str(OUT / "spans" / f"{name}-seed{seed}.json")],
            _env(workdir), timeout=4 * seconds + 60,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    if setup:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["samples"]["setup_s"] = measured
    return result


def declared_metrics(result, declared) -> dict:
    """The declared metrics ``result`` measured, each with its unit."""
    return {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared if m["name"] in result["metrics"]
    }


def exit_code(results) -> int:
    return 0 if all(r["correct"] for r in results) else 1


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def append_run(path, record):
    """Add one run to the result file at ``path`` (atomic replace)."""
    path = Path(path)
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    tmp = path.with_name(path.name + ".part")
    tmp.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "goldens"
    ).is_dir():
        print(f"{ROOT} holds no src/repro and goldens/ to benchmark",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the paper's input")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="measured seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass and per-layer metrics")
    parser.add_argument("--out", help="result file to append this run to")
    args = parser.parse_args(argv)
    declared = bench["per_layer" if args.trace else "end_to_end"]

    results, record = [], {}
    for name in args.workload or names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "errors": [str(exc)], "metrics": {}, "samples": {}}
        metrics = declared_metrics(result, declared)
        if len(metrics) < len(declared) and result["correct"]:
            result["correct"] = False
            result["errors"].append("some declared metrics were not measured")
        results.append(result)
        for error in result["errors"]:
            print(f"{name}: {error}", file=sys.stderr)
        for metric, m in metrics.items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
        print(f"{name} error_rate "
              f"{result['failed'] / result['attempted']!r} fraction")
        if "slowdown" in result["metrics"]:
            print(f"{name} slowdown {result['metrics']['slowdown']!r} x")
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }), flush=True)
        record[name] = dict(result, metrics=metrics)
    if args.out:
        append_run(args.out, {
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "host_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_rev": git_rev(),
            "workloads": record,
        })
    return exit_code(results)


if __name__ == "__main__":
    sys.exit(main())
