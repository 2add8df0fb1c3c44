"""Measure one workload in this interpreter: ops, correctness, metrics.

``run.py`` starts one fresh interpreter per workload running::

    python benchmarks/ledger/harness.py WORKLOAD SEED SECONDS TRACE WORKDIR SPANS

which prints the workload's result as one JSON line.  Tests call
:func:`measure` directly on small inputs.

Every workload is a closed loop: one client issues one op after another,
after one untimed warm-up op.  Every op's output is checked against the
committed reference digest when one is given, else against the first
op's digest.
"""

from __future__ import annotations

import argparse
import json
import os
import pstats
import resource
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from repro.core import RunResult, RunSpec, run_simulation
from repro.exec import ResultCache, run_spec_dict
from repro.verify.goldens import GoldenStore

import workloads
from layers import LayerTrace, ProfiledRunner
from probe import Probe, pinned

LEDGER = Path(__file__).resolve().parent
REFERENCE = LEDGER / "reference" / "seed0.json"


def _usages(children):
    who = [resource.RUSAGE_SELF]
    if children:
        who.append(resource.RUSAGE_CHILDREN)
    return [resource.getrusage(w) for w in who]


def cpu_seconds(children) -> float:
    """CPU seconds of this process, plus its reaped children if asked."""
    return sum(u.ru_utime + u.ru_stime for u in _usages(children))


def peak_rss_mb(children) -> float:
    """Peak resident set of this process, or of it and its children."""
    return max(u.ru_maxrss for u in _usages(children)) / 1024.0


def replay_goldens(root) -> list:
    """Problems found replaying the committed goldens (empty: none)."""
    store = GoldenStore(root)
    if not store.names():
        return [f"no goldens under {root}"]
    problems = []
    for name in store.names():
        spec = RunSpec.from_dict(store.load(name)["spec"])
        problems += store.compare(name, spec, run_simulation(spec))
    return problems


def kernel_events(spec) -> int:
    """Events the simulator processes for ``spec``, from a profiled run."""
    profile = run_simulation(replace(spec, profile=True)).profile
    return int(next(
        m["total"] for m in profile.metrics if m["name"] == "kernel.events"
    ))


def work_counts(results) -> dict:
    runs = [r for r in results if isinstance(r, RunResult)]
    return {
        "tasking.tasks": sum(
            s.tasks_executed for r in runs for s in r.runtime_stats
        ),
        "mpi.messages": sum(r.comm_stats.messages for r in runs),
        "mpi.bytes": sum(r.comm_stats.bytes_sent for r in runs),
    }


def _span(trace, name):
    return nullcontext() if trace is None else trace.span(name)


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------
class SimOps:
    """Ops of a simulation workload: one ``run_simulation`` each."""

    children = False

    def __init__(self, workload, workdir):
        self.spec = workload.spec

    def run(self, trace):
        with _span(trace, "core.run_simulation"):
            return run_simulation(self.spec)

    def check(self, result, sample):
        sample["counts"] = work_counts([result])
        return workloads.digest([result])

    def events(self):
        return kernel_events(self.spec)


class SweepOps:
    """Ops of the sweep: a cold pass on a fresh cache, then warm replays."""

    children = True

    def __init__(self, workload, workdir):
        self.pipeline = workload.pipeline
        self.engine = workload.engine
        self.replays = workload.warm_replays
        self.cache_dir = Path(workdir) / "cache"
        self.child_dir = Path(workdir) / "children"
        self.child_dir.mkdir(parents=True, exist_ok=True)

    def run(self, trace):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        engine = self.engine
        engine.cache = ResultCache(self.cache_dir)
        engine.runner = (
            run_spec_dict if trace is None
            else ProfiledRunner(trace, self.child_dir)
        )
        with _span(trace, "exec.run"):
            cold = engine.run(self.pipeline)
        warm = []
        for _ in range(self.replays):
            start = time.perf_counter()
            with _span(trace, "exec.warm"):
                report = engine.run(self.pipeline)
            warm.append((time.perf_counter() - start, report))
        return cold, warm, engine.cache

    def check(self, output, sample):
        cold, warm, cache = output
        bad = [o for o in cold.outcomes if not o.ok]
        if bad:
            raise RuntimeError(
                f"{len(bad)} node(s) not ok, first {bad[0].name!r}: "
                f"{bad[0].status} {bad[0].error}"
            )
        want = workloads.digest(cold.results)
        for _, report in warm:
            if report.cached != len(report.outcomes):
                raise RuntimeError(
                    f"warm replay {report.cached}/{len(report.outcomes)} "
                    "cached"
                )
            if workloads.digest(report.results) != want:
                raise RuntimeError("warm replay differs from the cold pass")
        exec_time = sum(
            o.exec_time for o in cold.outcomes if o.exec_time is not None
        )
        sample["counts"] = work_counts(cold.results)
        sample["exec_time"] = exec_time
        sample["exec"] = {
            "exec.slot_util": exec_time / (self.engine.jobs * cold.wall_time),
            "exec.wait_s": sum(o.wait_time for o in cold.outcomes),
            "exec.attempts": sum(o.attempts for o in cold.outcomes),
            "exec.retries": sum(
                max(o.attempts - 1, 0) for o in cold.outcomes
            ),
            "exec.cache.hit_ratio": (
                cache.hits / max(cache.hits + cache.misses, 1)
            ),
            "exec.warm_replay_s": statistics.median(t for t, _ in warm),
        }
        return want

    def events(self):
        return sum(kernel_events(n.run) for n in self.pipeline if n.run)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class _Checker:
    """Times ops and checks each one's digest against the expected one.

    An untraced op's ``slowdown`` is the mean of the slowdowns ``probe``
    reads on ``cpus`` just before and just after it; a traced op takes
    none, so that the profile holds the op alone.
    """

    def __init__(self, ops, reference, probe, cpus):
        self.ops = ops
        self.want = reference
        self.probe = probe
        self.cpus = cpus
        self.samples = []
        self._slowdown = None  # read right after the last untraced op

    def op(self, trace=None):
        children = self.ops.children
        if trace is None and self._slowdown is None:
            self._slowdown = self.probe(self.cpus)
        cpu0, start = cpu_seconds(children), time.perf_counter()
        error = output = None
        try:
            output = self.ops.run(trace)
        except Exception:
            error = traceback.format_exc()
        sample = {
            "run_s": time.perf_counter() - start,
            "cpu_s": cpu_seconds(children) - cpu0,
        }
        if trace is None:
            before, self._slowdown = self._slowdown, self.probe(self.cpus)
            sample["slowdown"] = (before + self._slowdown) / 2
        else:
            self._slowdown = None
        if error is None:
            try:
                got = self.ops.check(output, sample)
            except Exception:
                error = traceback.format_exc()
            else:
                if self.want is None:
                    self.want = got
                elif got != self.want:
                    error = f"digest {got} != expected {self.want}"
        sample["error"] = error
        self.samples.append(sample)
        return sample

    def loop(self, seconds, trace=None, after=None):
        """Ops back to back until the next one would overrun ``seconds``.

        Traced ops are recorded by ``trace``, and ``after(op, sample)``
        runs after each one, outside its timing.
        """
        taken, start = [], time.perf_counter()
        while True:
            if trace is None:
                sample = self.op()
            else:
                op = len(self.samples)
                with trace.recording(op):
                    sample = self.op(trace)
                after(op, sample)
            taken.append(sample)
            if time.perf_counter() - start + sample["run_s"] > seconds:
                return taken


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _scaled_median(samples, key):
    """Median of ``key`` over ops, each in seconds of the reference host."""
    return statistics.median(s[key] / s["slowdown"] for s in samples)


def measure(workload, *, seconds, traced=False, reference=None,
            goldens=None, workdir, spans=None) -> dict:
    """Measure ``workload`` for about ``seconds`` seconds.

    Untraced, the metrics are the end-to-end ones, each op's times scaled
    to the reference host by the slowdown of its CPUs (see :mod:`probe`);
    the samples keep the times as measured.  A workload without engine
    workers runs pinned to one CPU, so that each op shares its CPU with
    its probe.
    Traced, half the time runs untraced ops (the base of
    ``trace.overhead_frac``), half runs traced ones, and the metrics are
    the per-layer ones; ``spans`` names the file the spans are written
    to.  ``reference`` is the digest every op must produce; ``goldens`` a
    directory of goldens replayed first.
    """
    problems = replay_goldens(goldens) if goldens is not None else []
    kind = SweepOps if workload.pipeline is not None else SimOps
    ops = kind(workload, workdir)
    cpus = os.sched_getaffinity(0)
    if not ops.children:
        cpus = {min(cpus)}
    with Probe() as probe, pinned(cpus):
        checker = _Checker(ops, reference, probe, cpus)
        checker.op()  # warm-up
        untraced = checker.loop(seconds / 2 if traced else seconds)
        if traced:
            metrics, trace = _layer_metrics(
                ops, checker, untraced, seconds / 2
            )
        else:
            metrics = {
                "run_s": _scaled_median(untraced, "run_s"),
                "cpu_s": _scaled_median(untraced, "cpu_s"),
                "peak_rss_mb": peak_rss_mb(ops.children),
                "slowdown": _median(untraced, "slowdown"),
            }
    if traced and spans is not None:
        Path(spans).parent.mkdir(parents=True, exist_ok=True)
        Path(spans).write_text(json.dumps(trace.spans))
    failed = [s["error"] for s in checker.samples if s["error"]]
    return {
        "workload": workload.name,
        "fingerprint": workload.fingerprint(),
        "digest": checker.want,
        "correct": not problems and not failed,
        "attempted": len(checker.samples),
        "failed": len(failed),
        "errors": (problems + failed)[:5],
        "metrics": metrics,
        "samples": {
            key: [s[key] for s in untraced]
            for key in ("run_s", "cpu_s", "slowdown")
        },
    }


def _layer_metrics(ops, checker, untraced, seconds):
    """Per-layer metrics from traced ops, and the trace that recorded them."""
    events = ops.events()
    trace = LayerTrace()
    per_op = []

    def after(op, sample):
        workers = None
        if ops.children:
            workers = trace.collect_children(ops.child_dir)
        metrics = trace.op_metrics(op, pstats.Stats(trace.profile), workers)
        if "exec_time" in sample:
            metrics["exec.useful_ratio"] = (
                metrics["core.run_simulation_s"] / sample["exec_time"]
            )
        per_op.append(metrics)

    traced = checker.loop(seconds, trace=trace, after=after)
    # median_low: each value is one op's, so counts stay whole numbers.
    layer = {
        k: statistics.median_low(m[k] for m in per_op if k in m)
        for k in per_op[0]
    }
    out = dict(layer)
    del out["core.run_simulation_s"]
    # Work counts come from the last op that passed its check; without
    # one they are left out, and the run is incorrect anyway.
    counts = next(
        (s["counts"] for s in reversed(traced) if not s["error"]), None
    )
    if counts is not None:
        tasks = counts["tasking.tasks"]
        out.update(counts)
        out["tasking.host_us_per_task"] = (
            layer["tasking.self_s"] / tasks * 1e6 if tasks else 0.0
        )
    out.update({
        "simx.events": events,
        "simx.host_us_per_event": (
            layer["simx.self_s"] / events * 1e6 if events else 0.0
        ),
        "exec.useful_ratio": layer.get("exec.useful_ratio", 0.0),
        "trace.overhead_frac": (
            _median(traced, "run_s") / _median(untraced, "run_s") - 1.0
        ),
    })
    exec_samples = [s["exec"] for s in untraced if "exec" in s]
    for name in ("exec.slot_util", "exec.wait_s", "exec.attempts",
                 "exec.retries", "exec.cache.hit_ratio",
                 "exec.warm_replay_s"):
        out[name] = (
            statistics.median_low(e[name] for e in exec_samples)
            if exec_samples else 0
        )
    return out, trace


def reference_digest(name, seed, path=REFERENCE):
    """The digest every op of ``name`` must produce at ``seed``: the
    committed one at seed 0 (a workload without one is an error), else
    ``None``, which makes the first op's digest the expected one."""
    if seed != 0:
        return None
    return json.loads(Path(path).read_text())[name]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("workdir")
    parser.add_argument("spans")
    args = parser.parse_args(argv)
    result = measure(
        workloads.build(args.workload, args.seed),
        seconds=args.seconds,
        traced=bool(args.trace),
        reference=reference_digest(args.workload, args.seed),
        goldens=LEDGER.parent.parent / "goldens",
        workdir=args.workdir,
        spans=args.spans,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
