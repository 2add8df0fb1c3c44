"""Per-layer host cost of traced ops, recorded from the benchmark's files.

Nothing under ``src/`` is instrumented.  Three recorders run while an op
is traced:

* ``cProfile``: self time and calls of every function, each bucketed by
  the ``repro`` subpackage of the file it lives in (C functions form the
  ``builtins`` bucket);
* ``gc.callbacks``: collections, objects collected and seconds spent;
* wrappers around public layer entry points (``Environment.run``,
  ``ResultCache.get_entry``/``put``/``put_value``), each call a span.

A span is ``{name, start, end, parent, op}``: ``parent`` is the index of
the enclosing span in :attr:`LayerTrace.spans`, ``start``/``end`` are
``time.perf_counter()`` seconds.  Spans stay in memory until the
benchmark writes them out at the end.

Sweep leaves run in forked engine workers.  :class:`ProfiledRunner`
records them there with the recorders the fork inherited and leaves
spans, counters and profile in files that
:meth:`LayerTrace.collect_children` merges into the parent.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

import repro
from repro.exec import ResultCache, run_spec_dict
from repro.simx import Environment

#: The layers host time is split across: ``repro`` subpackages, plus
#: ``builtins`` for functions implemented in C.
LAYERS = (
    "simx", "tasking", "tampi", "mpi", "core", "amr", "machine", "exec",
    "pipeline", "builtins",
)

#: Counters the GC callback and the cache wrappers keep per traced op.
COUNTERS = {
    "gc.s": 0.0, "gc.collections": 0, "gc.collected": 0,
    "exec.cache.gets": 0, "exec.cache.get_s": 0.0,
    "exec.cache.puts": 0, "exec.cache.put_s": 0.0,
}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename):
    """The layer a function's file belongs to, or ``None``."""
    if filename == "~":
        return "builtins"
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR):
        return None
    head = path[len(_REPRO_DIR):].split(os.sep)[0]
    return head if head in LAYERS else None


def bucket(stats) -> dict:
    """``<layer>.self_s``, ``<layer>.calls`` and dependency registrations.

    ``stats`` is a :class:`pstats.Stats`.
    """
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    out["tasking.deps_register_calls"] = 0
    for (filename, _line, func), (_cc, calls, self_s, _cum, _callers) in (
        stats.stats.items()
    ):
        layer = layer_of(filename)
        if layer is None:
            continue
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += calls
        if (layer, func) == ("tasking", "register") and filename.endswith(
            "deps.py"
        ):
            out["tasking.deps_register_calls"] += calls
    return out


class LayerTrace:
    """Spans, counters and profiles of the traced ops of one workload."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.counters = dict(COUNTERS)
        self.profile = None
        self._open = []
        self._patches = []
        self._gc_start = None

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name):
        record = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._open[-1] if self._open else None, "op": self.op,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _on_gc(self, phase, info):
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        self.spans.append({
            "name": "gc", "start": self._gc_start, "end": now,
            "parent": self._open[-1] if self._open else None, "op": self.op,
        })
        self.counters["gc.s"] += now - self._gc_start
        self.counters["gc.collections"] += 1
        self.counters["gc.collected"] += info["collected"]

    def _wrap(self, owner, attr, name, counted=False):
        """Make every call of ``owner.attr`` a span named ``name``.

        ``counted`` also adds the call to the ``<name>s`` and ``<name>_s``
        counters.
        """
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counted:
                self.counters[f"{name}s"] += 1
                self.counters[f"{name}_s"] += record["end"] - record["start"]
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # ------------------------------------------------------------------
    @contextmanager
    def recording(self, op):
        """Trace op number ``op`` into spans, counters and a new profile."""
        self.op = op
        self.counters = dict(COUNTERS)
        gc.callbacks.append(self._on_gc)
        self._wrap(Environment, "run", "simx.run")
        self._wrap(ResultCache, "get_entry", "exec.cache.get", counted=True)
        self._wrap(ResultCache, "put", "exec.cache.put", counted=True)
        self._wrap(ResultCache, "put_value", "exec.cache.put", counted=True)
        self.profile = cProfile.Profile()
        try:
            with self.span("op"):
                self.profile.enable()
                try:
                    yield self
                finally:
                    self.profile.disable()
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()
            gc.callbacks.remove(self._on_gc)
            self.op = None

    def collect_children(self, child_dir):
        """What traced workers left in ``child_dir``: their spans join
        :attr:`spans`; their merged profile (a :class:`pstats.Stats`) and
        summed counters are returned."""
        stats, counters = pstats.Stats(), dict(COUNTERS)
        for record in sorted(Path(child_dir).glob("*.json")):
            data = json.loads(record.read_text())
            mark, offset = data["mark"], len(self.spans)
            for span in data["spans"]:
                parent = span["parent"]
                if parent is not None and parent >= mark:
                    parent += offset - mark
                self.spans.append(dict(span, parent=parent))
            for name, value in data["counters"].items():
                counters[name] += value
            profile = record.with_suffix(".prof")
            stats.add(str(profile))
            profile.unlink()
            record.unlink()
        return stats, counters

    def op_metrics(self, op, stats, workers=None) -> dict:
        """Layer metrics of traced op ``op``; ``stats`` is its profile.

        ``workers`` is what :meth:`collect_children` returned for an op
        whose runs went to engine workers.  Self times then add the
        workers' to this process's.  Calls and GC come from the workers
        alone: this process polls them every 5 ms, so its call and
        collection counts depend on timing, while the workers' repeat.
        """
        def duration(span):
            return span["end"] - span["start"]

        spans = [(i, s) for i, s in enumerate(self.spans) if s["op"] == op]
        runs = {i for i, s in spans if s["name"] == "core.run_simulation"}
        run_s = sum(duration(self.spans[i]) for i in runs)
        sim_s = sum(duration(s) for _, s in spans if s["name"] == "simx.run")
        gc_in_runs = sum(
            duration(s) for _, s in spans
            if s["name"] == "gc" and s["parent"] in runs
        )
        out = bucket(stats)
        out.update(self.counters)
        if workers is not None:
            worker_stats, worker_counters = workers
            for name, value in bucket(worker_stats).items():
                out[name] = out[name] + value if name.endswith("_s") else value
            for name in ("gc.s", "gc.collections", "gc.collected"):
                out[name] = worker_counters[name]
        out["core.run_simulation_s"] = run_s
        out["simx.run_s"] = sim_s
        out["core.build_s"] = run_s - sim_s - gc_in_runs
        return out


class ProfiledRunner:
    """Engine runner for traced sweep ops: records the leaf in its worker.

    The worker is a fork of the traced parent, so it starts with the
    parent's recorders attached.  It stops the inherited profile,
    profiles the run afresh and leaves the new spans, its counters and
    the profile in ``child_dir``.

    The worker first freezes the heap it inherited and starts the
    collector from empty generations.  Its collections then see the
    leaf's objects alone and repeat exactly, whatever the parent held
    when it forked.
    """

    def __init__(self, trace, child_dir):
        self.trace = trace
        self.child_dir = str(child_dir)

    def __call__(self, spec_dict):
        trace = self.trace
        trace.profile.disable()
        gc.freeze()
        gc.collect()
        trace.counters = dict(COUNTERS)
        mark = len(trace.spans)
        profile = cProfile.Profile()
        profile.enable()
        try:
            with trace.span("core.run_simulation"):
                return run_spec_dict(spec_dict)
        finally:
            profile.disable()
            base = os.path.join(self.child_dir, str(os.getpid()))
            profile.dump_stats(base + ".prof")
            with open(base + ".json", "w", encoding="utf-8") as fh:
                json.dump({
                    "mark": mark, "spans": trace.spans[mark:],
                    "counters": trace.counters,
                }, fh)
