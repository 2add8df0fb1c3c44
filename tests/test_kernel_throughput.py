"""Tier-1 smoke test for simulator throughput.

A tiny deterministic world (the TAMPI golden config) pins the exact
event and task counts — any hot-path change that alters scheduling
shows up here before it reaches the golden gate — and enforces a very
loose events/sec floor so a catastrophic kernel slowdown (e.g. an
accidental re-enable of per-event allocation or cyclic GC churn) fails
fast even on slow CI boxes.  Real host-cost numbers come from the
performance ledger, ``benchmarks/ledger/``.
"""

import dataclasses
import hashlib
import json
import time

from repro.core.driver import execute
from repro.verify import default_golden_specs

#: Exact counts for the tampi_dataflow golden spec.  These are pinned by
#: the byte-identical golden gate already — the assertion here just makes
#: a count drift point straight at the kernel instead of at a golden
#: mismatch three layers up.
EXPECTED_EVENTS = 5667
EXPECTED_TASKS = 2592

#: sha256 of the profiled mpi_only golden run's inline busy intervals,
#: by rank, each rank's in recording order.  A CPU charge records its
#: interval when it starts; this pins that it reads the same as the
#: interval the clock showed when the charge ended.
EXPECTED_INLINE_SHA256 = (
    "7cf6c35acd67b231ae89e83e22ab6e1c90ed64b9c7a53717f22ec168aa50d437"
)

#: Deliberately ~2 orders of magnitude below the slowest observed CI
#: hardware (the reference host retires > 1M events/sec on this world).
EVENTS_PER_SEC_FLOOR = 10_000


def test_tiny_world_event_and_task_counts_are_pinned():
    spec = dataclasses.replace(
        default_golden_specs()["tampi_dataflow_small"], profile=True
    )
    res = execute(spec)
    events = next(
        m["total"] for m in res.profile.metrics
        if m["name"] == "kernel.events"
    )
    tasks = sum(rs.tasks_executed for rs in res.runtime_stats)
    assert events == EXPECTED_EVENTS
    assert tasks == EXPECTED_TASKS


def test_inline_busy_intervals_are_pinned():
    spec = dataclasses.replace(
        default_golden_specs()["mpi_only_small"], profile=True
    )
    inline = execute(spec).profiler.inline
    blob = json.dumps(sorted(inline.items()))
    assert hashlib.sha256(blob.encode()).hexdigest() == EXPECTED_INLINE_SHA256


def test_tiny_world_meets_loose_throughput_floor():
    spec = default_golden_specs()["tampi_dataflow_small"]
    execute(spec)  # warm imports/caches outside the timed window
    t0 = time.process_time()
    execute(spec)
    elapsed = time.process_time() - t0
    assert EXPECTED_EVENTS / elapsed > EVENTS_PER_SEC_FLOOR, elapsed
