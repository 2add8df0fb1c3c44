"""Critical-path and idle-gap attribution over the executed task graph.

This module turns a :class:`~repro.obs.profiler.Profiler`'s records into
the two numbers that *explain* a run's makespan:

* :func:`critical_path` — the longest weighted chain through the executed
  dependency DAG, where a task's weight is its execution span plus its
  TAMPI release-pending window.  Because a successor can only start after
  its predecessors complete, chain tasks never overlap in time, so the
  path length is provably ≤ the makespan and ≥ the heaviest single task —
  the invariants the test suite asserts.  The composition (seconds per
  phase, plus the release-pending share) says *what* bounds the run.

* :func:`idle_gaps` — every core-idle interval, classified by what the
  core was blocked on at the time (priority order on overlap ties):

  - ``mpi_wait``: the thread sat inside a blocking MPI completion call
    (``Wait``/``Waitany``/``Waitall``/``Recv`` — Fig 2's windows);
  - ``collective``: the thread sat inside a collective;
  - ``tampi_release``: some finished task was still holding its
    dependencies for an in-flight MPI request (the window TAMPI hides
    from the application but not from the timeline);
  - ``network``: a message involving this rank was in flight;
  - ``dependency``: spawned tasks existed whose predecessors had not
    completed (graph-shape starvation);
  - ``no_ready_work``: nothing outstanding — true starvation;
  - ``fault_retry`` / ``fault_noise``: the gap lines up with delay
    injected by an active :class:`~repro.faults.FaultPlan` (message
    retransmission/jitter/degradation, or CPU noise/straggler slowdown);
    these take priority on coverage ties — the injected fault is the
    root cause of the wait it manifests as.

  A rank's main thread also does untasked work (refinement control, the
  exchange ACK protocol); those inline charges are recorded by the
  profiler and count as busy time on core 0.  Ranks that execute no
  tasks at all (the MPI-only variant) have no core timeline to read gaps
  from; their blocked time is taken directly from the blocking-MPI and
  collective call intervals, which keeps the taxonomy comparable across
  variants.
"""

from __future__ import annotations

from collections import defaultdict

from .profiler import BLOCKING_MPI_CALLS

#: MPI collective trace names (RankComm traces ``kind.capitalize()``).
COLLECTIVE_CALLS = frozenset(("Barrier", "Allreduce"))

#: Idle-gap blocker categories (classification priority order).  The
#: fault classes come first: an injected delay is the *root cause* of any
#: gap it covers as well as an MPI wait does, so on coverage ties the
#: fault wins (strictly larger coverage still wins regardless of order).
#: ``fault_retry`` is time lost to injected message delays (loss
#: retransmissions, jitter, degradation windows); ``fault_noise`` is time
#: lost waiting behind injected CPU noise/bursts/straggler slowdown
#: anywhere in the run.  Both are empty — and unobservable — on clean
#: runs, so the taxonomy of existing reports is unchanged.
BLOCKERS = ("fault_retry", "fault_noise", "mpi_wait", "collective",
            "tampi_release", "network", "dependency", "no_ready_work")

#: Categories counted as "blocked on communication" for cross-variant
#: comparison (collectives are structural and excluded; ``dependency``
#: and ``no_ready_work`` are scheduling, not communication;
#: ``fault_retry`` is injected *communication* delay and counts).
COMM_BLOCKED = ("mpi_wait", "tampi_release", "network", "fault_retry")


def merge_intervals(intervals) -> list:
    """Union of (start, end) intervals as a sorted, disjoint list."""
    merged = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def overlap_length(gap, intervals) -> float:
    """Seconds of ``gap`` covered by a merged interval list."""
    g0, g1 = gap
    covered = 0.0
    for lo, hi in intervals:
        if lo >= g1:
            break
        if hi > g0:
            covered += min(hi, g1) - max(lo, g0)
    return covered


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
def critical_path(profiler) -> dict:
    """The makespan-bounding chain of the executed task DAG.

    Returns ``{"length", "tasks", "composition", "task_labels"}`` where
    ``composition`` maps phase names (plus ``"tampi_release"``) to the
    seconds they contribute along the path.  Empty runs (no executed
    tasks) return a zero-length path.
    """
    profiler.materialize_edges()
    records = profiler.executed_tasks()
    if not records:
        return {
            "length": 0.0, "tasks": 0, "composition": {}, "task_labels": []
        }

    by_tid = {r.tid: r for r in records}
    # Dependencies only ever point from earlier-completing to
    # later-starting tasks, so completion order is a topological order.
    order = sorted(records, key=lambda r: (r.t_complete, r.tid))
    length = {}
    back = {}
    for rec in order:
        best, best_pred = 0.0, None
        for pid in rec.preds:
            plen = length.get(pid)
            if plen is not None and plen > best:
                best, best_pred = plen, pid
        weight = rec.exec_time + rec.release_pending
        length[rec.tid] = best + weight
        back[rec.tid] = best_pred

    end_tid = max(length, key=lambda tid: (length[tid], tid))
    chain = []
    tid = end_tid
    while tid is not None:
        chain.append(by_tid[tid])
        tid = back[tid]
    chain.reverse()

    composition = defaultdict(float)
    for rec in chain:
        composition[rec.phase or rec.label] += rec.exec_time
        pending = rec.release_pending
        if pending > 0:
            composition["tampi_release"] += pending
    return {
        "length": length[end_tid],
        "tasks": len(chain),
        "composition": dict(sorted(composition.items())),
        "task_labels": [rec.label for rec in chain],
    }


# ----------------------------------------------------------------------
# Idle-gap taxonomy
# ----------------------------------------------------------------------
def _evidence_intervals(profiler):
    """Per-rank merged interval lists for each blocker evidence source."""
    tampi = defaultdict(list)
    dep = defaultdict(list)
    for rec in profiler.tasks.values():
        if rec.t_end is not None and rec.release_pending > 0:
            tampi[rec.rank].append((rec.t_end, rec.t_complete))
        # Spawned but not yet ready: some predecessor still running.
        ready = rec.t_ready if rec.t_ready is not None else rec.t_complete
        if ready is not None and ready > rec.t_spawn:
            dep[rec.rank].append((rec.t_spawn, ready))
    net = defaultdict(list)
    for msg in profiler.messages:
        net[msg.src].append((msg.t_post, msg.t_arrive))
        if msg.dst != msg.src:
            net[msg.dst].append((msg.t_post, msg.t_arrive))
    blocking = defaultdict(list)
    coll = defaultdict(list)
    for call in profiler.mpi_calls:
        if call.duration <= 0:
            continue
        if call.name in BLOCKING_MPI_CALLS:
            blocking[call.rank].append((call.t0, call.t1))
        elif call.name in COLLECTIVE_CALLS:
            coll[call.rank].append((call.t0, call.t1))
    # Injected message delays block both endpoints; injected CPU faults
    # are merged *globally* — a gap anywhere in the run that lines up
    # with injected noise (on any rank: a slow sender, a slow sibling
    # core) is root-caused to the fault, not to the wait it manifests as.
    fretry = defaultdict(list)
    for src, dst, t0, t1 in profiler.fault_delay_intervals:
        fretry[src].append((t0, t1))
        if dst != src:
            fretry[dst].append((t0, t1))
    fnoise = merge_intervals(
        [
            span
            for spans in profiler.fault_cpu_intervals.values()
            for span in spans
        ]
    )
    merge = merge_intervals
    return (
        tuple(
            {r: merge(v) for r, v in src.items()}
            for src in (blocking, coll, tampi, net, dep, fretry)
        )
        + (fnoise,)
    )


def _classify(gap, evidence) -> str:
    """The blocker covering most of the gap (priority order on ties)."""
    best, best_cover = "no_ready_work", 0.0
    for name, intervals in evidence:
        cover = overlap_length(gap, intervals)
        if cover > best_cover:
            best, best_cover = name, cover
    return best


def idle_gaps(profiler, cores_by_rank, makespan) -> dict:
    """Classified core-idle time (see module docstring).

    ``cores_by_rank`` maps rank → number of task-executing cores.
    Returns ``{"core_seconds", "busy_seconds", "idle_seconds",
    "busy_fraction", "by_blocker", "gap_count", "max_gap", "per_rank"}``;
    ``per_rank`` is a list (JSON-safe — no integer dict keys) of
    ``{"rank", "cores", "busy", "by_blocker"}`` rows.
    """
    busy_by_core = defaultdict(list)
    ranks_with_tasks = set()
    for rec in profiler.tasks.values():
        if rec.t_start is None:
            continue
        ranks_with_tasks.add(rec.rank)
        busy_by_core[(rec.rank, rec.core)].append((rec.t_start, rec.t_end))

    blocking, coll, tampi, net, dep, fretry, fnoise = _evidence_intervals(
        profiler
    )

    by_blocker = defaultdict(float)
    per_rank = []
    core_seconds = 0.0
    busy_seconds = 0.0
    gap_count = 0
    max_gap = 0.0

    for rank in sorted(cores_by_rank):
        ncores = cores_by_rank[rank]
        row = {"rank": rank, "cores": ncores, "busy": 0.0, "by_blocker": {}}
        core_seconds += ncores * makespan
        if rank in ranks_with_tasks and makespan > 0:
            evidence = (
                ("fault_retry", fretry.get(rank, ())),
                ("fault_noise", fnoise),
                ("mpi_wait", blocking.get(rank, ())),
                ("collective", coll.get(rank, ())),
                ("tampi_release", tampi.get(rank, ())),
                ("network", net.get(rank, ())),
                ("dependency", dep.get(rank, ())),
            )
            inline = profiler.inline.get(rank, ())
            for core in range(ncores):
                spans = list(busy_by_core.get((rank, core), ()))
                if core == 0:
                    # The main thread's untasked work (refinement control,
                    # ACK protocol, pack loops) is busy, not idle.
                    spans.extend(inline)
                merged = merge_intervals(spans)
                busy = sum(hi - lo for lo, hi in merged)
                busy_seconds += busy
                row["busy"] += busy
                cursor = 0.0
                for lo, hi in merged + [(makespan, makespan)]:
                    if lo > cursor:
                        span = lo - cursor
                        blocker = _classify((cursor, lo), evidence)
                        by_blocker[blocker] += span
                        row["by_blocker"][blocker] = (
                            row["by_blocker"].get(blocker, 0.0) + span
                        )
                        gap_count += 1
                        max_gap = max(max_gap, span)
                    cursor = max(cursor, hi)
        else:
            # No task timeline (MPI-only): blocked time is read directly
            # from the rank's blocking / collective MPI call intervals.
            waits = blocking.get(rank, ())
            colls = coll.get(rank, ())
            wait_total = sum(hi - lo for lo, hi in waits)
            coll_total = sum(hi - lo for lo, hi in colls)
            busy = max(ncores * makespan - wait_total - coll_total, 0.0)
            busy_seconds += busy
            row["busy"] = busy
            # The share of blocked waits lined up with injected message
            # delays is root-caused to the fault (so MPI-only runs
            # reconcile against the injected ledger too).
            retry_total = sum(
                overlap_length((lo, hi), fretry.get(rank, ()))
                for lo, hi in waits
            )
            wait_total -= retry_total
            if retry_total > 0:
                by_blocker["fault_retry"] += retry_total
                row["by_blocker"]["fault_retry"] = retry_total
            if wait_total > 0:
                by_blocker["mpi_wait"] += wait_total
                row["by_blocker"]["mpi_wait"] = wait_total
            if waits:
                gap_count += len(waits)
                max_gap = max(max_gap, max(hi - lo for lo, hi in waits))
            if coll_total > 0:
                by_blocker["collective"] += coll_total
                row["by_blocker"]["collective"] = coll_total
                gap_count += len(colls)
                max_gap = max(max_gap, max(hi - lo for lo, hi in colls))
        row["by_blocker"] = dict(sorted(row["by_blocker"].items()))
        per_rank.append(row)

    idle_seconds = max(core_seconds - busy_seconds, 0.0)
    return {
        "core_seconds": core_seconds,
        "busy_seconds": busy_seconds,
        "idle_seconds": idle_seconds,
        "busy_fraction": (
            busy_seconds / core_seconds if core_seconds > 0 else 0.0
        ),
        "by_blocker": dict(sorted(by_blocker.items())),
        "gap_count": gap_count,
        "max_gap": max_gap,
        "per_rank": per_rank,
    }


def comm_blocked_fraction(idle: dict) -> float:
    """Fraction of core-time blocked on communication (cross-variant)."""
    core_seconds = idle.get("core_seconds", 0.0)
    if core_seconds <= 0:
        return 0.0
    blocked = sum(
        idle.get("by_blocker", {}).get(name, 0.0) for name in COMM_BLOCKED
    )
    return blocked / core_seconds


# ----------------------------------------------------------------------
# Cross-phase overlap
# ----------------------------------------------------------------------
#: Communication-side phases for the overlap statistic.
COMM_PHASES = frozenset(
    ("pack", "unpack", "send", "recv", "intra",
     "exchange-pack", "exchange-unpack", "exchange-send", "exchange-recv")
)


def phase_overlap_fraction(profiler, compute_phase="stencil") -> float:
    """Fraction of compute-task time overlapped by communication tasks.

    The quantitative form of Fig 3's "tasks from different phases are
    overlapping": per rank, the union of ``compute_phase`` task intervals
    intersected with the union of communication-phase task intervals,
    summed over ranks and normalized by total compute time.  A variant
    with no tasks (MPI-only) scores 0.0 by construction — its compute
    and communication alternate by definition.
    """
    compute = defaultdict(list)
    comm = defaultdict(list)
    for rec in profiler.tasks.values():
        if rec.t_start is None:
            continue
        if rec.phase == compute_phase:
            compute[rec.rank].append((rec.t_start, rec.t_end))
        elif rec.phase in COMM_PHASES:
            comm[rec.rank].append((rec.t_start, rec.t_end))

    total = 0.0
    overlapped = 0.0
    for rank, spans in compute.items():
        a = merge_intervals(spans)
        b = merge_intervals(comm.get(rank, ()))
        total += sum(hi - lo for lo, hi in a)
        for span in a:
            overlapped += overlap_length(span, b)
    if total <= 0:
        return 0.0
    return overlapped / total
