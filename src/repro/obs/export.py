"""Exporters for profiled runs: Chrome trace JSON, metrics dumps, and
ASCII summaries.

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the
  trace-event JSON format that Perfetto / ``chrome://tracing`` load
  (``ph: "X"`` complete events, microsecond timestamps, one process per
  rank, one thread per core) — our stand-in for the paper's Paraver
  timelines (Figs 1–3).
* :func:`metrics_json` / :func:`metrics_csv` — the registry dump.
* :func:`ascii_summary` — a terminal-friendly top-N view of one
  :class:`~repro.obs.report.ProfileReport`.
* :func:`compare_reports` — two reports side by side: phase times,
  overlap fraction, critical-path composition, idle-gap taxonomy.
"""

from __future__ import annotations

import json

from .attribution import BLOCKERS, COMM_BLOCKED


def _us(seconds: float) -> float:
    return seconds * 1e6


def chrome_trace_events(profiler, variant="") -> list:
    """The run as a list of Chrome trace-event dicts.

    Tasks become ``X`` (complete) events with ``pid`` = rank and ``tid`` =
    core + 1; MPI calls and inline main-thread work go on ``tid`` 0.
    Metadata events name the processes and threads.
    """
    events = []
    ranks = set(profiler.ranks())
    ranks.update(profiler.inline)
    cores_seen = {}
    for rec in profiler.executed_tasks():
        events.append({
            "name": rec.label,
            "cat": "task",
            "ph": "X",
            "ts": _us(rec.t_start),
            "dur": _us(rec.exec_time),
            "pid": rec.rank,
            "tid": rec.core + 1,
            "args": {"phase": rec.phase, "tid": rec.tid},
        })
        if rec.release_pending > 0:
            events.append({
                "name": f"{rec.label}:release",
                "cat": "tampi",
                "ph": "X",
                "ts": _us(rec.t_end),
                "dur": _us(rec.release_pending),
                "pid": rec.rank,
                "tid": rec.core + 1,
                "args": {"phase": rec.phase},
            })
        cores_seen.setdefault(rec.rank, set()).add(rec.core)
    for call in profiler.mpi_calls:
        events.append({
            "name": call.name,
            "cat": "mpi",
            "ph": "X",
            "ts": _us(call.t0),
            "dur": _us(call.duration),
            "pid": call.rank,
            "tid": 0,
            "args": {},
        })
    for rank, spans in sorted(profiler.inline.items()):
        for t0, t1 in spans:
            events.append({
                "name": "inline",
                "cat": "app",
                "ph": "X",
                "ts": _us(t0),
                "dur": _us(t1 - t0),
                "pid": rank,
                "tid": 0,
                "args": {},
            })

    meta = []
    prefix = f"{variant} " if variant else ""
    for rank in sorted(ranks):
        meta.append({
            "name": "process_name", "ph": "M", "pid": rank, "tid": 0,
            "args": {"name": f"{prefix}rank {rank}"},
        })
        meta.append({
            "name": "thread_name", "ph": "M", "pid": rank, "tid": 0,
            "args": {"name": "main (MPI)"},
        })
        for core in sorted(cores_seen.get(rank, ())):
            meta.append({
                "name": "thread_name", "ph": "M", "pid": rank,
                "tid": core + 1, "args": {"name": f"core {core}"},
            })
    return meta + events


def write_chrome_trace(profiler, path, variant="") -> int:
    """Write Perfetto-loadable trace JSON; returns the event count."""
    events = chrome_trace_events(profiler, variant=variant)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return len(events)


# ----------------------------------------------------------------------
# Metrics dumps
# ----------------------------------------------------------------------
def metrics_json(report) -> str:
    """A report's metrics dump as pretty JSON text."""
    return json.dumps(report.metrics, indent=2, sort_keys=True)


def metrics_csv(report) -> str:
    """A report's metrics dump as CSV text."""
    return report.metrics_registry().to_csv()


# ----------------------------------------------------------------------
# ASCII rendering
# ----------------------------------------------------------------------
def _bar(fraction, width=24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _fmt_seconds(value) -> str:
    return f"{value:10.4f} s"


def ascii_summary(report, top=8) -> str:
    """One report as a terminal summary (top-N phases, idle, CP)."""
    lines = [
        f"== profile: {report.variant} "
        f"({report.num_nodes} nodes x {report.ranks_per_node} ranks, "
        f"{report.cores_per_rank} task cores/rank) ==",
        f"makespan        {_fmt_seconds(report.makespan)}",
        f"executed tasks  {report.tasks:10d}",
        f"p2p messages    {report.messages:10d}",
        f"busy fraction   {report.busy_fraction:10.3f}  "
        f"[{_bar(report.busy_fraction)}]",
        f"overlap (stencil x comm) {report.overlap_fraction:6.3f}",
        f"comm-blocked idle        {report.comm_blocked_fraction:6.3f}",
    ]

    task_time = report.phase_summary.task_time_by_phase
    if task_time:
        lines.append("-- task time by phase (top %d) --" % top)
        total = sum(task_time.values()) or 1.0
        ranked = sorted(task_time.items(), key=lambda kv: -kv[1])[:top]
        for phase, t in ranked:
            lines.append(
                f"  {phase:<18}{_fmt_seconds(t)}  [{_bar(t / total)}]"
            )

    mpi_time = report.phase_summary.mpi_time_by_call
    if mpi_time:
        lines.append("-- MPI time by call (top %d) --" % top)
        total = sum(mpi_time.values()) or 1.0
        ranked = sorted(mpi_time.items(), key=lambda kv: -kv[1])[:top]
        for name, t in ranked:
            lines.append(
                f"  {name:<18}{_fmt_seconds(t)}  [{_bar(t / total)}]"
            )

    cp = report.critical_path
    if cp.get("tasks"):
        lines.append(
            f"-- critical path: {cp['length']:.4f} s over "
            f"{cp['tasks']} tasks --"
        )
        length = cp["length"] or 1.0
        for phase, t in sorted(
            cp.get("composition", {}).items(), key=lambda kv: -kv[1]
        )[:top]:
            lines.append(
                f"  {phase:<18}{_fmt_seconds(t)}  [{_bar(t / length)}]"
            )

    idle = report.idle
    if idle.get("by_blocker"):
        lines.append(
            f"-- idle gaps: {idle['idle_seconds']:.4f} core-s in "
            f"{idle['gap_count']} gaps (max {idle['max_gap']:.4f} s) --"
        )
        core_seconds = idle.get("core_seconds") or 1.0
        for blocker in BLOCKERS:
            t = idle["by_blocker"].get(blocker)
            if t is None:
                continue
            tag = "*" if blocker in COMM_BLOCKED else " "
            lines.append(
                f" {tag}{blocker:<18}{_fmt_seconds(t)}  "
                f"[{_bar(t / core_seconds)}]"
            )
        lines.append("  (* counted as comm-blocked)")

    if report.faults:
        injected = report.faults.get("injected", {})
        observed = report.faults.get("observed", {})
        lines.append("-- injected faults (vs observed idle) --")
        lines.append(
            f"  injected CPU      {injected.get('injected_cpu_seconds', 0.0):.6f} s "
            f"({injected.get('cpu_noise_events', 0)} events, "
            f"{injected.get('cpu_bursts', 0)} bursts)"
        )
        lines.append(
            f"  injected network  "
            f"{injected.get('injected_network_seconds', 0.0):.6f} s "
            f"({injected.get('messages_delayed', 0)} delayed, "
            f"{injected.get('messages_lost', 0)} lost)"
        )
        lines.append(
            f"  observed idle     "
            f"fault_noise {observed.get('fault_noise', 0.0):.6f} s, "
            f"fault_retry {observed.get('fault_retry', 0.0):.6f} s"
        )
    return "\n".join(lines) + "\n"


def pipeline_summary(report) -> str:
    """Per-node scheduling table for a pipeline run.

    Takes a pipeline's :class:`~repro.exec.SweepReport` and renders, per
    node, when it became ready vs when it ran: ``wait`` is time spent
    ready-but-not-started (queueing behind workers or backoff), ``exec``
    the successful attempt alone, ``wall`` the attempt including retries.
    Cached and analysis nodes show ``-`` where no execution happened.
    """
    def cell(value, fmt="{:.4f}"):
        return fmt.format(value) if value is not None else "-"

    name_w = max((len(o.name or o.label) for o in report.outcomes),
                 default=4)
    name_w = max(name_w, 4)
    lines = [
        f"== pipeline: {report.name} ==",
        f"  {'node':<{name_w}}  {'status':<7}  {'wait(s)':>9}  "
        f"{'exec(s)':>9}  {'wall(s)':>9}  {'att':>3}",
    ]
    for out in report.outcomes:
        lines.append(
            f"  {(out.name or out.label):<{name_w}}  {out.status:<7}  "
            f"{cell(out.wait_time):>9}  "
            f"{cell(out.exec_time):>9}  "
            f"{cell(out.wall_time):>9}  {out.attempts:>3}"
        )
    lines.append(f"  {report.summary()}")
    return "\n".join(lines) + "\n"


def compare_reports(a, b, top=6) -> str:
    """Two reports side by side — the Fig 2 vs Fig 3 contrast in text.

    Sectioned keys (phases, MPI calls, idle blockers, critical-path
    composition) are compared over the *union* of both reports' keys;
    a key one side never recorded renders as ``n/a``, not a fabricated
    zero — variants with disjoint phase sets compare cleanly.
    """
    wa = max(len(a.variant), 14)
    wb = max(len(b.variant), 14)

    def row(label, va, vb):
        return f"  {label:<26}{va:>{wa}}  {vb:>{wb}}"

    def frow(label, va, vb, fmt="{:.4f}"):
        return row(label, fmt.format(va), fmt.format(vb))

    def drow(label, da, db, key, fmt="{:.4f}"):
        """A row over two dicts: a side missing ``key`` shows n/a."""
        return row(
            label,
            fmt.format(da[key]) if key in da else "n/a",
            fmt.format(db[key]) if key in db else "n/a",
        )

    lines = [
        "== variant comparison ==",
        row("", a.variant, b.variant),
        frow("makespan (s)", a.makespan, b.makespan),
        frow("busy fraction", a.busy_fraction, b.busy_fraction),
        frow("overlap fraction", a.overlap_fraction, b.overlap_fraction),
        frow(
            "comm-blocked idle",
            a.comm_blocked_fraction,
            b.comm_blocked_fraction,
        ),
        frow(
            "critical path (s)",
            a.critical_path_length,
            b.critical_path_length,
        ),
        row("executed tasks", str(a.tasks), str(b.tasks)),
    ]

    phases = sorted(
        set(a.phase_summary.phase_times) | set(b.phase_summary.phase_times)
    )
    if phases:
        lines.append("-- phase wall time (rank 0, s) --")
        for phase in phases:
            lines.append(drow(
                phase,
                a.phase_summary.phase_times,
                b.phase_summary.phase_times,
                phase,
            ))

    calls = set(a.phase_summary.mpi_time_by_call)
    calls |= set(b.phase_summary.mpi_time_by_call)
    if calls:
        lines.append("-- MPI time by call (top %d, s) --" % top)
        ranked = sorted(
            calls,
            key=lambda c: -(
                a.phase_summary.mpi_time_by_call.get(c, 0.0)
                + b.phase_summary.mpi_time_by_call.get(c, 0.0)
            ),
        )[:top]
        for call in ranked:
            lines.append(drow(
                call,
                a.phase_summary.mpi_time_by_call,
                b.phase_summary.mpi_time_by_call,
                call,
            ))

    lines.append("-- idle by blocker (core-s) --")
    blockers = [
        name for name in BLOCKERS
        if name in a.idle.get("by_blocker", {})
        or name in b.idle.get("by_blocker", {})
    ]
    for blocker in blockers:
        lines.append(drow(
            blocker,
            a.idle.get("by_blocker", {}),
            b.idle.get("by_blocker", {}),
            blocker,
        ))

    cps = sorted(
        set(a.critical_path.get("composition", {}))
        | set(b.critical_path.get("composition", {}))
    )
    if cps:
        lines.append("-- critical-path composition (s) --")
        for phase in cps:
            lines.append(drow(
                phase,
                a.critical_path.get("composition", {}),
                b.critical_path.get("composition", {}),
                phase,
            ))
    return "\n".join(lines) + "\n"
