"""Paraver-compatible trace export and an ASCII timeline renderer.

The ``.prv`` writer emits the classic Paraver record format (header plus
state records) so traces can be inspected with BSC's tools; the ASCII
renderer produces a terminal rendition of the Fig 1–3 views.  Both read
a :class:`~repro.obs.trace.Tracer`.
"""

from __future__ import annotations

from collections import defaultdict


def _state_events(tracer):
    """Task/MPI events in ``.prv`` record order."""
    return sorted(
        (e for e in tracer.events if e.kind in ("task", "mpi")),
        key=lambda e: (e.t0, e.rank, e.core),
    )


def _category_codes(events) -> dict:
    """``{"kind:phase": state code}`` numbered 1.. by first appearance."""
    codes = {}
    for e in events:
        codes.setdefault(f"{e.kind}:{e.phase}", len(codes) + 1)
    return codes


def write_prv(tracer, path, num_ranks, duration):
    """Write task/MPI events as a Paraver .prv trace file.

    One "application" with ``num_ranks`` tasks, one thread per distinct
    (rank, core) pair.  Times are nanoseconds.  State codes are numbered
    per trace, as listed by :func:`write_pcf` for the same trace.
    """
    events = _state_events(tracer)
    codes = _category_codes(events)
    threads = sorted({(e.rank, e.core) for e in events})
    thread_index = {tc: i + 1 for i, tc in enumerate(threads)}

    ns = 1e9
    lines = []
    header = (
        f"#Paraver (01/01/2026 at 00:00):{int(duration * ns)}"
        f":1({len(threads)}):1:{num_ranks}"
    )
    lines.append(header)
    for e in events:
        thread = thread_index[(e.rank, e.core)]
        code = codes[f"{e.kind}:{e.phase}"]
        # State record: 1:cpu:app:task:thread:t0:t1:state
        lines.append(
            f"1:{thread}:1:{e.rank + 1}:1:{int(e.t0 * ns)}:"
            f"{int(e.t1 * ns)}:{code}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_pcf(tracer, path):
    """Write the category legend (.pcf companion file) of ``tracer``."""
    lines = ["STATES"]
    for name, code in _category_codes(_state_events(tracer)).items():
        lines.append(f"{code}    {name}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


_PHASE_GLYPHS = {
    "stencil": "s",
    "unpack": "u",  # must precede "pack" ("pack" is a substring)
    "pack": "p",
    "intra": "i",
    "send": ">",
    "recv": "<",
    "checksum": "c",
    "split": "S",
    "consolidate": "C",
    "exchange": "x",
    "mpi": "m",
    "omp-for": "o",
}


def _glyph(phase: str) -> str:
    for key, glyph in _PHASE_GLYPHS.items():
        if key in phase:
            return glyph
    return "#"


def render_ascii(tracer, rank_cores, t0, t1, width=100):
    """Render per-(rank, core) timelines as ASCII (a terminal Paraver).

    ``rank_cores`` is a list of (rank, core) rows to draw, top to bottom.
    Each column is a time bucket painted with the glyph of the dominant
    task phase in that bucket ('.' = idle).
    """
    if t1 <= t0:
        raise ValueError("empty window")
    buckets = defaultdict(lambda: defaultdict(float))
    dt = (t1 - t0) / width
    for e in tracer.by_kind("task") + tracer.by_kind("mpi"):
        row = (e.rank, e.core)
        if row not in rank_cores or e.t1 <= t0 or e.t0 >= t1:
            continue
        b0 = max(int((e.t0 - t0) / dt), 0)
        b1 = min(int((e.t1 - t0) / dt), width - 1)
        for b in range(b0, b1 + 1):
            lo = t0 + b * dt
            hi = lo + dt
            covered = max(0.0, min(e.t1, hi) - max(e.t0, lo))
            buckets[(row, b)][_glyph(e.phase)] += covered

    out_lines = []
    for row in rank_cores:
        chars = []
        for b in range(width):
            cell = buckets.get((row, b))
            if not cell:
                chars.append(".")
            else:
                chars.append(max(cell.items(), key=lambda kv: kv[1])[0])
        rank, core = row
        label = f"r{rank:03d}c{core:+03d} "
        out_lines.append(label + "".join(chars))
    return "\n".join(out_lines)


def legend() -> str:
    """Glyph legend for :func:`render_ascii`."""
    pairs = [f"{g}={k}" for k, g in _PHASE_GLYPHS.items()]
    return "legend: " + "  ".join(pairs) + "  .=idle"
