"""Perf-trend analytics over the committed ``BENCH_*.json`` history.

``benchmarks/`` records one JSON document per host benchmark in
``benchmarks/results/BENCH_<name>.json`` and commits it, so git holds
the metric history.  Every document has one layout::

    {"host_cores": N, "config": {...},
     "metrics": {"<name>": {"value": x, "unit": "...",
                            "better": "lower" | "higher"}}}

This module diffs the ``metrics`` maps of the working-tree documents by
name against a baseline — the committed ``HEAD`` version by default, or
any directory of the same files — and flags a change beyond the
threshold as a regression or improvement in the metric's declared
``better`` direction.  ``config`` holds settings and is never compared.
A document that does not follow the layout raises ``ValueError``.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

#: Relative change below which a delta is noise, not a trend.
DEFAULT_THRESHOLD = 0.10


def bench_metrics(doc, source) -> dict:
    """The validated ``metrics`` map of a benchmark document."""
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not isinstance(metrics, dict):
        raise ValueError(f"{source}: no 'metrics' map")
    for name, m in metrics.items():
        if not (
            isinstance(m, dict) and "unit" in m
            and m.get("better") in ("lower", "higher")
            and isinstance(m.get("value"), (int, float))
            and not isinstance(m["value"], bool)
        ):
            raise ValueError(
                f"{source}: metric {name!r} needs a numeric 'value', a "
                "'unit' and 'better': 'lower' | 'higher'"
            )
    return metrics


def load_committed(path, rev="HEAD"):
    """The committed version of ``path`` (repo-relative ok), or ``None``."""
    path = Path(path)
    try:
        root = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=path.parent if path.parent.is_dir() else ".",
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        rel = path.resolve().relative_to(Path(root))
        out = subprocess.run(
            ["git", "show", f"{rev}:{rel.as_posix()}"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out)
    except (subprocess.CalledProcessError, OSError, ValueError,
            FileNotFoundError):
        return None


def bench_files(results_dir) -> list:
    return sorted(Path(results_dir).glob("BENCH_*.json"))


def diff_metrics(baseline: dict, current: dict,
                 threshold=DEFAULT_THRESHOLD) -> list:
    """Per-metric deltas between two ``metrics`` maps.

    Returns rows ``(name, unit, base, cur, rel_delta, verdict)`` over
    the name union; a missing side reads as ``None`` with verdict
    ``new``/``gone``.  ``verdict`` is ``regression`` / ``improvement``
    when the relative change exceeds ``threshold`` against the metric's
    declared ``better`` direction, else ``ok``.
    """
    rows = []
    for name in sorted(set(baseline) | set(current)):
        old, m = baseline.get(name), current.get(name)
        base = old["value"] if old else None
        cur = m["value"] if m else None
        if old is None or m is None:
            verdict = "new" if old is None else "gone"
            rows.append((name, (m or old)["unit"], base, cur, None, verdict))
            continue
        if base == 0:
            rel = 0.0 if cur == 0 else float("inf")
        else:
            rel = (cur - base) / abs(base)
        verdict = "ok"
        if abs(rel) > threshold:
            worse = rel > 0 if m["better"] == "lower" else rel < 0
            verdict = "regression" if worse else "improvement"
        rows.append((name, m["unit"], base, cur, rel, verdict))
    return rows


def trend_table(results_dir, *, baseline_dir=None, rev="HEAD",
                threshold=DEFAULT_THRESHOLD, show_all=False):
    """(report_text, regression_count) for a benchmark results directory.

    ``baseline_dir`` compares against another directory of BENCH files;
    otherwise the committed ``rev`` version of each file is the
    baseline (files without history are reported as all-new).
    """

    def fmt(value):
        if value is None:
            return "n/a"
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"

    lines = []
    regressions = 0
    if baseline_dir is not None:
        baseline_dir = Path(baseline_dir)
        # A missing or empty baseline directory is an invalid-argument
        # error (CLI exit 2), not a quiet "everything is new" pass: a
        # typo'd --baseline-dir must never mask a regression.
        if not baseline_dir.is_dir():
            raise ValueError(
                f"--baseline-dir {baseline_dir} is not a directory"
            )
        if not bench_files(baseline_dir):
            raise ValueError(
                f"--baseline-dir {baseline_dir} has no BENCH_*.json files"
            )
    files = bench_files(results_dir)
    if not files:
        return f"no BENCH_*.json files under {results_dir}\n", 0
    for path in files:
        current_doc = json.loads(path.read_text(encoding="utf-8"))
        if baseline_dir is not None:
            base_path = baseline_dir / path.name
            baseline_doc = (
                json.loads(base_path.read_text(encoding="utf-8"))
                if base_path.is_file() else None
            )
        else:
            baseline_doc = load_committed(path, rev=rev)
        current = bench_metrics(current_doc, path)
        baseline = (
            bench_metrics(baseline_doc, f"baseline {path.name}")
            if baseline_doc is not None else {}
        )
        rows = diff_metrics(baseline, current, threshold=threshold)
        flagged = [r for r in rows if r[5] in ("regression", "improvement")]
        regressions += sum(1 for r in rows if r[5] == "regression")
        lines.append(f"== {path.name} ==")
        if baseline_doc is None:
            lines.append("  (no baseline: all metrics new)")
            continue
        shown = rows if show_all else flagged
        if not shown:
            lines.append(
                f"  {len(rows)} metric(s), no change beyond "
                f"{threshold:.0%}"
            )
        for name, unit, base, cur, rel, verdict in shown:
            delta = "n/a" if rel is None else f"{rel:+.1%}"
            mark = {"regression": "!!", "improvement": "++"}.get(
                verdict, "  "
            )
            lines.append(
                f"  {mark} {name:<44} {fmt(base):>12} -> "
                f"{fmt(cur):>12} {unit:<8}  {delta:>8}  {verdict}"
            )
    lines.append(
        f"-- {regressions} regression(s) beyond {threshold:.0%} --"
    )
    return "\n".join(lines) + "\n", regressions
