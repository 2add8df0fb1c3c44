"""Compare two sets of ledger runs, one row per (workload, metric).

    python benchmarks/ledger/compare.py A.json B.json

A is the parent (or the first set), B the change (or the second set);
both are files ``run.py --out`` appended runs to, and ``FILE#K`` selects
the K-th run in FILE alone.  End-to-end metrics come from untraced runs,
per-layer metrics from traced ones; direction, unit and bound come from
``BENCHMARK.json``.  Runs pair up in file order, so record them
alternating parent and change, on the same seeds.

Each row ends with a verdict:

* ``improved``: at least 10 pairs, B better in 9 of 10 of them (ties
  count for neither side), and the medians differ by more than A's
  interquartile range;
* ``regression``: B's median is worse than A's by more than the bound
  (per-layer metrics have none: 9 of 10 pairs worse and the medians
  further apart than A's interquartile range);
* ``unresolved``: a side's interquartile range exceeds the bound, unless
  every run of B beats every run of A; for per-layer metrics, fewer than
  10 pairs; for counts, a side whose count does not repeat exactly;
* ``no change``: otherwise.  Counts (``count``, ``bytes``) must match
  exactly.

The exit status is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
EXACT_UNITS = ("count", "bytes")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _relative_spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a, b, better, bound=None, exact=False) -> str:
    """The verdict on samples ``b`` against samples ``a``; see module doc."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(x, y):  # > 0 when y is better than x
        return sign * (x - y)

    if exact:
        if len(set(a)) > 1 or len(set(b)) > 1:
            return "unresolved"
        if a[0] == b[0]:
            return "no change"
        return "improved" if gain(a[0], b[0]) > 0 else "regression"
    q1, median_a, q3 = quartiles(a)
    median_b = statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(gain(x, y) > 0 for x, y in pairs)
    losses = sum(gain(x, y) < 0 for x, y in pairs)
    apart = abs(median_b - median_a) > q3 - q1
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and apart and gain(
        median_a, median_b
    ) > 0:
        return "improved"
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and apart:
            return "regression"
        return "no change" if enough else "unresolved"
    if max(_relative_spread(a), _relative_spread(b)) > bound and not all(
        gain(x, y) > 0 for x in a for y in b
    ):
        return "unresolved"
    if -gain(median_a, median_b) > bound * abs(median_a):
        return "regression"
    return "no change"


def load_runs(arg) -> list:
    path, _, index = arg.partition("#")
    runs = json.loads(Path(path).read_text())["runs"]
    return [runs[int(index)]] if index else runs


def samples(runs, trace, workload, metric) -> list:
    return [
        run["workloads"][workload]["metrics"][metric]["value"]
        for run in runs
        if run["trace"] == trace and workload in run["workloads"]
    ]


def compare(runs_a, runs_b, bench) -> list:
    """Rows ``(workload, metric, unit, a, b, verdict)`` for both sets."""
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in workloads:
            for m in bench[key]:
                a = samples(runs_a, trace, workload, m["name"])
                b = samples(runs_b, trace, workload, m["name"])
                if not a or not b:
                    continue
                rows.append((workload, m["name"], m["unit"], a, b, verdict(
                    a, b, m["better"], m.get("bound"),
                    exact=m["unit"] in EXACT_UNITS,
                )))
    return rows


def _fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="parent runs: FILE or FILE#K")
    parser.add_argument("b", help="change runs: FILE or FILE#K")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    seeds_a = sorted(r["seed"] for r in runs_a)
    seeds_b = sorted(r["seed"] for r in runs_b)
    if seeds_a != seeds_b:
        print(f"note: seeds differ (A {seeds_a}, B {seeds_b})")
    rows = compare(runs_a, runs_b, bench)
    for workload, metric, unit, a, b, result in rows:
        base = statistics.median(a)
        delta = (statistics.median(b) - base) / abs(base) if base else 0.0
        print(f"{workload:<16} {metric:<28} {unit:<8} A {_fmt(a):<34} "
              f"B {_fmt(b):<34} {delta:+7.1%}  {result}")
    return 1 if any(r[-1] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
