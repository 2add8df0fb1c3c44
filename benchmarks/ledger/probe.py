"""Host-speed yardstick for the ledger's end-to-end times.

The reference host (2 virtual CPUs) shares its cores with other
tenants, and each of its CPUs slows down independently: a fixed loop
pinned to one CPU ran 0.59-1.62x as fast as on the other, changing from
second to second.  A slowed CPU runs every op on it up to 2.7x slower,
its CPU time included.  The yardstick, timed on the CPUs an op runs on,
slows with them, and end-to-end times are reported in seconds of a
quiet CPU of the reference host: ``measured / slowdown``, op by op.

The yardstick has three parts, each timed with the collector off:

* a pure-Python loop of arithmetic and dict stores, which tracks the
  interpreter's own speed;
* a walk along a random ring of 250,000 objects (~12 MB, past the
  per-core L2), which waits on the shared cache and memory as the
  simulator's heap does;
* a small discrete-event loop: a heap of event objects whose handlers
  update a dict and schedule follow-up events, as the simulator's
  kernel does.

The slowdown is the geometric mean of the parts' times over their times
on a quiet CPU.  No one part tracks every workload: the loop alone left
the widest spreads between runs, and each further part narrowed them
(README.md).  A helper process runs the yardstick, so that its objects
add nothing to a workload's memory or to the heap its collector scans.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

#: Seconds each part takes on a quiet CPU of the reference host.
LOOP_S = 0.0275
WALK_S = 0.008
EVENTS_S = 0.007

RING = 250_000
WALK_STEPS = 100_000


def loop_seconds() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    table = {}
    for i in range(50_000):
        table[i & 1023] = (i, str(i))  # churn, not growth: RSS stays flat
    return time.perf_counter() - start


class _Node:
    __slots__ = ("next", "value")


def ring(size=RING):
    """One node of a ring through ``size`` nodes, in a fixed random order."""
    nodes = [_Node() for _ in range(size)]
    order = list(range(size))
    random.Random(1).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
        nodes[here].value = here
    return nodes[order[0]]


def walk_seconds(node) -> float:
    """Seconds a walk of :data:`WALK_STEPS` steps from ``node`` takes now."""
    start = time.perf_counter()
    total = 0
    for _ in range(WALK_STEPS):
        total += node.value
        node = node.next
    return time.perf_counter() - start


class _Event:
    __slots__ = ("time", "rank", "kind", "payload")

    def __init__(self, time, rank, kind, payload):
        self.time, self.rank, self.kind, self.payload = (
            time, rank, kind, payload,
        )


def events_seconds() -> float:
    """Seconds a fixed discrete-event loop takes now: 3,000 sends, each
    answered by a receive 2.5 time units later until time 150."""
    start = time.perf_counter()
    queue, state = [], {}
    for seq in range(3_000):
        event = _Event((seq * 7919) % 1000 / 7.0, seq & 63, "send", [seq])
        heapq.heappush(queue, (event.time, seq, event))
    seq = len(queue)
    while queue:
        now, _, event = heapq.heappop(queue)
        key = (event.rank, event.kind)
        state[key] = state.get(key, 0) + len(event.payload)
        if event.kind == "send" and now < 150:
            reply = _Event(now + 2.5, (event.rank + 1) & 63, "recv",
                           event.payload + [seq])
            heapq.heappush(queue, (reply.time, seq, reply))
            seq += 1
    return time.perf_counter() - start


def slowdown_here(node) -> float:
    """How many times slower than a quiet reference CPU this one runs."""
    return (
        loop_seconds() / LOOP_S
        * walk_seconds(node) / WALK_S
        * events_seconds() / EVENTS_S
    ) ** (1 / 3)


@contextmanager
def pinned(cpus):
    """Run this process on ``cpus`` only, until the block ends."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


class Probe:
    """The yardstick, run on demand by a helper process.

    ``probe(cpus)`` is the slowdown of ``cpus`` now: the helper pins
    itself to each CPU in turn and combines their speeds by the harmonic
    mean, which weighs the CPUs by the work each can do.  Use it as a
    context manager, which stops the helper and waits for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self, cpus) -> float:
        self._proc.stdin.write(" ".join(map(str, sorted(cpus))) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the probe's helper process exited")
        return float(line)

    def close(self):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve():
    """The helper: one line of CPU numbers in, one slowdown out."""
    gc.disable()
    node = ring()
    walk_seconds(node)
    events_seconds()
    for line in sys.stdin:
        speeds = []
        for cpu in map(int, line.split()):
            os.sched_setaffinity(0, {cpu})
            speeds.append(1.0 / slowdown_here(node))
        print(len(speeds) / sum(speeds), flush=True)


if __name__ == "__main__":
    _serve()
