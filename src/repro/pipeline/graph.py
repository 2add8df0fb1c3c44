"""The engine-internal job graph: one representation for sweeps and DAGs.

:class:`JobGraph` is what :class:`~repro.exec.SweepEngine` actually
executes.  A flat sweep becomes an edgeless graph; a
:class:`~repro.pipeline.PipelineSpec` becomes a graph whose generator
nodes are built lazily once their predecessors complete.

The scheduling-relevant machinery lives here so it can be exercised (and
dry-run via ``--show-dag``) without touching worker processes:

* **critical-path priorities** — ``priority(n) = cost(n) +
  max(priority(successors))``, computed in reverse topological order.
  The engine orders the ready set by descending priority, so the longest
  remaining chain starts first (the Task Bench observation: scheduling
  quality dominates once task graphs are irregular);
* **list-scheduling simulation** — a deterministic virtual-time replay
  of the DAG on ``workers`` slots under a ready-set policy
  (``"critical_path"`` or ``"fifo"``), used by the dry run to predict
  makespans and by the tests to prove the ordering pays.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from .spec import PipelineSpec, get_generator


@dataclass
class JobNode:
    """One schedulable unit of a :class:`JobGraph`."""

    index: int
    name: str
    label: str
    #: Concrete spec, or ``None`` until the builder runs.
    spec: object = None
    #: Lazy builder ``(params, deps) -> RunSpec | [RunSpec] | JSON value``
    #: (generator nodes only).
    builder: object = None
    #: Registry name of the builder (serializable identity for analysis
    #: fingerprints).
    generator: str = None
    #: JSON parameters of the builder.
    params: dict = field(default_factory=dict)


class JobGraph:
    """Immutable-after-construction DAG of :class:`JobNode`\\ s."""

    def __init__(self, nodes, preds, name="sweep"):
        self.name = name
        self.nodes = list(nodes)
        self.preds = [tuple(p) for p in preds]
        succs = [[] for _ in self.nodes]
        for i, pp in enumerate(self.preds):
            for p in pp:
                succs[p].append(i)
        self.succs = [tuple(s) for s in succs]
        self._topo = None

    def __len__(self):
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(p) for p in self.preds)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_specs(cls, specs, *, name="sweep", labels=None) -> "JobGraph":
        """An edgeless graph of independent runs: a flat sweep.

        ``labels`` default to ``"<variant>@<N>n"``.  Node names must be
        unique (telemetry keys its per-job ledgers by node name), so a
        label shared by several runs is suffixed with the run's index;
        labels stay as given.
        """
        specs = list(specs)
        if labels is None:
            labels = [f"{s.variant}@{s.num_nodes}n" for s in specs]
        elif len(labels) != len(specs):
            raise ValueError("labels must parallel specs")
        counts = Counter(labels)
        nodes = [
            JobNode(
                index=i, label=label, spec=spec,
                name=label if counts[label] == 1 else f"{label}#{i}",
            )
            for i, (label, spec) in enumerate(zip(labels, specs))
        ]
        return cls(nodes, [()] * len(nodes), name=name)

    @classmethod
    def from_pipeline(cls, pipeline: PipelineSpec) -> "JobGraph":
        """Resolve a :class:`PipelineSpec` against the generator registry."""
        index = {n.name: i for i, n in enumerate(pipeline.nodes)}
        nodes, preds = [], []
        for i, pnode in enumerate(pipeline.nodes):
            builder = (
                get_generator(pnode.generator)
                if pnode.generator is not None
                else None
            )
            nodes.append(JobNode(
                index=i,
                name=pnode.name,
                label=f"{pipeline.name}:{pnode.name}",
                spec=pnode.run,
                builder=builder,
                generator=pnode.generator,
                params=dict(pnode.params or {}),
            ))
            preds.append(tuple(index[d] for d in pnode.after))
        return cls(nodes, preds, name=pipeline.name)

    # ------------------------------------------------------------------
    # Orders and priorities
    # ------------------------------------------------------------------
    def topo_order(self) -> list:
        """Node indices, every predecessor before its successors."""
        if self._topo is not None:
            return self._topo
        indegree = [len(p) for p in self.preds]
        heap = [i for i, d in enumerate(indegree) if d == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            i = heapq.heappop(heap)
            order.append(i)
            for s in self.succs[i]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heapq.heappush(heap, s)
        if len(order) != len(self.nodes):
            raise ValueError(f"job graph {self.name!r} contains a cycle")
        self._topo = order
        return order

    def critical_path_priorities(self, costs) -> list:
        """Downward-rank of every node: its longest chain to a sink.

        ``priority[i] = costs[i] + max(priority[succ], default 0)`` —
        the classic HEFT/CP list-scheduling rank.  The critical path of
        the whole graph is ``max(priority)``.
        """
        priority = [0.0] * len(self.nodes)
        for i in reversed(self.topo_order()):
            down = max(
                (priority[s] for s in self.succs[i]), default=0.0
            )
            priority[i] = float(costs[i]) + down
        return priority

    # ------------------------------------------------------------------
    # Virtual-time list scheduling (dry run / policy comparison)
    # ------------------------------------------------------------------
    def simulate_schedule(self, costs, workers=1, policy="critical_path"):
        """Deterministically replay the DAG on ``workers`` slots.

        Ready tasks are started the moment a slot and their predecessors
        allow — no level barriers — in the order given by ``policy``:
        ``"critical_path"`` picks the ready task with the largest
        downward rank, ``"fifo"`` the lowest index (submission order).
        Returns ``(makespan, schedule)`` with ``schedule[i] = (start,
        finish)`` per node.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if policy == "critical_path":
            priority = self.critical_path_priorities(costs)

            def key(i):
                return (-priority[i], i)
        elif policy == "fifo":
            def key(i):
                return i
        else:
            raise ValueError(
                f"unknown policy {policy!r}; choose 'critical_path' or "
                f"'fifo'"
            )
        remaining = [len(p) for p in self.preds]
        ready = [i for i, d in enumerate(remaining) if d == 0]
        running = []  # heap of (finish_time, index)
        schedule = [None] * len(self.nodes)
        now = 0.0
        free = workers
        done = 0
        while done < len(self.nodes):
            ready.sort(key=key)
            while ready and free > 0:
                i = ready.pop(0)
                finish = now + float(costs[i])
                schedule[i] = (now, finish)
                heapq.heappush(running, (finish, i))
                free -= 1
            if not running:
                raise ValueError(
                    f"job graph {self.name!r}: deadlock at t={now} "
                    f"(cycle?)"
                )
            now, i = heapq.heappop(running)
            free += 1
            done += 1
            for s in self.succs[i]:
                remaining[s] -= 1
                if remaining[s] == 0:
                    ready.append(s)
        return now, schedule

    def simulate_makespan(self, costs, workers=1, policy="critical_path"):
        """Just the makespan of :meth:`simulate_schedule`."""
        return self.simulate_schedule(costs, workers, policy)[0]

    # ------------------------------------------------------------------
    # ASCII rendering (``--show-dag``)
    # ------------------------------------------------------------------
    def ascii(self, costs=None, workers=1) -> str:
        """Human-readable DAG listing, one node per line.

        With ``costs``, annotates each node with its predicted cost and
        downward rank, marks the critical path with ``*``, and appends
        predicted makespans under critical-path-first vs FIFO ordering.
        """
        lines = [
            f"pipeline '{self.name}' — {len(self.nodes)} nodes, "
            f"{self.num_edges} edges"
        ]
        priority = None
        if costs is not None:
            priority = self.critical_path_priorities(costs)
            cp_len = max(priority, default=0.0)
            # Upward rank (longest chain from any root *through* a node);
            # a node is on the critical path iff the longest chain through
            # it spans the whole graph.
            up = [0.0] * len(self.nodes)
            for i in self.topo_order():
                up[i] = float(costs[i]) + max(
                    (up[p] for p in self.preds[i]), default=0.0
                )
        depth = [0] * len(self.nodes)
        for i in self.topo_order():
            depth[i] = max(
                (depth[p] + 1 for p in self.preds[i]), default=0
            )
        for i in self.topo_order():
            node = self.nodes[i]
            indent = "  " * depth[i]
            deps = (
                " <- " + ", ".join(
                    self.nodes[p].name for p in self.preds[i]
                )
                if self.preds[i]
                else ""
            )
            kind = "" if node.spec is not None else (
                f"  [generator {node.generator}]"
            )
            note = ""
            if priority is not None:
                through = up[i] + priority[i] - float(costs[i])
                on_cp = " *" if abs(through - cp_len) < 1e-12 else ""
                note = (
                    f"  cost≈{costs[i]:.3g}s rank≈{priority[i]:.3g}s"
                    f"{on_cp}"
                )
            lines.append(f"  {indent}[{i}] {node.name}{deps}{kind}{note}")
        if priority is not None:
            cp = self.simulate_makespan(costs, workers, "critical_path")
            fifo = self.simulate_makespan(costs, workers, "fifo")
            lines.append(
                f"  critical path ≈{cp_len:.3g}s; predicted makespan on "
                f"{workers} worker(s): critical-path-first {cp:.3g}s, "
                f"fifo {fifo:.3g}s"
            )
        return "\n".join(lines)
