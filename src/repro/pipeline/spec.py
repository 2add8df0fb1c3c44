"""Frozen, JSON-round-trippable pipeline specifications.

A :class:`PipelineSpec` names a DAG of experiment nodes.  Each node
carries either a concrete :class:`~repro.core.RunSpec` payload or a
*generator* — a registered, parametrized builder invoked when the node's
predecessors have completed, receiving their results so later stages can
ride on earlier measurements (calibrate → sweep).  Edges are explicit
``after=[...]`` lists; the fork-join, diamond, and pipeline dependency
patterns all fall out of that one primitive.

Generators keep the spec serializable: a node stores the builder's
registry *name* plus JSON parameters, never a callable.  A builder is::

    @register_generator("bench.fig4_point")
    def fig4_point(params: dict, deps: dict):
        ...
        return RunSpec(...)         # a run node, or
        return [RunSpec(...), ...]  # a fan-out node, or
        return {"speedup": ...}     # a plain JSON value -> analysis node

``deps`` maps predecessor node name → that node's result
(:class:`~repro.core.RunResult` for run nodes, the children's
:class:`~repro.exec.RunOutcome` list for fan-out nodes, the stored value
for analysis nodes).  A *fan-out*'s children are cached and scheduled
like run nodes; the node completes with their outcomes once all are
terminal, so a failed child is data for successors, never a blocker.
An *analysis* node completes immediately with its value, which must
serialize to JSON (else the node fails), and is cached under a
fingerprint of the builder name, its parameters, and the predecessors'
fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.spec import RunSpec

#: Global generator registry: name → builder(params, deps).
GENERATORS = {}


def register_generator(name: str):
    """Decorator registering a pipeline node builder under ``name``.

    Names are namespaced by convention (``"bench.fig4_point"``) so JSON
    pipeline files stay readable and collisions stay loud.
    """
    def decorator(fn):
        if name in GENERATORS and GENERATORS[name] is not fn:
            raise ValueError(f"generator {name!r} is already registered")
        GENERATORS[name] = fn
        return fn
    return decorator


def get_generator(name: str):
    """Look up a registered builder; raise a helpful error when missing."""
    try:
        return GENERATORS[name]
    except KeyError:
        known = (
            ", ".join(sorted(GENERATORS))
            if GENERATORS
            else "(none — import the module that defines it, "
                 "e.g. repro.bench)"
        )
        raise KeyError(
            f"unknown pipeline generator {name!r}; registered: {known}"
        ) from None


@dataclass(frozen=True)
class PipelineNode:
    """One named node: a run payload or a parametrized generator."""

    name: str
    #: Concrete payload (exactly one of ``run`` / ``generator``).
    run: RunSpec = None
    #: Registered builder name (see :func:`register_generator`).
    generator: str = None
    #: JSON-compatible parameters passed to the builder.
    params: dict = None
    #: Names of the nodes that must complete before this one starts.
    after: tuple = ()

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"node name must be a non-empty str, got "
                             f"{self.name!r}")
        if (self.run is None) == (self.generator is None):
            raise ValueError(
                f"node {self.name!r} must carry exactly one of a RunSpec "
                f"payload or a generator name"
            )
        if self.run is not None and not isinstance(self.run, RunSpec):
            raise TypeError(
                f"node {self.name!r}: run must be a RunSpec, got "
                f"{self.run!r}"
            )
        if self.params is not None and self.run is not None:
            raise ValueError(
                f"node {self.name!r}: params only apply to generator nodes"
            )
        object.__setattr__(self, "after", tuple(self.after))
        for dep in self.after:
            if not isinstance(dep, str):
                raise TypeError(
                    f"node {self.name!r}: after entries must be node "
                    f"names, got {dep!r}"
                )
        if self.name in self.after:
            raise ValueError(f"node {self.name!r} depends on itself")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d = {"name": self.name}
        if self.run is not None:
            d["run"] = self.run.to_dict()
        else:
            d["generator"] = self.generator
            if self.params:
                d["params"] = dict(self.params)
        if self.after:
            d["after"] = list(self.after)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineNode":
        run = data.get("run")
        return cls(
            name=data["name"],
            run=RunSpec.from_dict(run) if run is not None else None,
            generator=data.get("generator"),
            params=data.get("params"),
            after=tuple(data.get("after", ())),
        )


@dataclass(frozen=True)
class PipelineSpec:
    """A named, validated DAG of :class:`PipelineNode`\\ s."""

    name: str
    nodes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        names = [n.name for n in self.nodes]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(
                f"pipeline {self.name!r}: duplicate node names "
                f"{sorted(dupes)}"
            )
        known = set(names)
        for node in self.nodes:
            missing = [d for d in node.after if d not in known]
            if missing:
                raise ValueError(
                    f"pipeline {self.name!r}: node {node.name!r} depends "
                    f"on unknown node(s) {missing}"
                )
        self._check_acyclic()

    def _check_acyclic(self):
        """Kahn's algorithm; raises naming one node on a cycle."""
        indegree = {n.name: len(n.after) for n in self.nodes}
        succs = {n.name: [] for n in self.nodes}
        for node in self.nodes:
            for dep in node.after:
                succs[dep].append(node.name)
        queue = [name for name, deg in indegree.items() if deg == 0]
        seen = 0
        while queue:
            name = queue.pop()
            seen += 1
            for succ in succs[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if seen != len(self.nodes):
            stuck = sorted(
                name for name, deg in indegree.items() if deg > 0
            )
            raise ValueError(
                f"pipeline {self.name!r}: dependency cycle involving "
                f"{stuck}"
            )

    # ------------------------------------------------------------------
    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "pipeline": self.name,
            "nodes": [n.to_dict() for n in self.nodes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineSpec":
        return cls(
            name=data.get("pipeline", data.get("name", "pipeline")),
            nodes=tuple(
                PipelineNode.from_dict(n) for n in data.get("nodes", ())
            ),
        )

    def to_json(self, **kwargs) -> str:
        import json

        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        import json

        return cls.from_dict(json.loads(text))
