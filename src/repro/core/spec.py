"""Serializable run specification — the single source of truth for one run.

A :class:`RunSpec` bundles everything :func:`~repro.core.driver.run_simulation`
needs into one frozen, JSON-round-trippable value: the
:class:`~repro.amr.config.AmrConfig`, the machine (a preset name or an
explicit :class:`~repro.machine.presets.MachineSpec`), the variant, and all
execution options.  Because it serializes deterministically it can be
shipped to worker processes and *fingerprinted* for the content-addressed
result cache of :mod:`repro.exec`:

    key = sha256(canonical JSON of the fully-resolved spec + package version)

"Fully resolved" means preset names are expanded to their full machine
description, ``cost_overrides`` are folded into the cost spec, and the
default ``ranks_per_node`` is materialized — so two specs that describe the
same run share one cache entry regardless of how they were written.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

from ..amr.config import AmrConfig
from ..amr.objects import ObjectSpec, Shape
from ..faults.plan import FaultPlan
from ..machine.costmodel import CostSpec
from ..machine.network import NetworkSpec
from ..machine.presets import MachineSpec, get_preset
from ..machine.topology import NodeSpec
from ..tasking.runtime import SCHEDULERS

#: The three parallelization variants under study (must match
#: :data:`repro.core.driver.VARIANTS`; asserted there).
VARIANT_NAMES = ("mpi_only", "fork_join", "tampi_dataflow")

#: Ranks per node the paper settles on for the hybrid variants (Table I
#: shows 4 ranks/node as the best configuration on 48-core nodes).
DEFAULT_HYBRID_RPN = 4


def resolve_ranks_per_node(variant, machine, ranks_per_node=None) -> int:
    """Default ranks-per-node policy (the paper's chosen configurations).

    MPI-only fills the node (one rank per core); the hybrids use
    :data:`DEFAULT_HYBRID_RPN`.  Every entry point (driver, CLI, sweep
    engine) resolves through here so the default cannot diverge again.
    """
    if ranks_per_node is not None:
        return ranks_per_node
    if variant == "mpi_only":
        return machine.node.cores_per_node
    return DEFAULT_HYBRID_RPN


# ----------------------------------------------------------------------
# Component (de)serialization
# ----------------------------------------------------------------------
def _fields_dict(obj) -> dict:
    """A flat dataclass's fields, read shallowly.

    ``dataclasses.asdict`` would deep-copy every value; these are
    immutable scalars and tuples, so they are shared instead.
    """
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def config_to_dict(config: AmrConfig) -> dict:
    """An :class:`AmrConfig` as a JSON-compatible dict."""
    d = _fields_dict(config)
    d["objects"] = [
        {
            "shape": int(o.shape),
            "center": list(o.center),
            "size": list(o.size),
            "move": list(o.move),
            "grow": list(o.grow),
            "bounce": bool(o.bounce),
        }
        for o in config.objects
    ]
    return d


def config_from_dict(data: dict) -> AmrConfig:
    d = dict(data)
    d["objects"] = tuple(
        ObjectSpec(
            shape=Shape(int(o["shape"])),
            center=tuple(o["center"]),
            size=tuple(o["size"]),
            move=tuple(o.get("move", (0.0, 0.0, 0.0))),
            grow=tuple(o.get("grow", (0.0, 0.0, 0.0))),
            bounce=bool(o.get("bounce", False)),
        )
        for o in d.get("objects", ())
    )
    return AmrConfig(**d)


def machine_to_dict(spec: MachineSpec) -> dict:
    """A :class:`MachineSpec` as a JSON-compatible dict."""
    return {
        "name": spec.name,
        "node": _fields_dict(spec.node),
        "network": _fields_dict(spec.network),
        "cost": _fields_dict(spec.cost),
    }


def machine_from_dict(data: dict) -> MachineSpec:
    return MachineSpec(
        node=NodeSpec(**data["node"]),
        network=NetworkSpec(**data["network"]),
        cost=CostSpec(**data["cost"]),
        name=data.get("name", "custom"),
    )


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """Everything needed to execute one simulated miniAMR run."""

    #: The miniAMR configuration (rank grid must match the machine).
    config: AmrConfig
    #: Machine: a preset name (see :data:`repro.machine.PRESETS`) or an
    #: explicit :class:`MachineSpec`.
    machine: object = "marenostrum4_scaled"
    variant: str = "tampi_dataflow"
    num_nodes: int = 1
    #: ``None`` = the paper's default (all cores for MPI-only,
    #: :data:`DEFAULT_HYBRID_RPN` for the hybrids).
    ranks_per_node: int = None
    #: Task scheduler for the tasking runtime (one of
    #: :data:`repro.tasking.SCHEDULERS`: "locality", "fifo", or the
    #: seeded schedule-perturbation "fuzz" scheduler).
    scheduler: str = "locality"
    #: Seed of the "fuzz" scheduler's perturbation stream (ignored by the
    #: deterministic schedulers; see :mod:`repro.verify`).
    sched_seed: int = 0
    #: Enable the access-witness race detector: tasks record the handles
    #: they actually touch and the run fails with
    #: :class:`~repro.verify.AccessRaceError` on any touch not covered by
    #: a declared dependency.
    check_access: bool = False
    #: Override the data-flow variant's delayed-checksum optimization.
    delayed_checksum: bool = None
    #: Ablation: force a local join after every stage.
    stage_barrier: bool = False
    #: :class:`~repro.machine.CostSpec` field overrides (for ablations).
    cost_overrides: dict = None
    #: Attach a :class:`~repro.obs.Tracer` — a view over the run's
    #: :class:`~repro.obs.Profiler` records — to the result.
    trace: bool = False
    #: Profile the run: collect a serializable
    #: :class:`~repro.obs.ProfileReport` (metrics, critical path, idle-gap
    #: taxonomy) attached to the result.  Off by default; the default is
    #: omitted from :meth:`to_dict` so fingerprints and goldens of
    #: unprofiled runs are unchanged by this field's existence.
    profile: bool = False
    #: Deterministic fault injection: a :class:`~repro.faults.FaultPlan`
    #: (or ``None`` = clean run).  Omitted from :meth:`to_dict` when
    #: ``None``, and :meth:`resolve` normalizes *inactive* plans to
    #: ``None``, so fault-off fingerprints, cache keys, and goldens are
    #: byte-identical to pre-faults specs.
    faults: FaultPlan = None
    #: Conservative-PDES worker processes (:mod:`repro.simx.parallel`):
    #: partition the simulated ranks across this many OS processes, each
    #: running its own event kernel, synchronized in lookahead windows.
    #: ``1`` (the default, omitted from :meth:`to_dict` so pre-existing
    #: fingerprints/goldens/cache keys are byte-identical) runs the
    #: classic single-process kernel.  Results are bitwise identical
    #: either way — the differential suite in
    #: ``tests/test_pdes_equivalence.py`` enforces it.
    pdes_workers: int = 1
    #: Rank→worker partition policy: ``"node"`` (default when ``None``)
    #: keeps whole nodes on one worker (falling back to a contiguous rank
    #: split when there are fewer nodes than workers) so the lookahead is
    #: the inter-node latency; ``"contiguous"`` splits the rank range
    #: evenly regardless of node boundaries.  Omitted from
    #: :meth:`to_dict` when ``None``.
    pdes_partition: str = None

    def __post_init__(self):
        if not isinstance(self.config, AmrConfig):
            raise TypeError(f"config must be an AmrConfig, got {self.config!r}")
        if not isinstance(self.machine, (str, MachineSpec)):
            raise TypeError(
                "machine must be a preset name or a MachineSpec, got "
                f"{self.machine!r}"
            )
        if self.variant not in VARIANT_NAMES:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from "
                f"{sorted(VARIANT_NAMES)}"
            )
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.ranks_per_node is not None and self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; choose from "
                f"{sorted(SCHEDULERS)}"
            )
        if not isinstance(self.sched_seed, int) or self.sched_seed < 0:
            raise ValueError("sched_seed must be a non-negative int")
        if self.cost_overrides is not None:
            bad = set(self.cost_overrides) - {
                f.name for f in fields(CostSpec)
            }
            if bad:
                raise ValueError(f"unknown cost_overrides: {sorted(bad)}")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan or None, got {self.faults!r}"
            )
        if not isinstance(self.pdes_workers, int) or self.pdes_workers < 1:
            raise ValueError("pdes_workers must be an int >= 1")
        if self.pdes_partition not in (None, "node", "contiguous"):
            raise ValueError(
                f"unknown pdes_partition {self.pdes_partition!r}; choose "
                "'node' or 'contiguous'"
            )

    # ------------------------------------------------------------------
    def machine_spec(self) -> MachineSpec:
        """The machine with preset resolved and cost overrides applied."""
        spec = (
            get_preset(self.machine)()
            if isinstance(self.machine, str)
            else self.machine
        )
        if self.cost_overrides:
            spec = MachineSpec(
                node=spec.node,
                network=spec.network,
                cost=spec.cost.with_overrides(**self.cost_overrides),
                name=spec.name,
            )
        return spec

    def resolve(self) -> "RunSpec":
        """A fully-resolved copy: explicit machine, defaults materialized.

        Idempotent; resolution is what fingerprints and executions use, so
        equivalent specs (preset name vs expanded spec, implicit vs
        explicit default ranks-per-node) behave identically.
        """
        machine = self.machine_spec()
        rpn = resolve_ranks_per_node(
            self.variant, machine, self.ranks_per_node
        )
        return replace(
            self,
            machine=machine,
            ranks_per_node=rpn,
            cost_overrides=None,
            faults=(
                self.faults
                if self.faults is not None and self.faults.is_active()
                else None
            ),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible dict (inverse of :meth:`from_dict`).

        Fields added after the golden store was seeded (``profile``,
        ``faults``, ``pdes_*``) are emitted only at non-default values, so
        the canonical JSON — and therefore every fingerprint and golden
        key — of a pre-existing spec is byte-identical.
        """
        d = {
            "config": config_to_dict(self.config),
            "machine": (
                self.machine
                if isinstance(self.machine, str)
                else machine_to_dict(self.machine)
            ),
            "variant": self.variant,
            "num_nodes": self.num_nodes,
            "ranks_per_node": self.ranks_per_node,
            "scheduler": self.scheduler,
            "sched_seed": self.sched_seed,
            "check_access": self.check_access,
            "delayed_checksum": self.delayed_checksum,
            "stage_barrier": self.stage_barrier,
            "cost_overrides": (
                dict(self.cost_overrides) if self.cost_overrides else None
            ),
            "trace": self.trace,
        }
        if self.profile:
            d["profile"] = True
        if self.faults is not None:
            d["faults"] = self.faults.to_dict()
        if self.pdes_workers != 1:
            d["pdes_workers"] = self.pdes_workers
        if self.pdes_partition is not None:
            d["pdes_partition"] = self.pdes_partition
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Inverse of :meth:`to_dict`.  Keys of retired fields are
        ignored, so spec dicts journaled or cached by older versions
        still load."""
        machine = data["machine"]
        if not isinstance(machine, str):
            machine = machine_from_dict(machine)
        return cls(
            config=config_from_dict(data["config"]),
            machine=machine,
            variant=data.get("variant", "tampi_dataflow"),
            num_nodes=data.get("num_nodes", 1),
            ranks_per_node=data.get("ranks_per_node"),
            scheduler=data.get("scheduler", "locality"),
            sched_seed=data.get("sched_seed", 0),
            check_access=data.get("check_access", False),
            delayed_checksum=data.get("delayed_checksum"),
            stage_barrier=data.get("stage_barrier", False),
            cost_overrides=data.get("cost_overrides"),
            trace=data.get("trace", False),
            profile=data.get("profile", False),
            faults=(
                FaultPlan.from_dict(data["faults"])
                if data.get("faults") is not None
                else None
            ),
            pdes_workers=data.get("pdes_workers", 1),
            pdes_partition=data.get("pdes_partition"),
        )

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Deterministic content key of this run.

        The sha256 of the canonical JSON of the fully-resolved spec plus
        the package version: any change to any field (or to the package)
        produces a new key; equivalent ways of writing the same run
        produce the same one.
        """
        from .. import __version__

        payload = {
            "version": __version__,
            "spec": self.resolve().to_dict(),
        }
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
