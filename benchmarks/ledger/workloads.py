"""Seeded inputs of the performance ledger's workloads.

Every workload is built from a seed and nothing else, and the program only
ever receives the generated :class:`~repro.core.RunSpec` or
:class:`~repro.pipeline.PipelineSpec`.  Seed 0 is the paper's input: the
four-spheres problem of Fig 4 exactly as :func:`repro.bench.inputs.four_spheres`
places it.  Any other seed shifts each sphere centre in y and z, or, for
the sweep, redraws the leaves' order and scheduler seeds.

Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

from repro.bench.experiments import _scaling_spec
from repro.bench.inputs import weak_root_dims
from repro.core import RunResult, RunSpec
from repro.exec import SweepEngine
from repro.pipeline import PipelineNode, PipelineSpec
from repro.verify.goldens import expected_from_result

#: Largest seeded shift of a sphere centre in y and z.  At 0.02 the
#: refined block count moved by ~4% and the message count by ~10% between
#: seeds, and at 0.005 a 32-node op still cost ~5% more on one seed than
#: on another: more than the end-to-end spread can absorb.  At 0.002 the
#: 4-node worlds' task count moves by at most 1% and the 16-node mesh is
#: the same for every seed.
CENTRE_SHIFT = 0.002

#: The sweep's leaves cycle through the variants, so every seed runs the
#: same mix (their host costs differ ~6x) and only order and seeds change.
SWEEP_VARIANTS = ("mpi_only", "fork_join", "tampi_dataflow")

#: Leaves of the sweep: four of each variant.
SWEEP_LEAVES = 12


@dataclasses.dataclass
class Workload:
    """One workload's inputs: a single run, or a pipeline and its engine."""

    name: str
    spec: RunSpec = None
    pipeline: PipelineSpec = None
    engine: SweepEngine = None
    #: Warm replays of the pipeline after each cold pass.
    warm_replays: int = 0

    def fingerprint(self) -> str:
        if self.spec is not None:
            return self.spec.fingerprint()
        return hashlib.sha256(self.pipeline.to_json().encode()).hexdigest()


def fig4_spec(variant, nodes, tsteps, stages, seed) -> RunSpec:
    """A point of the Fig 4 weak-scaling ladder, sphere centres seeded.

    Built exactly as :func:`repro.bench.experiments.weak_scaling` builds
    its points: the root grid doubles round-robin with the node count and
    the variant runs at its scaled ranks per node.
    """
    spec = _scaling_spec(
        variant, nodes, weak_root_dims((2, 2, 2), nodes.bit_length() - 1),
        tsteps, stages, "synthetic",
    )
    if not seed:
        return spec
    rng = random.Random(seed)
    objects = tuple(
        dataclasses.replace(o, center=(
            o.center[0],
            o.center[1] + rng.uniform(-CENTRE_SHIFT, CENTRE_SHIFT),
            o.center[2] + rng.uniform(-CENTRE_SHIFT, CENTRE_SHIFT),
        ))
        for o in spec.config.objects
    )
    return dataclasses.replace(
        spec, config=dataclasses.replace(spec.config, objects=objects)
    )


def fanout_pipeline(seed, leaves=SWEEP_LEAVES) -> PipelineSpec:
    """calibrate -> ``leaves`` one-node runs -> a ``bench.scaling_report``.

    Every leaf gets a distinct ``sched_seed`` so no two leaves share a
    fingerprint: a duplicate would be served from the cache or not
    depending on timing, and the cold pass would stop being one amount
    of work.
    """
    rng = random.Random(seed)
    variants = [SWEEP_VARIANTS[i % len(SWEEP_VARIANTS)] for i in range(leaves)]
    rng.shuffle(variants)
    sched_seeds = rng.sample(range(1, 1 << 16), leaves)
    nodes = [PipelineNode("calibrate", run=fig4_spec("tampi_dataflow", 1, 1, 4, 0))]
    for i, (variant, sched_seed) in enumerate(zip(variants, sched_seeds)):
        spec = dataclasses.replace(
            fig4_spec(variant, 1, 1, 4, 0),
            scheduler="locality" if variant == "mpi_only" else "fuzz",
            sched_seed=sched_seed,
        )
        nodes.append(PipelineNode(f"leaf{i:02d}", run=spec, after=("calibrate",)))
    nodes.append(PipelineNode(
        "report", generator="bench.scaling_report",
        after=tuple(n.name for n in nodes),
    ))
    return PipelineSpec(name="sweep_fanout", nodes=tuple(nodes))


WORKLOADS = {
    "fig4_tampi_4n": lambda seed: Workload(
        "fig4_tampi_4n", spec=fig4_spec("tampi_dataflow", 4, 3, 1, seed)),
    "fig4_mpi_4n": lambda seed: Workload(
        "fig4_mpi_4n", spec=fig4_spec("mpi_only", 4, 3, 1, seed)),
    "weak_tampi_16n": lambda seed: Workload(
        "weak_tampi_16n", spec=fig4_spec("tampi_dataflow", 16, 1, 1, seed)),
    "sweep_fanout_j2": lambda seed: Workload(
        "sweep_fanout_j2", pipeline=fanout_pipeline(seed),
        engine=SweepEngine(jobs=2), warm_replays=3),
}


def build(name, seed) -> Workload:
    """The named workload at ``seed``: the set-up that ``setup_s`` times."""
    return WORKLOADS[name](seed)


def digest(results) -> str:
    """sha256 over the golden payload of every run result in ``results``.

    Analysis values (a pipeline's report node) enter as they are.
    """
    payload = [
        expected_from_result(r) if isinstance(r, RunResult) else r
        for r in results
    ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
