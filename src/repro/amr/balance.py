"""Load balancing: SFC and RCB partitioners plus block-move planning.

MiniAMR redistributes blocks after every refinement stage so each rank owns
(nearly) the same number.  Two partitioners are provided:

* **SFC** — contiguous chunks of the Morton (Z-order) traversal;
  deterministic, locality-preserving, counts within one block of the mean;
* **RCB** — recursive coordinate bisection over block centers (the
  reference miniAMR's default): ranks are split in two, blocks are split
  along the widest dimension proportionally, recursively.

Both produce the integer imbalance profile the paper's runs exhibit
(a rank owns ⌈N/P⌉ or ⌊N/P⌋ blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mesh import MeshStructure


def sfc_order(structure: MeshStructure):
    """Active blocks in Morton order (the balancing traversal)."""
    max_level = max((b.level for b in structure.active), default=0)
    return sorted(
        structure.active,
        key=lambda b: structure.grid.morton_key(b, max_level),
    )


def plan_partition(structure: MeshStructure, num_ranks: int) -> dict:
    """Target ownership: contiguous SFC chunks, sizes within one block."""
    order = sfc_order(structure)
    n = len(order)
    base, extra = divmod(n, num_ranks)
    owner = {}
    index = 0
    for rank in range(num_ranks):
        size = base + (1 if rank < extra else 0)
        for bid in order[index : index + size]:
            owner[bid] = rank
        index += size
    return owner


def plan_partition_rcb(structure: MeshStructure, num_ranks: int) -> dict:
    """Recursive coordinate bisection (reference miniAMR's balancer).

    Ranks are split into two halves; blocks are sorted along the widest
    dimension of their bounding region and cut so the counts are
    proportional to the rank halves; recurse on both sides.  Deterministic
    (ties broken by block id).
    """
    grid = structure.grid
    blocks = sorted(structure.active)
    centers = {
        b: tuple((lo + hi) / 2 for lo, hi in grid.bounds(b)) for b in blocks
    }
    owner = {}

    def recurse(block_list, rank_lo, rank_hi):
        nranks = rank_hi - rank_lo
        if nranks == 1 or not block_list:
            for b in block_list:
                owner[b] = rank_lo
            return
        # Widest dimension of this group's extent.
        spans = []
        for axis in range(3):
            coords = [centers[b][axis] for b in block_list]
            spans.append(max(coords) - min(coords))
        axis = max(range(3), key=lambda a: (spans[a], -a))
        ordered = sorted(block_list, key=lambda b: (centers[b][axis], b))
        half_ranks = nranks // 2
        cut = round(len(ordered) * half_ranks / nranks)
        recurse(ordered[:cut], rank_lo, rank_lo + half_ranks)
        recurse(ordered[cut:], rank_lo + half_ranks, rank_hi)

    recurse(blocks, 0, num_ranks)
    return owner


PARTITIONERS = {
    "sfc": plan_partition,
    "rcb": plan_partition_rcb,
}


@dataclass
class MovePlan:
    """Blocks that must change rank: ``moves[bid] = (src, dst)``."""

    moves: dict = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.moves

    def __len__(self):
        return len(self.moves)


def plan_moves(structure: MeshStructure, target_owner: dict) -> MovePlan:
    """Diff current against target ownership."""
    plan = MovePlan()
    for bid, dst in target_owner.items():
        src = structure.owner[bid]
        if src != dst:
            plan.moves[bid] = (src, dst)
    return plan


def max_imbalance(structure: MeshStructure) -> float:
    """max/mean ratio of per-rank block counts (1.0 = perfectly balanced)."""
    counts = list(structure.rank_block_counts().values())
    mean = sum(counts) / len(counts)
    if mean == 0:
        return 1.0
    return max(counts) / mean
