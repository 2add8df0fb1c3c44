"""Global mesh structure: active octree blocks, ownership, refinement plans.

Design note (documented substitution): the mesh *structure* — which blocks
exist and who owns them — is replicated across ranks, while block *data* is
fully distributed and only moves through simulated messages.  Refinement
decisions are deterministic functions of the shared object state, so every
rank computes the same plan; the coordination cost the real mini-app pays
is still charged through the collectives and control messages issued in the
refinement phase.  A :class:`PlanBoard` guarantees each plan is computed
once per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ids import FACES, OCTANTS, BlockId, Grid

_new = tuple.__new__
#: Per face, in ``FACES`` order: axis, side, the (di, dj, dk) step to the
#: same-level slot, and the offsets of the slot's 4 children touching it.
_FACE_WALK = tuple(
    (axis, side, tuple((2 * side - 1) * (a == axis) for a in range(3)),
     tuple(o for o in OCTANTS if o[axis] == 1 - side))
    for axis, side in FACES
)


class MeshStructure:
    """Active block set + ownership map for one simulation."""

    def __init__(self, config):
        self.config = config
        self.grid = Grid(config.root_dims)
        self.active = set()
        self.owner = {}
        self._rank_blocks = {r: set() for r in range(config.num_ranks)}
        self._init_root_blocks()

    # ------------------------------------------------------------------
    def _init_root_blocks(self):
        cfg = self.config
        rx, ry, rz = cfg.root_dims
        for i in range(rx):
            for j in range(ry):
                for k in range(rz):
                    bid = BlockId(0, i, j, k)
                    rank = self._initial_owner(i, j, k)
                    self.active.add(bid)
                    self.owner[bid] = rank
                    self._rank_blocks[rank].add(bid)

    def _initial_owner(self, i, j, k) -> int:
        cfg = self.config
        px = i // cfg.init_x
        py = j // cfg.init_y
        pz = k // cfg.init_z
        return (pz * cfg.npy + py) * cfg.npx + px

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def num_blocks(self) -> int:
        return len(self.active)

    def blocks_of_rank(self, rank):
        """Sorted ids of the blocks a rank owns (deterministic order)."""
        return sorted(self._rank_blocks[rank])

    def rank_block_counts(self):
        return {r: len(s) for r, s in self._rank_blocks.items()}

    def set_owner(self, bid: BlockId, rank: int):
        if bid not in self.active:
            raise KeyError(f"{bid} is not active")
        old = self.owner[bid]
        if old == rank:
            return
        self._rank_blocks[old].discard(bid)
        self._rank_blocks[rank].add(bid)
        self.owner[bid] = rank

    def face_neighbors(self, bid: BlockId, axis: int, side: int):
        """``(neighbor_id, relation)`` pairs across one face, read off
        :meth:`all_neighbors`."""
        return [(n, rel) for a, s, n, rel in self.all_neighbors(bid)
                if a == axis and s == side]

    def all_neighbors(self, bid: BlockId):
        """``(axis, side, neighbor, relation)`` over the six faces in
        ``FACES`` order: one same-level or coarser neighbor, four finer
        ones, or none at the domain boundary.  One walk per block, and ids
        are built without a constructor frame."""
        active = self.active
        level, bi, bj, bk = bid
        rx, ry, rz = self.grid.root_dims
        dx, dy, dz = rx << level, ry << level, rz << level
        result = []
        for axis, side, (si, sj, sk), offsets in _FACE_WALK:
            i, j, k = bi + si, bj + sj, bk + sk
            if not (0 <= i < dx and 0 <= j < dy and 0 <= k < dz):
                continue
            slot = _new(BlockId, (level, i, j, k))
            if slot in active:
                result.append((axis, side, slot, "same"))
                continue
            parent = _new(BlockId, (level - 1, i >> 1, j >> 1, k >> 1))
            if level and parent in active:
                result.append((axis, side, parent, "coarser"))
                continue
            finer = [_new(BlockId, (level + 1, 2 * i + di, 2 * j + dj,
                                    2 * k + dk)) for di, dj, dk in offsets]
            if not active.issuperset(finer):
                raise RuntimeError(
                    f"mesh inconsistent at {bid} face ({axis},{side}): slot "
                    f"{slot} neither active, coarser-covered, nor refined")
            result.extend((axis, side, c, "finer") for c in finer)
        return result

    def open_faces(self, bid: BlockId):
        """Faces at the domain boundary (no neighbor)."""
        return [
            (axis, side)
            for axis, side in FACES
            if self.grid.face_coord(bid, axis, side) is None
        ]

    # ------------------------------------------------------------------
    # Invariant checks (used by tests)
    # ------------------------------------------------------------------
    def check_cover(self) -> bool:
        """Active blocks tile the domain exactly (no overlap, no gap).

        Measured by summing block volumes at the finest level.
        """
        rx, ry, rz = self.config.root_dims
        total = 0
        max_level = max((b.level for b in self.active), default=0)
        for b in self.active:
            total += 8 ** (max_level - b.level)
        return total == rx * ry * rz * 8**max_level

    def check_two_to_one(self) -> bool:
        """No two face-adjacent blocks differ by more than one level."""
        for bid in self.active:
            for _axis, _side, nbid, _rel in self.all_neighbors(bid):
                if abs(nbid.level - bid.level) > 1:
                    return False
        return True


# ----------------------------------------------------------------------
# Refinement planning
# ----------------------------------------------------------------------
@dataclass
class RefinePlan:
    """Outcome of one refinement decision stage."""

    #: Blocks to split into 8 children.
    refine: set = field(default_factory=set)
    #: Parent ids whose 8 children consolidate into them.
    coarsen_parents: set = field(default_factory=set)

    @property
    def is_empty(self) -> bool:
        return not self.refine and not self.coarsen_parents


def plan_refinement(
    structure: MeshStructure, objects, uniform: bool = False
) -> RefinePlan:
    """Decide which blocks refine/coarsen, enforcing the 2:1 constraint.

    Deterministic: depends only on the active set and object positions.
    With ``uniform`` (miniAMR's ``--uniform_refine``) every block below the
    level cap refines regardless of objects.
    """
    cfg = structure.config
    grid = structure.grid
    delta = {}  # bid -> -1 (coarsen candidate), 0, +1 (refine)

    for bid in structure.active:
        bounds = grid.bounds(bid)
        triggered = uniform or any(
            obj.refine_trigger(bounds) for obj in objects
        )
        if triggered and bid.level < cfg.max_refine_level:
            delta[bid] = 1
        elif not triggered and bid.level > 0:
            delta[bid] = -1
        else:
            delta[bid] = 0

    _enforce_group_coarsening(structure, delta)
    _enforce_two_to_one(structure, delta)

    plan = RefinePlan()
    seen_parents = set()
    for bid, d in delta.items():
        if d == 1:
            plan.refine.add(bid)
        elif d == -1:
            parent = bid.parent()
            if parent not in seen_parents:
                seen_parents.add(parent)
                plan.coarsen_parents.add(parent)
    return plan


def _enforce_group_coarsening(structure, delta):
    """A block may only coarsen when all 8 siblings exist and agree.

    A check changes only its own group's entries, so each group is
    checked once."""
    checked = set()
    for bid, d in delta.items():
        if d != -1:
            continue
        parent = bid.parent()
        if parent in checked:
            continue
        checked.add(parent)
        siblings = parent.children()
        if not all(s in structure.active and delta.get(s) == -1
                   for s in siblings):
            for s in siblings:
                if delta.get(s) == -1:
                    delta[s] = 0


def _enforce_two_to_one(structure, delta):
    """Fixpoint: upgrade neighbors until no final-level gap exceeds one.

    The structure does not change while planning, so each block's
    neighbors are looked up once, in the active set's iteration order.
    """
    neighbors = {
        bid: [nbid for _a, _s, nbid, _r in structure.all_neighbors(bid)]
        for bid in structure.active
    }
    changed = True
    while changed:
        changed = False
        for bid, nbids in neighbors.items():
            fb = bid.level + delta[bid]
            for nbid in nbids:
                fn = nbid.level + delta[nbid]
                if fb - fn > 1:
                    if delta[nbid] == -1:
                        # Cancel the whole sibling group's coarsening.
                        for s in nbid.sibling_group():
                            if delta.get(s) == -1:
                                delta[s] = 0
                        changed = True
                    elif (
                        delta[nbid] == 0
                        and nbid.level < structure.config.max_refine_level
                    ):
                        delta[nbid] = 1
                        changed = True


def apply_plan(structure: MeshStructure, plan: RefinePlan):
    """Mutate the shared structure per ``plan``.

    Children of a split inherit the parent's owner; a consolidated parent
    is owned by the rank holding its first child (the designated
    consolidator — other children's data must be shipped there).

    Returns the ownership snapshot needed by the data stage:
    ``(split_owner, coarsen_owner)`` mapping block/parent ids to ranks.
    """
    split_owner = {}
    coarsen_owner = {}

    for bid in sorted(plan.refine):
        rank = structure.owner[bid]
        split_owner[bid] = rank
        structure.active.discard(bid)
        structure._rank_blocks[rank].discard(bid)
        del structure.owner[bid]
        for child in bid.children():
            structure.active.add(child)
            structure.owner[child] = rank
            structure._rank_blocks[rank].add(child)

    for parent in sorted(plan.coarsen_parents):
        children = parent.children()
        rank = structure.owner[children[0]]
        coarsen_owner[parent] = {
            "rank": rank,
            "child_owners": {c: structure.owner[c] for c in children},
        }
        for child in children:
            crank = structure.owner[child]
            structure.active.discard(child)
            structure._rank_blocks[crank].discard(child)
            del structure.owner[child]
        structure.active.add(parent)
        structure.owner[parent] = rank
        structure._rank_blocks[rank].add(parent)

    return split_owner, coarsen_owner


class PlanBoard:
    """Compute-once store for per-epoch shared plans.

    All ranks arrive at the same epoch, the first computes, the rest reuse;
    the entry is dropped once every rank consumed it.
    """

    def __init__(self, num_ranks: int):
        self.num_ranks = num_ranks
        self._entries = {}

    def get(self, key, compute):
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = [compute(), 0]
        entry[1] += 1
        value = entry[0]
        if entry[1] == self.num_ranks:
            del self._entries[key]
        return value
