"""Per-stage communication planning: who sends which faces to whom.

For every direction (X, Y, Z — miniAMR processes one axis at a time) the
plan lists, per rank: intra-rank ghost copies, and the face transfers to
send to / receive from each neighbor rank.  Transfers are enumerated from
the destination block's perspective (each transfer fills one ghost face or
quadrant) in a deterministic global order, so sender and receiver derive
identical message groupings and tags independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .ids import face_quadrant
from .mesh import MeshStructure

#: Tag sub-space stride per direction (Section IV-A: distinct tag space per
#: direction so communication tasks of different directions can fly
#: concurrently).
DIRECTION_TAG_STRIDE = 1 << 18
#: Tag offset for refinement/load-balance exchange messages.
EXCHANGE_TAG_BASE = 3 << 18


class FaceTransfer(NamedTuple):
    """One ghost-fill: data flows ``src`` → ``dst`` across ``axis``.

    ``side`` is the face side on the *destination* block.  ``rel`` is the
    source's level relative to the destination: "same", "finer" (source
    restricts, quarter-size message), or "coarser" (source sends its
    quadrant, destination prolongs).  ``quadrant`` locates the quarter
    within the coarse face for cross-level transfers.

    A named tuple, like :class:`~repro.amr.ids.BlockId`: every epoch
    builds one per face, and its hash is its field tuple's hash.
    """

    src: object  # BlockId
    dst: object  # BlockId
    axis: int
    side: int
    rel: str
    quadrant: tuple  # () for same-level
    nbytes: int


#: Sort key of a transfer list: ``(dst, side, src)``.
_DST_SIDE_SRC = itemgetter(1, 3, 0)


@dataclass
class DirectionPlan:
    """All transfers of one rank for one direction (axis)."""

    axis: int
    local: list  # intra-rank FaceTransfers
    sends: dict  # peer rank -> [FaceTransfer] (deterministic order)
    recvs: dict  # peer rank -> [FaceTransfer]


def build_global_transfers(structure: MeshStructure, config, nvars: int):
    """Every face transfer of the current mesh, grouped per (axis) and
    sorted by ``(dst, side, src)``; built with no constructor frame."""
    per_axis = {0: [], 1: [], 2: []}
    nbytes = {
        (axis, cross): config.face_bytes(axis, nvars, cross)
        for axis in (0, 1, 2)
        for cross in (False, True)
    }
    new = tuple.__new__
    for dst in sorted(structure.active):
        for axis, side, src, rel in structure.all_neighbors(dst):
            if rel == "same":
                quadrant = ()
            elif rel == "finer":
                # Source is finer than destination: it restricts its face;
                # the quarter lands in the quadrant the finer block
                # occupies on our coarse face.
                quadrant = face_quadrant(src, axis)
            else:  # source coarser: sends our quadrant of its face
                quadrant = face_quadrant(dst, axis)
            per_axis[axis].append(new(FaceTransfer, (
                src, dst, axis, side, rel, quadrant,
                nbytes[axis, rel != "same"],
            )))
    for transfers in per_axis.values():
        transfers.sort(key=_DST_SIDE_SRC)
    return per_axis


def build_all_rank_plans(structure, config, nvars):
    """One pass over the global transfers → ``{rank: [DirectionPlan x3]}``.

    O(transfers): each transfer lands in its source's ``local`` list, or
    in its source's ``sends`` and its destination's ``recvs``; used by the
    per-epoch plan cache.
    """
    global_transfers = build_global_transfers(structure, config, nvars)
    ranks = range(structure.config.num_ranks)
    plans = {
        r: [DirectionPlan(axis=a, local=[], sends={}, recvs={})
            for a in (0, 1, 2)]
        for r in ranks
    }
    owner = structure.owner
    for axis in (0, 1, 2):
        for t in global_transfers[axis]:
            src_rank = owner[t.src]
            dst_rank = owner[t.dst]
            if src_rank == dst_rank:
                plans[src_rank][axis].local.append(t)
            else:
                plans[src_rank][axis].sends.setdefault(dst_rank, []).append(t)
                plans[dst_rank][axis].recvs.setdefault(src_rank, []).append(t)
    return plans


def message_groups(transfers, send_faces: bool, max_comm_tasks: int):
    """Split one (direction, peer) transfer list into MPI messages.

    * default: a single message carrying every face (the mini-app's
      aggregation);
    * ``send_faces``: one message per face;
    * ``send_faces`` + ``max_comm_tasks=m``: at most ``m`` messages,
      faces distributed round-robin (the paper's granularity knob).

    The input order is the deterministic global order, so sender and
    receiver produce identical groups.
    """
    transfers = list(transfers)
    if not transfers:
        return []
    if not send_faces:
        return [transfers]
    if max_comm_tasks <= 0 or max_comm_tasks >= len(transfers):
        return [[t] for t in transfers]
    groups = [[] for _ in range(max_comm_tasks)]
    for i, t in enumerate(transfers):
        groups[i % max_comm_tasks].append(t)
    return [g for g in groups if g]


def group_nbytes(group) -> int:
    return sum(t.nbytes for t in group)


def direction_tag(axis: int, index: int) -> int:
    """MPI tag for message ``index`` of a (direction, peer) stream."""
    if index >= DIRECTION_TAG_STRIDE:  # pragma: no cover - absurd scale
        raise ValueError("tag index overflows the direction sub-space")
    return axis * DIRECTION_TAG_STRIDE + index
