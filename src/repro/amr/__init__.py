"""``repro.amr`` — the miniAMR substrate: mesh, blocks, objects, planning.

A faithful re-implementation of the structures the Mantevo miniAMR proxy
app is built from: an octree of equal-size blocks over the unit cube, 16
moving object types that drive refinement, 2:1-balanced refine/coarsen
planning, SFC load balancing, per-direction face-exchange planning, the
7-point stencil, and checksums.
"""

from .balance import (
    MovePlan,
    PARTITIONERS,
    max_imbalance,
    plan_moves,
    plan_partition,
    plan_partition_rcb,
    sfc_order,
)
from .block import (
    Block,
    consolidate_blocks,
    prolong_plane,
    restrict_plane,
    split_block,
)
from .checksum import ChecksumError, local_checksum, validate
from .comm_plan import (
    DIRECTION_TAG_STRIDE,
    EXCHANGE_TAG_BASE,
    DirectionPlan,
    FaceTransfer,
    build_all_rank_plans,
    build_global_transfers,
    direction_tag,
    group_nbytes,
    message_groups,
)
from .config import AmrConfig
from .ids import FACES, HI, LO, X, Y, Z, BlockId, Grid, face_quadrant
from .metrics import (
    MeshReport,
    amr_savings,
    cross_level_face_fraction,
    finest_level,
    level_histogram,
    mesh_report,
    uniform_equivalent_blocks,
)
from .mesh import (
    MeshStructure,
    PlanBoard,
    RefinePlan,
    apply_plan,
    plan_refinement,
)
from .objects import (
    Classification,
    MovingObject,
    ObjectSpec,
    Shape,
    sphere,
)

__all__ = [
    "AmrConfig",
    "Block",
    "BlockId",
    "ChecksumError",
    "Classification",
    "DIRECTION_TAG_STRIDE",
    "DirectionPlan",
    "EXCHANGE_TAG_BASE",
    "FACES",
    "FaceTransfer",
    "Grid",
    "HI",
    "LO",
    "MeshReport",
    "MeshStructure",
    "MovePlan",
    "PARTITIONERS",
    "MovingObject",
    "ObjectSpec",
    "PlanBoard",
    "RefinePlan",
    "Shape",
    "X",
    "Y",
    "Z",
    "amr_savings",
    "apply_plan",
    "build_all_rank_plans",
    "build_global_transfers",
    "consolidate_blocks",
    "cross_level_face_fraction",
    "direction_tag",
    "face_quadrant",
    "finest_level",
    "group_nbytes",
    "level_histogram",
    "local_checksum",
    "max_imbalance",
    "mesh_report",
    "message_groups",
    "plan_moves",
    "plan_partition",
    "plan_partition_rcb",
    "plan_refinement",
    "prolong_plane",
    "restrict_plane",
    "sfc_order",
    "sphere",
    "split_block",
    "uniform_equivalent_blocks",
    "validate",
]
