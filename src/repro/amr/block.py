"""Mesh block payloads: grid data, face extraction/insertion, split/merge.

A block stores ``(num_vars, nx+2, ny+2, nz+2)`` doubles — interior cells
plus one ghost layer per side — in **real** payload mode, or a per-variable
surrogate vector (the block's total per variable) in **synthetic** mode.
Synthetic mode keeps the exact task/message structure of a run while
skipping the arithmetic; refinement transfers conserve the surrogate sums
so checksums remain meaningful.
"""

from __future__ import annotations

import numpy as np

from .ids import BlockId, LO


class Block:
    """One mesh block: id plus payload."""

    __slots__ = ("bid", "data", "surrogate")

    def __init__(self, bid: BlockId, data=None, surrogate=None):
        self.bid = bid
        self.data = data  # (nv, nx+2, ny+2, nz+2) or None
        self.surrogate = surrogate  # (nv,) or None

    @property
    def is_real(self) -> bool:
        return self.data is not None

    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, bid: BlockId, config, seed_fn=None) -> "Block":
        """Create a root-level block with its initial condition.

        ``seed_fn(bid, var)`` returns the initial value of a variable on a
        block; by default a smooth deterministic function of position.
        """
        nv = config.num_vars
        if config.payload == "synthetic":
            values = np.array(
                [_default_seed(bid, v) for v in range(nv)], dtype=np.float64
            )
            surrogate = values * config.cells_per_block
            return cls(bid, data=None, surrogate=surrogate)
        shape = (nv, config.nx + 2, config.ny + 2, config.nz + 2)
        data = np.zeros(shape, dtype=np.float64)
        for v in range(nv):
            seed = seed_fn(bid, v) if seed_fn else _default_seed(bid, v)
            data[v, 1:-1, 1:-1, 1:-1] = seed
        return cls(bid, data=data, surrogate=None)

    # ------------------------------------------------------------------
    # Checksum
    # ------------------------------------------------------------------
    def checksum(self, vslice: slice) -> np.ndarray:
        """Per-variable interior sums for the given variable group."""
        if self.is_real:
            return self.data[vslice, 1:-1, 1:-1, 1:-1].sum(axis=(1, 2, 3))
        return self.surrogate[vslice].copy()

    # ------------------------------------------------------------------
    # Stencil
    # ------------------------------------------------------------------
    def fill_boundary_ghosts(self, vslice: slice, open_faces):
        """Reflect interior values into ghosts of domain-boundary faces.

        ``open_faces`` is an iterable of (axis, side) pairs that have *no*
        neighbor (the domain boundary).  Interior ghosts are filled by the
        communication phase instead.
        """
        if not self.is_real:
            return
        d = self.data[vslice]
        for axis, side in open_faces:
            sl_ghost = [slice(None)] * 4
            sl_edge = [slice(None)] * 4
            if side == LO:
                sl_ghost[axis + 1] = 0
                sl_edge[axis + 1] = 1
            else:
                sl_ghost[axis + 1] = -1
                sl_edge[axis + 1] = -2
            d[tuple(sl_ghost)] = d[tuple(sl_edge)]

    def stencil7(self, vslice: slice):
        """Apply the 7-point average stencil to the interior cells."""
        if not self.is_real:
            return
        d = self.data[vslice]
        c = d[:, 1:-1, 1:-1, 1:-1]
        result = (
            c
            + d[:, :-2, 1:-1, 1:-1]
            + d[:, 2:, 1:-1, 1:-1]
            + d[:, 1:-1, :-2, 1:-1]
            + d[:, 1:-1, 2:, 1:-1]
            + d[:, 1:-1, 1:-1, :-2]
            + d[:, 1:-1, 1:-1, 2:]
        ) / 7.0
        d[:, 1:-1, 1:-1, 1:-1] = result

    def stencil27(self, vslice: slice):
        """Apply the 27-point average stencil (miniAMR's other option).

        Note: edge/corner ghost cells are not exchanged by the face-only
        communication (the mini-app has the same property); they hold the
        reflected/previous values, which is sufficient for a proxy code.
        """
        if not self.is_real:
            return
        d = self.data[vslice]
        acc = None
        for dx in (0, 1, 2):
            sx = slice(dx, d.shape[1] - 2 + dx)
            for dy in (0, 1, 2):
                sy = slice(dy, d.shape[2] - 2 + dy)
                for dz in (0, 1, 2):
                    sz = slice(dz, d.shape[3] - 2 + dz)
                    part = d[:, sx, sy, sz]
                    acc = part.copy() if acc is None else acc + part
        d[:, 1:-1, 1:-1, 1:-1] = acc / 27.0

    def apply_stencil_kind(self, vslice: slice, kind: int):
        """Dispatch on the configured stencil (7 or 27 point)."""
        if kind == 7:
            self.stencil7(vslice)
        elif kind == 27:
            self.stencil27(vslice)
        else:  # pragma: no cover - config validates
            raise ValueError(f"unknown stencil {kind}")

    # ------------------------------------------------------------------
    # Faces
    # ------------------------------------------------------------------
    def extract_face(self, axis: int, side: int, vslice: slice) -> np.ndarray:
        """Copy the outermost interior plane on (axis, side)."""
        if not self.is_real:
            return None
        sl = [slice(None), slice(1, -1), slice(1, -1), slice(1, -1)]
        sl[0] = vslice
        sl[axis + 1] = 1 if side == LO else -2
        return np.ascontiguousarray(self.data[tuple(sl)])

    def insert_ghost(self, axis: int, side: int, vslice: slice, plane):
        """Write a full face plane into the ghost layer on (axis, side)."""
        if not self.is_real:
            return
        sl = [slice(None), slice(1, -1), slice(1, -1), slice(1, -1)]
        sl[0] = vslice
        sl[axis + 1] = 0 if side == LO else -1
        self.data[tuple(sl)] = plane

    def extract_face_quadrant(
        self, axis: int, side: int, vslice: slice, quadrant
    ) -> np.ndarray:
        """Quarter of the face plane (for sending to a finer neighbor)."""
        if not self.is_real:
            return None
        plane = self.extract_face(axis, side, vslice)
        return _plane_quadrant(plane, quadrant).copy()

    def insert_ghost_quadrant(
        self, axis: int, side: int, vslice: slice, quadrant, quarter
    ):
        """Write a quarter plane into one quadrant of the ghost layer
        (receiving a restricted face from a finer neighbor)."""
        if not self.is_real:
            return
        sl = [slice(None), slice(1, -1), slice(1, -1), slice(1, -1)]
        sl[0] = vslice
        sl[axis + 1] = 0 if side == LO else -1
        ghost = self.data[tuple(sl)]
        _plane_quadrant(ghost, quadrant)[...] = quarter


def _plane_quadrant(plane: np.ndarray, quadrant) -> np.ndarray:
    """View of one quadrant of a (nv, A, B) face plane."""
    qa, qb = quadrant
    na, nb = plane.shape[1], plane.shape[2]
    ha, hb = na // 2, nb // 2
    sa = slice(qa * ha, (qa + 1) * ha)
    sb = slice(qb * hb, (qb + 1) * hb)
    return plane[:, sa, sb]


def restrict_plane(plane: np.ndarray) -> np.ndarray:
    """Average 2×2 cells of a fine face plane → quarter-size plane."""
    nv, na, nb = plane.shape
    return plane.reshape(nv, na // 2, 2, nb // 2, 2).mean(axis=(2, 4))


def prolong_plane(quarter: np.ndarray) -> np.ndarray:
    """Replicate each coarse face cell 2×2 → full-size fine plane."""
    return np.repeat(np.repeat(quarter, 2, axis=1), 2, axis=2)


# ----------------------------------------------------------------------
# Refinement payload operations
# ----------------------------------------------------------------------
def split_block(block: Block, config) -> dict:
    """Split a block into its 8 children (each cell value / 8).

    Each parent cell maps to 2×2×2 child cells carrying 1/8 of its value,
    so the total over all variables is conserved — miniAMR's convention,
    and the invariant our property tests check.

    Returns ``{child_id: Block}``.
    """
    children = {}
    child_ids = block.bid.children()
    if not block.is_real:
        for cid in child_ids:
            children[cid] = Block(cid, surrogate=block.surrogate / 8.0)
        return children

    nx, ny, nz = config.nx, config.ny, config.nz
    hx, hy, hz = nx // 2, ny // 2, nz // 2
    interior = block.data[:, 1:-1, 1:-1, 1:-1]
    for cid in child_ids:
        oi = cid.i & 1
        oj = cid.j & 1
        ok = cid.k & 1
        octant = interior[
            :,
            oi * hx : (oi + 1) * hx,
            oj * hy : (oj + 1) * hy,
            ok * hz : (ok + 1) * hz,
        ]
        fine = np.repeat(
            np.repeat(np.repeat(octant, 2, axis=1), 2, axis=2), 2, axis=3
        ) / 8.0
        data = np.zeros_like(block.data)
        data[:, 1:-1, 1:-1, 1:-1] = fine
        children[cid] = Block(cid, data=data)
    return children


def consolidate_blocks(parent_id: BlockId, children: dict, config) -> Block:
    """Merge 8 sibling blocks into their parent (2×2×2 sum pooling).

    Inverse of :func:`split_block`: conserves per-variable totals.
    """
    child_ids = parent_id.children()
    missing = [cid for cid in child_ids if cid not in children]
    if missing:
        raise ValueError(f"missing children for consolidation: {missing}")

    sample = children[child_ids[0]]
    if not sample.is_real:
        surrogate = sum(children[cid].surrogate for cid in child_ids)
        return Block(parent_id, surrogate=surrogate)

    nx, ny, nz = config.nx, config.ny, config.nz
    hx, hy, hz = nx // 2, ny // 2, nz // 2
    data = np.zeros_like(sample.data)
    for cid in child_ids:
        child = children[cid]
        fine = child.data[:, 1:-1, 1:-1, 1:-1]
        nv = fine.shape[0]
        coarse = fine.reshape(nv, hx, 2, hy, 2, hz, 2).sum(axis=(2, 4, 6))
        oi = cid.i & 1
        oj = cid.j & 1
        ok = cid.k & 1
        data[
            :,
            1 + oi * hx : 1 + (oi + 1) * hx,
            1 + oj * hy : 1 + (oj + 1) * hy,
            1 + ok * hz : 1 + (ok + 1) * hz,
        ] = coarse
    return Block(parent_id, data=data)


def _default_seed(bid: BlockId, var: int) -> float:
    """Deterministic smooth initial value for (block, variable)."""
    level_scale = 1.0 / (1 << bid.level)
    return (
        1.0
        + 0.5 * var
        + 0.1 * ((bid.i + 1) * 1.3 + (bid.j + 1) * 0.7 + (bid.k + 1) * 0.41)
        * level_scale
    )
