"""Octree block identifiers and geometry over the unit-cube domain.

The mesh is a rectangular grid of root blocks (the coarsest level).  A
block id is ``(level, i, j, k)`` with integer coordinates in the level's
grid: level ``L`` has ``root_dims * 2**L`` slots per dimension.  Refining a
block produces its 8 children at ``level+1``; coarsening consolidates the 8
siblings back into their parent.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

#: Axis indices.
X, Y, Z = 0, 1, 2
#: Face sides.
LO, HI = 0, 1

#: The six faces as (axis, side) pairs, in miniAMR's direction order
#: (X first, then Y, then Z; low before high).
FACES = tuple((axis, side) for axis in (X, Y, Z) for side in (LO, HI))
#: The two in-plane axes of each face normal, in increasing order.
_PLANE_AXES = ((Y, Z), (X, Z), (X, Y))
#: Child offsets (di, dj, dk) in octant order (z fastest).
OCTANTS = tuple(product((0, 1), repeat=3))
#: Builds an id with no Python constructor frame: ``_new(BlockId, fields)``.
_new = tuple.__new__


class BlockId(NamedTuple):
    """Identifier of one mesh block: refinement level + grid coordinates.

    A named tuple rather than a (frozen) dataclass: ids key the
    dependency tables and mesh dicts, so their ``__hash__``/``__eq__``
    run millions of times per simulation and the C tuple implementations
    matter.  Hash values and the field-wise ordering are identical to
    what the equivalent ``@dataclass(frozen=True, order=True)`` produces,
    so dict/set iteration orders — and with them the goldens — are
    unchanged.
    """

    level: int
    i: int
    j: int
    k: int

    @property
    def coords(self):
        return (self.i, self.j, self.k)

    def parent(self) -> "BlockId":
        level, i, j, k = self
        if level == 0:
            raise ValueError("root blocks have no parent")
        return _new(BlockId, (level - 1, i >> 1, j >> 1, k >> 1))

    def children(self):
        """The 8 children, in octant order (z fastest)."""
        level, i, j, k = self
        return [_new(BlockId, (level + 1, 2 * i + di, 2 * j + dj, 2 * k + dk))
                for di, dj, dk in OCTANTS]

    def sibling_group(self):
        """All 8 blocks sharing this block's parent."""
        if self.level == 0:
            raise ValueError("root blocks have no siblings")
        return self.parent().children()


class Grid:
    """Geometry helpers bound to the root-grid dimensions."""

    def __init__(self, root_dims):
        rx, ry, rz = root_dims
        if rx <= 0 or ry <= 0 or rz <= 0:
            raise ValueError("root dimensions must be positive")
        self.root_dims = (rx, ry, rz)

    def dims_at(self, level: int):
        """Grid slots per dimension at ``level``."""
        return tuple(d << level for d in self.root_dims)

    def bounds(self, bid: BlockId):
        """Axis-aligned bounding box ((x0,x1),(y0,y1),(z0,z1)) in [0,1]³."""
        level, i, j, k = bid
        rx, ry, rz = self.root_dims
        dx, dy, dz = rx << level, ry << level, rz << level
        return ((i / dx, (i + 1) / dx), (j / dy, (j + 1) / dy),
                (k / dz, (k + 1) / dz))

    def face_coord(self, bid: BlockId, axis: int, side: int):
        """Same-level neighbor coordinates across a face, or None at the
        domain boundary."""
        level = bid.level
        c = bid[axis + 1] + (1 if side == HI else -1)
        if not 0 <= c < self.root_dims[axis] << level:
            return None
        if axis == X:
            return BlockId(level, c, bid.j, bid.k)
        if axis == Y:
            return BlockId(level, bid.i, c, bid.k)
        return BlockId(level, bid.i, bid.j, c)

    def morton_key(self, bid: BlockId, max_level: int):
        """Space-filling-curve sort key (Morton order at ``max_level``).

        Blocks are mapped to their position at the finest level; the level
        is appended so a parent sorts immediately before its first child.
        """
        shift = max_level - bid.level
        if shift < 0:
            raise ValueError("bid.level exceeds max_level")
        return (_morton3(bid.i << shift, bid.j << shift, bid.k << shift),
                bid.level)


#: ``_SPREAD[b]``: the 8 bits of ``b`` with two zero bits between each.
_SPREAD = tuple(sum((b >> t & 1) << 3 * t for t in range(8))
                for b in range(256))


def _part1by2(n: int) -> int:
    """Spread the bits of ``n`` so there are two zero bits between each."""
    result = 0
    shift = 0
    while n:
        result |= _SPREAD[n & 0xFF] << shift
        n >>= 8
        shift += 24
    return result


def _morton3(i: int, j: int, k: int) -> int:
    return _part1by2(i) | (_part1by2(j) << 1) | (_part1by2(k) << 2)


def face_quadrant(child: BlockId, axis: int) -> tuple:
    """Which quadrant of the coarse face a finer neighbor occupies.

    Returns (q_a, q_b) in {0,1}² for the two in-plane axes (the axes other
    than ``axis``, in increasing order).
    """
    a, b = _PLANE_AXES[axis]
    return (child[a + 1] & 1, child[b + 1] & 1)
