"""Unit and property tests for octree block ids and grid geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.ids import (
    FACES,
    HI,
    LO,
    BlockId,
    Grid,
    _part1by2,
    face_quadrant,
)


def test_faces_enumeration_order():
    assert FACES == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))


def test_parent_child_roundtrip():
    bid = BlockId(2, 5, 3, 7)
    for child in bid.children():
        assert child.parent() == bid
        assert child.level == 3


def test_children_are_distinct_and_eight():
    bid = BlockId(0, 0, 0, 0)
    children = bid.children()
    assert len(children) == 8
    assert len(set(children)) == 8


def test_root_has_no_parent():
    with pytest.raises(ValueError):
        BlockId(0, 0, 0, 0).parent()


def test_octant_indexing():
    parent = BlockId(1, 2, 3, 4)
    octants = [((c.i & 1) << 2) | ((c.j & 1) << 1) | (c.k & 1)
               for c in parent.children()]
    assert octants == list(range(8))


def test_sibling_group_contains_self():
    bid = BlockId(1, 1, 0, 1)
    assert bid in bid.sibling_group()
    assert len(bid.sibling_group()) == 8


def test_grid_dims_at_level():
    grid = Grid((2, 3, 4))
    assert grid.dims_at(0) == (2, 3, 4)
    assert grid.dims_at(2) == (8, 12, 16)


def test_grid_rejects_bad_dims():
    with pytest.raises(ValueError):
        Grid((0, 1, 1))


def test_grid_contains():
    grid = Grid((2, 2, 2))

    def contains(bid):
        dims = grid.dims_at(bid.level)
        return all(0 <= c < d for c, d in zip(bid.coords, dims))

    assert contains(BlockId(0, 1, 1, 1))
    assert not contains(BlockId(0, 2, 0, 0))
    assert contains(BlockId(1, 3, 3, 3))
    assert not contains(BlockId(1, 4, 0, 0))


def test_bounds_unit_cube_cover():
    grid = Grid((2, 2, 2))
    b = grid.bounds(BlockId(0, 0, 0, 0))
    assert b == ((0.0, 0.5), (0.0, 0.5), (0.0, 0.5))
    b = grid.bounds(BlockId(1, 3, 0, 0))
    assert b[0] == (0.75, 1.0)


def test_face_coord_interior_and_boundary():
    grid = Grid((2, 2, 2))
    bid = BlockId(0, 0, 0, 0)
    assert grid.face_coord(bid, 0, HI) == BlockId(0, 1, 0, 0)
    assert grid.face_coord(bid, 0, LO) is None  # domain boundary
    assert grid.face_coord(BlockId(0, 1, 0, 0), 0, HI) is None


def test_finer_face_neighbors_touch_shared_face():
    grid = Grid((2, 1, 1))
    me = BlockId(0, 0, 0, 0)
    slot = grid.face_coord(me, 0, HI)
    my_hi = grid.bounds(me)[0][1]
    finer = [c for c in slot.children() if grid.bounds(c)[0][0] == my_hi]
    assert len(finer) == 4
    # All children touching my face have even x-coordinate (low side of
    # the neighbor slot).
    assert all(c.i % 2 == 0 for c in finer)


def test_face_quadrant_values():
    # A child of slot at level 1 — quadrant from the in-plane coordinates.
    child = BlockId(1, 2, 1, 0)
    assert face_quadrant(child, 0) == (1, 0)  # (j odd, k even)
    assert face_quadrant(child, 1) == (0, 0)  # (i even, k even)
    assert face_quadrant(child, 2) == (0, 1)  # (i even, j odd)


def test_morton_parent_sorts_before_children():
    grid = Grid((2, 2, 2))
    parent = BlockId(0, 1, 0, 1)
    keys = [grid.morton_key(c, 3) for c in parent.children()]
    pkey = grid.morton_key(parent, 3)
    assert pkey < min(keys)


def _part1by2_bitwise(n):
    """Reference: bit ``t`` of ``n`` moves to bit ``3 * t``."""
    return sum(((n >> t) & 1) << (3 * t) for t in range(n.bit_length()))


def test_part1by2_matches_bitwise_reference():
    for n in range(4096):
        assert _part1by2(n) == _part1by2_bitwise(n)
    for n in (2**20, 2**20 + 12345, 2**40 - 1, 2**40, 2**40 + 2**33 + 7,
              2**63 + 1):
        assert _part1by2(n) == _part1by2_bitwise(n)


def test_morton_key_rejects_too_deep():
    grid = Grid((1, 1, 1))
    with pytest.raises(ValueError):
        grid.morton_key(BlockId(3, 0, 0, 0), max_level=2)


@settings(max_examples=200, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=3),
    i=st.integers(min_value=0, max_value=15),
    j=st.integers(min_value=0, max_value=15),
    k=st.integers(min_value=0, max_value=15),
)
def test_property_bounds_nest_in_parent(level, i, j, k):
    """A child's bounding box is contained in its parent's."""
    grid = Grid((2, 2, 2))
    dims = grid.dims_at(level + 1)
    bid = BlockId(level + 1, i % dims[0], j % dims[1], k % dims[2])
    cb = grid.bounds(bid)
    pb = grid.bounds(bid.parent())
    for (clo, chi), (plo, phi) in zip(cb, pb):
        assert plo <= clo < chi <= phi


@settings(max_examples=200, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=7),
    j=st.integers(min_value=0, max_value=7),
    k=st.integers(min_value=0, max_value=7),
)
def test_property_morton_distinct(i, j, k):
    """Distinct same-level blocks get distinct Morton keys."""
    grid = Grid((8, 8, 8))
    a = BlockId(0, i, j, k)
    b = BlockId(0, (i + 1) % 8, j, k)
    assert grid.morton_key(a, 2) != grid.morton_key(b, 2)


@settings(max_examples=100, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=2),
    i=st.integers(min_value=0, max_value=7),
    j=st.integers(min_value=0, max_value=7),
    k=st.integers(min_value=0, max_value=7),
    axis=st.integers(min_value=0, max_value=2),
    side=st.integers(min_value=0, max_value=1),
)
def test_property_face_neighbors_are_symmetric(level, i, j, k, axis, side):
    """If B is A's same-level face neighbor, A is B's on the other side."""
    grid = Grid((2, 2, 2))
    dims = grid.dims_at(level)
    bid = BlockId(level, i % dims[0], j % dims[1], k % dims[2])
    n = grid.face_coord(bid, axis, side)
    if n is not None:
        back = grid.face_coord(n, axis, 1 - side)
        assert back == bid
