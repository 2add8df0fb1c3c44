"""Tests for the mesh structure, refinement planning, and 2:1 balance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import (
    FACES,
    HI,
    AmrConfig,
    BlockId,
    MeshStructure,
    MovingObject,
    PlanBoard,
    RefinePlan,
    apply_plan,
    plan_refinement,
    sphere,
)
from repro.amr.mesh import _enforce_group_coarsening


def config(**kw):
    defaults = dict(
        npx=2, npy=2, npz=2, init_x=1, init_y=1, init_z=1,
        nx=4, ny=4, nz=4, num_vars=2, max_refine_level=3,
    )
    defaults.update(kw)
    return AmrConfig(**defaults)


def corner_sphere(radius=0.3):
    return [MovingObject(sphere(center=(0.2, 0.2, 0.2), radius=radius))]


# ----------------------------------------------------------------------
# Structure basics
# ----------------------------------------------------------------------
def test_initial_mesh_one_block_per_rank():
    s = MeshStructure(config())
    assert s.num_blocks() == 8
    assert s.rank_block_counts() == {r: 1 for r in range(8)}


def test_initial_owner_layout_is_cartesian():
    cfg = config(npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2)
    s = MeshStructure(cfg)
    assert s.num_blocks() == 8
    # Blocks with i=0 belong to rank 0, i=1 to rank 1.
    for bid in s.active:
        assert s.owner[bid] == (0 if bid.i == 0 else 1)


def test_set_owner_moves_block():
    s = MeshStructure(config())
    bid = next(iter(s.active))
    old = s.owner[bid]
    new = (old + 1) % 8
    s.set_owner(bid, new)
    assert s.owner[bid] == new
    assert bid in set(s.blocks_of_rank(new))
    assert bid not in set(s.blocks_of_rank(old))


def test_set_owner_inactive_rejected():
    s = MeshStructure(config())
    with pytest.raises(KeyError):
        s.set_owner(BlockId(3, 0, 0, 0), 0)


def test_face_neighbors_same_level():
    s = MeshStructure(config())
    nbrs = s.face_neighbors(BlockId(0, 0, 0, 0), 0, 1)
    assert nbrs == [(BlockId(0, 1, 0, 0), "same")]


def test_face_neighbors_domain_boundary():
    s = MeshStructure(config())
    assert s.face_neighbors(BlockId(0, 0, 0, 0), 0, 0) == []


def _three_level_mesh():
    """Levels 0, 1 and 2 in one corner, 2:1 balanced."""
    s = MeshStructure(config(max_refine_level=2))
    objects = [MovingObject(sphere(center=(0.05, 0.05, 0.05), radius=0.08))]
    for _ in range(2):
        apply_plan(s, plan_refinement(s, objects))
    return s


def _face_reference(s, bid, axis, side):
    """One face's neighbors the per-face way: the same-level slot, its
    parent, or the slot's four children that touch the face."""
    slot = s.grid.face_coord(bid, axis, side)
    if slot is None:
        return []
    if slot in s.active:
        return [(slot, "same")]
    if slot.level > 0 and slot.parent() in s.active:
        return [(slot.parent(), "coarser")]
    want = 0 if side == HI else 1  # the slot's children on our side
    finer = [c for c in slot.children() if c[axis + 1] & 1 == want]
    if not all(c in s.active for c in finer):
        raise RuntimeError("mesh inconsistent")
    return [(c, "finer") for c in finer]


def test_all_neighbors_is_the_six_face_lists_concatenated():
    s = _three_level_mesh()
    assert {b.level for b in s.active} == {0, 1, 2}
    rels = set()
    boundary = 0
    for bid in s.active:
        expected = []
        for axis, side in FACES:
            face = _face_reference(s, bid, axis, side)
            assert s.face_neighbors(bid, axis, side) == face
            expected += [(axis, side, nbid, rel) for nbid, rel in face]
            boundary += s.grid.face_coord(bid, axis, side) is None
        assert s.all_neighbors(bid) == expected
        rels.update(rel for _a, _s, _n, rel in expected)
    assert rels == {"same", "coarser", "finer"}
    assert boundary > 0


def test_all_neighbors_raises_where_a_slot_is_partly_refined():
    s = _three_level_mesh()
    s.active.discard(next(b for b in sorted(s.active) if b.level == 2))
    raised = 0
    for bid in sorted(s.active):
        try:
            expected = [
                (axis, side, nbid, rel)
                for axis, side in FACES
                for nbid, rel in _face_reference(s, bid, axis, side)
            ]
        except RuntimeError:
            with pytest.raises(RuntimeError, match="mesh inconsistent"):
                s.all_neighbors(bid)
            raised += 1
        else:
            assert s.all_neighbors(bid) == expected
    assert raised


def _one_refined_group(max_refine_level=1):
    """Root (0,0,0,0) split into its 8 children; every level-1 block -1."""
    s = MeshStructure(config(max_refine_level=max_refine_level))
    apply_plan(s, RefinePlan(refine={BlockId(0, 0, 0, 0)}))
    delta = {b: -1 if b.level else 0 for b in s.active}
    return s, delta


def test_group_coarsening_keeps_a_group_that_agrees():
    s, delta = _one_refined_group()
    _enforce_group_coarsening(s, delta)
    group = BlockId(0, 0, 0, 0).children()
    assert all(delta[b] == -1 for b in group)
    assert sum(1 for d in delta.values() if d == -1) == 8


def test_group_coarsening_cancels_the_group_when_one_sibling_disagrees():
    s, delta = _one_refined_group()
    group = BlockId(0, 0, 0, 0).children()
    delta[group[5]] = 0
    _enforce_group_coarsening(s, delta)
    assert all(delta[b] == 0 for b in group)


def test_group_coarsening_cancels_a_group_with_a_refined_sibling():
    s, _ = _one_refined_group(max_refine_level=2)
    group = BlockId(0, 0, 0, 0).children()
    apply_plan(s, RefinePlan(refine={group[7]}))
    delta = {b: -1 if b.level else 0 for b in s.active}
    _enforce_group_coarsening(s, delta)
    assert all(delta[b] == 0 for b in group[:7])
    assert all(delta[b] == -1 for b in group[7].children())


def test_open_faces_at_corner():
    s = MeshStructure(config())
    open_faces = s.open_faces(BlockId(0, 0, 0, 0))
    assert (0, 0) in open_faces and (1, 0) in open_faces and (2, 0) in open_faces
    assert len(open_faces) == 3


def test_invariants_on_initial_mesh():
    s = MeshStructure(config())
    assert s.check_cover()
    assert s.check_two_to_one()


# ----------------------------------------------------------------------
# Refinement planning
# ----------------------------------------------------------------------
def test_plan_refines_blocks_touching_surface():
    s = MeshStructure(config())
    plan = plan_refinement(s, corner_sphere())
    assert BlockId(0, 0, 0, 0) in plan.refine
    assert not plan.coarsen_parents


def test_plan_empty_with_no_objects():
    s = MeshStructure(config())
    plan = plan_refinement(s, [])
    assert plan.is_empty


def test_max_level_caps_refinement():
    cfg = config(max_refine_level=0)
    s = MeshStructure(cfg)
    plan = plan_refinement(s, corner_sphere())
    assert plan.is_empty


def test_apply_plan_replaces_block_with_children():
    s = MeshStructure(config())
    plan = plan_refinement(s, corner_sphere())
    n_before = s.num_blocks()
    split_owner, coarsen_owner = apply_plan(s, plan)
    assert s.num_blocks() == n_before + 7 * len(plan.refine)
    for bid, rank in split_owner.items():
        assert bid not in s.active
        for child in bid.children():
            assert child in s.active
            assert s.owner[child] == rank
    assert s.check_cover()
    assert s.check_two_to_one()


def test_refine_then_coarsen_when_object_leaves():
    cfg = config(max_refine_level=1)
    s = MeshStructure(cfg)
    obj = corner_sphere()
    plan = plan_refinement(s, obj)
    apply_plan(s, plan)
    refined_count = s.num_blocks()
    assert refined_count > 8
    # Object disappears -> children coarsen back to roots.
    plan2 = plan_refinement(s, [])
    assert plan2.coarsen_parents
    apply_plan(s, plan2)
    assert s.num_blocks() == 8
    assert s.check_cover() and s.check_two_to_one()


def test_block_delta_accounting():
    s = MeshStructure(config())
    plan = plan_refinement(s, corner_sphere())
    n_before = s.num_blocks()
    apply_plan(s, plan)
    delta = 7 * len(plan.refine) - 7 * len(plan.coarsen_parents)
    assert s.num_blocks() - n_before == delta


def test_two_to_one_enforced_across_levels():
    """Refining twice in a corner forces neighbors to refine too."""
    cfg = config(max_refine_level=2)
    s = MeshStructure(cfg)
    objects = [MovingObject(sphere(center=(0.05, 0.05, 0.05), radius=0.08))]
    for _ in range(2):
        plan = plan_refinement(s, objects)
        if plan.is_empty:
            break
        apply_plan(s, plan)
        assert s.check_two_to_one()
        assert s.check_cover()
    levels = {b.level for b in s.active}
    assert 2 in levels  # the corner reached level 2
    assert s.check_two_to_one()


def test_coarsen_requires_all_siblings():
    """A sibling group with one member still triggered must not coarsen."""
    cfg = config(max_refine_level=1)
    s = MeshStructure(cfg)
    apply_plan(s, plan_refinement(s, corner_sphere()))
    # Shrink the sphere so that only part of the previously refined
    # region is still triggered: either whole groups stay or whole
    # groups coarsen, never partial ones.
    objects = [MovingObject(sphere(center=(0.2, 0.2, 0.2), radius=0.1))]
    plan = plan_refinement(s, objects)
    apply_plan(s, plan)
    assert s.check_cover() and s.check_two_to_one()
    # Every remaining refined block has its full sibling group active.
    for bid in [b for b in s.active if b.level == 1]:
        assert all(sib in s.active for sib in bid.sibling_group())


@settings(max_examples=20, deadline=None)
@given(
    cx=st.floats(min_value=0.05, max_value=0.95),
    cy=st.floats(min_value=0.05, max_value=0.95),
    cz=st.floats(min_value=0.05, max_value=0.95),
    r=st.floats(min_value=0.05, max_value=0.3),
    steps=st.integers(min_value=1, max_value=3),
    init_x=st.sampled_from([1, 2]),
)
def test_property_refinement_preserves_invariants(cx, cy, cz, r, steps,
                                                  init_x):
    """Any sequence of refinements keeps cover + 2:1 + ownership sanity,
    and face neighbors match the blocks' geometry."""
    cfg = config(max_refine_level=2, init_x=init_x)
    s = MeshStructure(cfg)
    objects = [MovingObject(sphere(center=(cx, cy, cz), radius=r,
                                   move=(0.07, 0.0, 0.0)))]
    for _ in range(steps):
        plan = plan_refinement(s, objects)
        apply_plan(s, plan)
        assert s.check_cover()
        assert s.check_two_to_one()
        total = sum(len(s.blocks_of_rank(rk)) for rk in range(8))
        assert total == s.num_blocks()
        check_neighbor_geometry(s)
        objects[0].advance(1)


def check_neighbor_geometry(s):
    """``face_neighbors`` and ``face_coord`` against ``Grid.bounds``.

    The reference neighbors of a face are the active blocks whose boxes
    touch that face plane from the other side and overlap it with positive
    area.  Bounds are correctly rounded quotients, so equal rationals give
    equal floats and exact comparison is sound.
    """
    grid = s.grid
    box = {b: grid.bounds(b) for b in s.active}
    # (axis, low-or-high edge, coordinate) -> blocks with that edge there.
    by_edge = {}
    for b, bb in box.items():
        for axis in range(3):
            for side in (0, 1):
                by_edge.setdefault((axis, side, bb[axis][side]), []).append(b)
    for b, bb in box.items():
        for axis in range(3):
            plane = [a for a in range(3) if a != axis]
            for side in (0, 1):
                x = bb[axis][side]
                expected = {
                    n for n in by_edge.get((axis, 1 - side, x), [])
                    if all(max(bb[a][0], box[n][a][0])
                           < min(bb[a][1], box[n][a][1]) for a in plane)
                }
                got = s.face_neighbors(b, axis, side)
                assert {n for n, _rel in got} == expected
                assert len(got) == len(expected)
                for n, rel in got:
                    assert rel == {0: "same", -1: "coarser",
                                   1: "finer"}[n.level - b.level]
                at_boundary = x == (0.0, 1.0)[side]
                assert (grid.face_coord(b, axis, side) is None) == at_boundary


# ----------------------------------------------------------------------
# PlanBoard
# ----------------------------------------------------------------------
def test_planboard_computes_once():
    board = PlanBoard(num_ranks=3)
    calls = []

    def compute():
        calls.append(1)
        return "plan"

    for _ in range(3):
        assert board.get("k", compute) == "plan"
    assert len(calls) == 1
    # Entry dropped after all ranks consumed: next epoch recomputes.
    assert board.get("k", compute) == "plan"
    assert len(calls) == 2


def test_planboard_distinct_keys():
    board = PlanBoard(num_ranks=1)
    assert board.get(("a", 1), lambda: 1) == 1
    assert board.get(("a", 2), lambda: 2) == 2
