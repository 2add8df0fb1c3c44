"""Tests for load balancing and communication planning."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import (
    AmrConfig,
    MeshStructure,
    MovingObject,
    apply_plan,
    build_all_rank_plans,
    build_global_transfers,
    direction_tag,
    group_nbytes,
    max_imbalance,
    message_groups,
    plan_moves,
    plan_partition,
    plan_refinement,
    sfc_order,
    sphere,
)
from repro.amr.comm_plan import DIRECTION_TAG_STRIDE, FaceTransfer
from repro.amr.ids import face_quadrant


def config(**kw):
    defaults = dict(
        npx=2, npy=2, npz=2, init_x=1, init_y=1, init_z=1,
        nx=4, ny=4, nz=4, num_vars=2, max_refine_level=2,
    )
    defaults.update(kw)
    return AmrConfig(**defaults)


def refined_structure():
    s = MeshStructure(config())
    obj = [MovingObject(sphere(center=(0.25, 0.25, 0.25), radius=0.3))]
    apply_plan(s, plan_refinement(s, obj))
    return s


# ----------------------------------------------------------------------
# Balance
# ----------------------------------------------------------------------
def test_sfc_order_is_total_and_stable():
    s = refined_structure()
    order = sfc_order(s)
    assert len(order) == s.num_blocks()
    assert order == sfc_order(s)  # deterministic


def test_partition_counts_within_one():
    s = refined_structure()
    target = plan_partition(s, 8)
    counts = {}
    for rank in target.values():
        counts[rank] = counts.get(rank, 0) + 1
    assert max(counts.values()) - min(counts.values()) <= 1
    assert sum(counts.values()) == s.num_blocks()


def test_partition_chunks_are_contiguous_in_sfc_order():
    s = refined_structure()
    target = plan_partition(s, 4)
    ranks_in_order = [target[b] for b in sfc_order(s)]
    # Rank ids must be non-decreasing along the curve.
    assert ranks_in_order == sorted(ranks_in_order)


def test_plan_moves_diff_only():
    s = refined_structure()
    target = {bid: s.owner[bid] for bid in s.active}
    assert plan_moves(s, target).is_empty
    some = sorted(s.active)[0]
    target[some] = (s.owner[some] + 1) % 8
    mp = plan_moves(s, target)
    assert len(mp) == 1
    assert mp.moves[some] == (s.owner[some], target[some])


def test_moveplan_incoming_outgoing_views():
    s = refined_structure()
    target = plan_partition(s, 8)
    mp = plan_moves(s, target)
    assert len(mp) > 0
    sent, received = [], []
    for rank in range(8):
        outgoing = [(bid, dst) for bid, (src, dst) in mp.moves.items()
                    if src == rank]
        incoming = [(bid, src) for bid, (src, dst) in mp.moves.items()
                    if dst == rank]
        for bid, dst in outgoing:
            assert s.owner[bid] == rank and target[bid] == dst != rank
        for bid, src in incoming:
            assert s.owner[bid] == src != rank and target[bid] == rank
        sent += [bid for bid, _dst in outgoing]
        received += [bid for bid, _src in incoming]
    # Every move leaves exactly one rank and arrives at exactly one.
    assert sorted(sent) == sorted(received) == sorted(mp.moves)


def test_max_imbalance_after_partition():
    s = refined_structure()
    target = plan_partition(s, 8)
    for bid, rank in target.items():
        s.set_owner(bid, rank)
    assert max_imbalance(s) < 1.2


# ----------------------------------------------------------------------
# Communication plan
# ----------------------------------------------------------------------
def test_global_transfers_cover_every_interior_face():
    cfg = config()
    s = MeshStructure(cfg)
    transfers = build_global_transfers(s, cfg, cfg.num_vars)
    # 2x2x2 root mesh: 4 interior faces per axis, each with 2 directed
    # transfers.
    for axis in (0, 1, 2):
        assert len(transfers[axis]) == 8


def test_transfers_symmetric_src_dst():
    cfg = config()
    s = MeshStructure(cfg)
    transfers = build_global_transfers(s, cfg, cfg.num_vars)
    for axis in (0, 1, 2):
        pairs = {(t.src, t.dst) for t in transfers[axis]}
        assert all((dst, src) in pairs for src, dst in pairs)


def _rank_plan_reference(s, cfg, rank):
    """One rank's (local, sends, recvs) per axis, sliced the O(transfers)
    per rank way from the global transfer list."""
    transfers = build_global_transfers(s, cfg, cfg.num_vars)
    plans = []
    for axis in (0, 1, 2):
        plan = SimpleNamespace(local=[], sends={}, recvs={})
        for t in transfers[axis]:
            src, dst = s.owner[t.src], s.owner[t.dst]
            if src == rank and dst == rank:
                plan.local.append(t)
            elif src == rank:
                plan.sends.setdefault(dst, []).append(t)
            elif dst == rank:
                plan.recvs.setdefault(src, []).append(t)
        plans.append(plan)
    return plans


def test_rank_plan_consistent_with_all_rank_plans():
    cfg = config()
    s = refined_structure()
    all_plans = build_all_rank_plans(s, cfg, cfg.num_vars)
    for rank in (0, 3, 7):
        solo = _rank_plan_reference(s, cfg, rank)
        for axis in (0, 1, 2):
            assert solo[axis].local == all_plans[rank][axis].local
            assert solo[axis].sends == all_plans[rank][axis].sends
            assert solo[axis].recvs == all_plans[rank][axis].recvs


def test_sender_receiver_see_matching_streams():
    """rank A's sends to B equal B's recvs from A, element for element —
    the property that makes implicit tag agreement work."""
    cfg = config()
    s = refined_structure()
    plans = build_all_rank_plans(s, cfg, cfg.num_vars)
    for a in range(8):
        for axis in (0, 1, 2):
            for b, sends in plans[a][axis].sends.items():
                recvs = plans[b][axis].recvs[a]
                assert sends == recvs


def test_cross_level_transfers_are_quarter_sized():
    cfg = config()
    s = refined_structure()
    transfers = build_global_transfers(s, cfg, cfg.num_vars)
    full = cfg.face_bytes(0, cfg.num_vars, cross_level=False)
    quarter = cfg.face_bytes(0, cfg.num_vars, cross_level=True)
    assert quarter * 4 == full
    rels = {t.rel for ax in transfers.values() for t in ax}
    assert rels == {"same", "finer", "coarser"}
    for ax in transfers.values():
        for t in ax:
            expected = quarter if t.rel != "same" else full
            assert t.nbytes == expected


def test_finer_transfer_has_four_siblings_per_coarse_face():
    cfg = config()
    s = refined_structure()
    transfers = build_global_transfers(s, cfg, cfg.num_vars)
    finer = [t for t in transfers[0] if t.rel == "finer"]
    by_dst_side = {}
    for t in finer:
        by_dst_side.setdefault((t.dst, t.side), set()).add(t.quadrant)
    for quadrants in by_dst_side.values():
        assert quadrants == {(0, 0), (0, 1), (1, 0), (1, 1)}


def _reference_transfers(s, cfg, nvars):
    """Per-face ``face_neighbors``, the ``FaceTransfer`` constructor and a
    sort on ``(dst, side, src)``."""
    per_axis = {0: [], 1: [], 2: []}
    for dst in sorted(s.active):
        for axis in (0, 1, 2):
            for side in (0, 1):
                for src, rel in s.face_neighbors(dst, axis, side):
                    if rel == "same":
                        quadrant = ()
                    elif rel == "finer":
                        quadrant = face_quadrant(src, axis)
                    else:
                        quadrant = face_quadrant(dst, axis)
                    per_axis[axis].append(FaceTransfer(
                        src, dst, axis, side, rel, quadrant,
                        cfg.face_bytes(axis, nvars, rel != "same"),
                    ))
    for transfers in per_axis.values():
        transfers.sort(key=lambda t: (t.dst, t.side, t.src))
    return per_axis


def test_global_transfers_match_the_per_face_reference():
    cfg = config()
    s = MeshStructure(cfg)
    objects = [MovingObject(sphere(center=(0.05, 0.05, 0.05), radius=0.08))]
    for _ in range(2):
        apply_plan(s, plan_refinement(s, objects))
    assert {b.level for b in s.active} == {0, 1, 2}
    got = build_global_transfers(s, cfg, cfg.num_vars)
    expected = _reference_transfers(s, cfg, cfg.num_vars)
    assert got == expected
    for axis in (0, 1, 2):
        assert all(type(t) is FaceTransfer for t in got[axis])
    assert {t.rel for ts in got.values() for t in ts} == {
        "same", "finer", "coarser"}


def test_comm_plans_walk_each_block_once(monkeypatch):
    """An epoch's plans come from one ``all_neighbors`` walk per block,
    never from a ``face_neighbors`` call per face."""
    cfg = config()
    s = MeshStructure(cfg)
    objects = [MovingObject(sphere(center=(0.05, 0.05, 0.05), radius=0.08))]
    for _ in range(2):
        apply_plan(s, plan_refinement(s, objects))
    assert {b.level for b in s.active} == {0, 1, 2}

    def per_face(*args):
        raise AssertionError("comm plans walk faces one call each")

    monkeypatch.setattr(MeshStructure, "face_neighbors", per_face)
    plans = build_all_rank_plans(s, cfg, cfg.num_vars)
    assert sorted(plans) == list(range(cfg.num_ranks))
    rels = {t.rel for dirs in plans.values() for d in dirs
            for ts in (d.local, *d.sends.values()) for t in ts}
    assert rels == {"same", "finer", "coarser"}


# ----------------------------------------------------------------------
# Message grouping
# ----------------------------------------------------------------------
def _fake_transfers(n):
    cfg = config()
    s = MeshStructure(cfg)
    transfers = build_global_transfers(s, cfg, cfg.num_vars)[0]
    assert len(transfers) >= n
    return transfers[:n]


def test_default_grouping_single_message():
    ts = _fake_transfers(6)
    groups = message_groups(ts, send_faces=False, max_comm_tasks=0)
    assert len(groups) == 1
    assert groups[0] == ts


def test_send_faces_one_message_per_face():
    ts = _fake_transfers(6)
    groups = message_groups(ts, send_faces=True, max_comm_tasks=0)
    assert len(groups) == 6


def test_max_comm_tasks_caps_messages():
    ts = _fake_transfers(6)
    groups = message_groups(ts, send_faces=True, max_comm_tasks=4)
    assert len(groups) == 4
    assert sum(len(g) for g in groups) == 6


def test_max_comm_tasks_larger_than_faces():
    ts = _fake_transfers(3)
    groups = message_groups(ts, send_faces=True, max_comm_tasks=10)
    assert len(groups) == 3


def test_empty_transfers_no_groups():
    assert message_groups([], send_faces=True, max_comm_tasks=2) == []


def test_group_nbytes_sums():
    ts = _fake_transfers(4)
    assert group_nbytes(ts) == sum(t.nbytes for t in ts)


def test_direction_tags_disjoint_per_axis():
    assert direction_tag(0, 5) < DIRECTION_TAG_STRIDE
    assert direction_tag(1, 0) == DIRECTION_TAG_STRIDE
    assert direction_tag(2, 7) == 2 * DIRECTION_TAG_STRIDE + 7


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    cap=st.integers(min_value=0, max_value=12),
    send_faces=st.booleans(),
)
def test_property_grouping_partitions_transfers(n, cap, send_faces):
    """Grouping never loses, duplicates, or reorders transfers."""
    ts = list(range(n))  # any hashables work
    groups = message_groups(ts, send_faces=send_faces, max_comm_tasks=cap)
    flat = [t for g in groups for t in g]
    assert sorted(flat) == ts
    if not send_faces:
        assert len(groups) == 1
    elif cap > 0:
        assert len(groups) <= max(cap, 1)
