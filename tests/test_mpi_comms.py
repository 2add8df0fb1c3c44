"""Tests for gather/scatter/reduce_scatter and communicator management."""

import pytest

from repro.machine import Machine, NetworkSpec, NodeSpec
from repro.mpi import SUM, World
from repro.obs import Profiler, Tracer
from repro.simx import Environment


def make_world(nranks=4, profiler=None):
    env = Environment()
    machine = Machine(
        node=NodeSpec(cores_per_node=nranks, sockets_per_node=1),
        num_nodes=1,
        ranks_per_node=nranks,
    )
    return env, World(env, machine, NetworkSpec(), profiler=profiler)


def run_all(env, world, body, nranks=4):
    results = {}

    def proc(rank):
        results[rank] = yield from body(world.comm(rank), rank)

    for r in range(nranks):
        env.process(proc(r))
    env.run()
    return results


# ----------------------------------------------------------------------
# New collectives
# ----------------------------------------------------------------------
def test_gather_collects_at_root():
    env, world = make_world()
    res = run_all(env, world, lambda c, r: c.gather(r * 10, root=1))
    assert res[1] == [0, 10, 20, 30]
    assert res[0] is None and res[2] is None and res[3] is None


def test_scatter_distributes_from_root():
    def body(comm, rank):
        values = ["a", "b", "c", "d"] if rank == 2 else None
        return (yield from comm.scatter(values, root=2))

    env, world = make_world()
    res = run_all(env, world, body)
    assert res == {0: "a", 1: "b", 2: "c", 3: "d"}


def test_scatter_wrong_length_rejected():
    env, world = make_world()

    def proc(comm):
        yield from comm.scatter([1, 2], root=0)

    env.process(proc(world.comm(0)))
    with pytest.raises(ValueError):
        env.run()


def test_reduce_scatter_sums_columns():
    def body(comm, rank):
        # rank r contributes [r, r+1, r+2, r+3]
        return (
            yield from comm.reduce_scatter(
                [rank + d for d in range(4)], op=SUM
            )
        )

    env, world = make_world()
    res = run_all(env, world, body)
    # destination d receives sum_r (r + d) = 6 + 4d
    assert res == {0: 6, 1: 10, 2: 14, 3: 18}


# ----------------------------------------------------------------------
# Communicator duplication and splitting
# ----------------------------------------------------------------------
def test_dup_is_independent_channel():
    env, world = make_world(2)
    got = []

    def rank0(comm):
        dup = yield from comm.dup()
        # Same tag on the two communicators must not cross-match.
        yield from comm.send(dest=1, tag=7, payload="world")
        yield from dup.send(dest=1, tag=7, payload="dup")

    def rank1(comm):
        dup = yield from comm.dup()
        r_dup = yield from dup.recv(source=0, tag=7)
        r_world = yield from comm.recv(source=0, tag=7)
        got.append((r_dup.data, r_world.data))

    env.process(rank0(world.comm(0)))
    env.process(rank1(world.comm(1)))
    env.run()
    assert got == [("dup", "world")]


def test_dup_preserves_rank_and_size():
    env, world = make_world(3)

    def body(comm, rank):
        dup = yield from comm.dup()
        return (dup.Get_rank(), dup.Get_size())

    res = run_all(env, world, body, nranks=3)
    assert res == {0: (0, 3), 1: (1, 3), 2: (2, 3)}


def test_split_by_parity():
    def body(comm, rank):
        sub = yield from comm.split(color=rank % 2, key=rank)
        total = yield from sub.allreduce(rank)
        return (sub.Get_rank(), sub.Get_size(), total)

    env, world = make_world()
    res = run_all(env, world, body)
    # Evens: world ranks 0, 2 -> local 0, 1; sum 2.
    assert res[0] == (0, 2, 2)
    assert res[2] == (1, 2, 2)
    # Odds: world ranks 1, 3; sum 4.
    assert res[1] == (0, 2, 4)
    assert res[3] == (1, 2, 4)


def test_split_undefined_color_returns_none():
    def body(comm, rank):
        color = None if rank == 0 else 1
        sub = yield from comm.split(color=color, key=rank)
        if sub is None:
            return None
        yield from sub.barrier()
        return sub.Get_size()

    env, world = make_world(3)
    res = run_all(env, world, body, nranks=3)
    assert res[0] is None
    assert res[1] == 2 and res[2] == 2


def test_split_key_reorders_ranks():
    def body(comm, rank):
        sub = yield from comm.split(color=0, key=-rank)  # reverse order
        return sub.Get_rank()

    env, world = make_world(3)
    res = run_all(env, world, body, nranks=3)
    assert res == {0: 2, 1: 1, 2: 0}


def test_p2p_inside_split_comm():
    def body(comm, rank):
        sub = yield from comm.split(color=rank // 2, key=rank)
        # Local rank 0 sends to local rank 1 within each half.
        if sub.Get_rank() == 0:
            yield from sub.send(dest=1, tag=3, payload=f"from{rank}")
            return None
        req = yield from sub.recv(source=0, tag=3)
        return req.data

    env, world = make_world(profiler=Profiler())
    res = run_all(env, world, body)
    assert res[1] == "from0"
    assert res[3] == "from2"
    # The trace files each call under its world rank, not the rank
    # within the split communicator.
    calls = {}
    for e in Tracer.from_profiler(world.profiler).by_kind("mpi"):
        calls.setdefault(e.rank, set()).add(e.name)
    assert "Isend" in calls[2] and "Isend" in calls[0]
    assert calls[3] & {"Irecv", "Recv"}
    assert calls[1] & {"Irecv", "Recv"}
    assert not calls[2] & {"Irecv", "Recv"}
    assert not calls[3] & {"Isend"}
