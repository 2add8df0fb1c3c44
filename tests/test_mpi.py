"""Unit tests for the simulated MPI library."""

import numpy as np
import pytest

from repro.machine import NetworkSpec, NodeSpec, Machine
from repro.mpi import World, payload_nbytes
from repro.simx import Environment


def make_world(num_nodes=1, ranks_per_node=2, cores_per_node=4,
               network=None):
    env = Environment()
    machine = Machine(
        node=NodeSpec(cores_per_node=cores_per_node, sockets_per_node=1),
        num_nodes=num_nodes,
        ranks_per_node=ranks_per_node,
    )
    world = World(env, machine, network or NetworkSpec())
    return env, world


def send(comm, dest, tag, nbytes=None, payload=None):
    """Blocking send for test scaffolding: post, then wait for landing."""
    req = yield from comm.isend(dest, tag, nbytes=nbytes, payload=payload)
    yield from comm.waitall([req])


# ----------------------------------------------------------------------
# Point-to-point
# ----------------------------------------------------------------------
def test_send_recv_payload():
    env, world = make_world()
    received = []

    def sender(comm):
        yield from send(comm, dest=1, tag=5, payload={"x": 1})

    def receiver(comm):
        req = yield from comm.recv(source=0, tag=5)
        received.append(req.data)

    env.process(sender(world.comm(0)))
    env.process(receiver(world.comm(1)))
    env.run()
    assert received == [{"x": 1}]


def test_integer_cpu_costs_still_charge():
    """A machine read from JSON may carry integer costs; every CPU charge
    must still be a float delay a process can sleep on."""
    env, world = make_world(network=NetworkSpec(
        send_overhead=0, recv_overhead=1, byte_overhead=0, match_scan_cost=2,
    ))
    got = []

    def sender(comm):
        for tag in (1, 2):
            yield from send(comm, dest=1, tag=tag, payload=tag)
        yield from comm.barrier()

    def receiver(comm):
        yield env.timeout(10.0)  # both messages wait as unexpected
        req = yield from comm.recv(source=0, tag=2)
        got.append((req.data, env.now))
        yield from comm.barrier()

    env.process(sender(world.comm(0)))
    env.process(receiver(world.comm(1)))
    env.run()
    # Posting costs 1 s, and the match scans one earlier message: 2 s.
    assert got == [(2, 13.0)]


def test_isend_irecv_numpy_roundtrip():
    env, world = make_world()
    out = []

    def sender(comm):
        data = np.arange(100, dtype=np.float64)
        req = yield from comm.isend(dest=1, tag=3, payload=data)
        yield from comm.waitall([req])

    def receiver(comm):
        req = yield from comm.irecv(source=0, tag=3)
        yield from comm.waitall([req])
        out.append(req.data)

    env.process(sender(world.comm(0)))
    env.process(receiver(world.comm(1)))
    env.run()
    assert np.array_equal(out[0], np.arange(100, dtype=np.float64))


def test_recv_before_send_matches():
    env, world = make_world()
    order = []

    def receiver(comm):
        req = yield from comm.recv(source=0, tag=9)
        order.append(("recv-done", req.data))

    def sender(comm):
        yield comm.env.timeout(1.0)  # receiver posts first
        yield from send(comm, dest=1, tag=9, payload="late")

    env.process(receiver(world.comm(1)))
    env.process(sender(world.comm(0)))
    env.run()
    assert order == [("recv-done", "late")]


def test_unexpected_message_queued_until_recv():
    env, world = make_world()
    got = []

    def sender(comm):
        yield from send(comm, dest=1, tag=1, payload="early")

    def receiver(comm):
        yield comm.env.timeout(5.0)  # message arrives before post
        req = yield from comm.recv(source=0, tag=1)
        got.append(req.data)

    env.process(sender(world.comm(0)))
    env.process(receiver(world.comm(1)))
    env.run()
    assert got == ["early"]


def test_tag_matching_selects_correct_message():
    env, world = make_world()
    got = {}

    def sender(comm):
        yield from send(comm, dest=1, tag=10, payload="ten")
        yield from send(comm, dest=1, tag=20, payload="twenty")

    def receiver(comm):
        req20 = yield from comm.recv(source=0, tag=20)
        req10 = yield from comm.recv(source=0, tag=10)
        got[20] = req20.data
        got[10] = req10.data

    env.process(sender(world.comm(0)))
    env.process(receiver(world.comm(1)))
    env.run()
    assert got == {20: "twenty", 10: "ten"}


def test_non_overtaking_same_channel():
    """A big message sent first must match before a later small one."""
    env, world = make_world()
    got = []

    def sender(comm):
        big = np.zeros(1 << 20)
        req1 = yield from comm.isend(dest=1, tag=4, payload=big)
        req2 = yield from comm.isend(dest=1, tag=4, payload="small")
        yield from comm.waitall([req1, req2])

    def receiver(comm):
        r1 = yield from comm.recv(source=0, tag=4)
        r2 = yield from comm.recv(source=0, tag=4)
        got.append(isinstance(r1.data, np.ndarray))
        got.append(r2.data)

    env.process(sender(world.comm(0)))
    env.process(receiver(world.comm(1)))
    env.run()
    assert got == [True, "small"]


def test_send_to_self():
    env, world = make_world()
    got = []

    def proc(comm):
        sreq = yield from comm.isend(dest=0, tag=2, payload="me")
        rreq = yield from comm.recv(source=0, tag=2)
        yield from comm.waitall([sreq])
        got.append(rreq.data)

    env.process(proc(world.comm(0)))
    env.run()
    assert got == ["me"]


def test_invalid_dest_rejected():
    env, world = make_world()

    def proc(comm):
        yield from comm.isend(dest=99, tag=0, payload=None)

    env.process(proc(world.comm(0)))
    with pytest.raises(ValueError):
        env.run()


@pytest.mark.parametrize("source", [-1, 2])
def test_invalid_source_rejected(source):
    """Receives match exact envelopes: a source outside the world (-1 is
    MPI's customary ``ANY_SOURCE`` value) could never match, so it is
    refused instead of stalling the rank."""
    env, world = make_world()
    assert source in (-1, world.size)

    def proc(comm):
        yield from comm.irecv(source=source, tag=0)

    env.process(proc(world.comm(0)))
    with pytest.raises(ValueError, match="invalid source rank"):
        env.run()


# ----------------------------------------------------------------------
# Matching cost: a scan step per earlier queue entry from the same source
# ----------------------------------------------------------------------
SCAN = 1e-3  # large next to every other cost, so steps are unmistakable


def _posted_match_delay(k, other_source_receives=0):
    """How long after landing a message completes when it matches the k-th
    receive rank 2 posted from rank 0 (after ``other_source_receives``
    receives posted from rank 1)."""
    env, world = make_world(
        ranks_per_node=3, cores_per_node=3,
        network=NetworkSpec(match_scan_cost=SCAN),
    )
    done, landed = [], []

    def receiver(comm):
        for tag in range(other_source_receives):
            yield from comm.irecv(source=1, tag=tag)
        reqs = []
        for tag in range(1, k + 1):
            reqs.append((yield from comm.irecv(source=0, tag=tag)))
        yield reqs[-1].event
        assert reqs[-1].data == "hit"
        done.append(env.now)

    def sender(comm):
        yield env.timeout(1.0)  # every receive is posted by now
        req = yield from comm.isend(dest=2, tag=k, payload="hit")
        yield req.event  # a send completes when its message lands
        landed.append(env.now)

    env.process(receiver(world.comm(2)))
    env.process(sender(world.comm(0)))
    env.run()
    return done[0] - landed[0]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_posted_match_pays_one_scan_step_per_earlier_receive(k):
    assert _posted_match_delay(k) == pytest.approx((k - 1) * SCAN)


@pytest.mark.parametrize("k", [1, 3])
def test_posted_receives_from_other_sources_cost_nothing(k):
    assert _posted_match_delay(k, other_source_receives=4) == (
        pytest.approx((k - 1) * SCAN)
    )


def _unexpected_match_cost(k, other_source_messages=0):
    """How long rank 2's ``irecv`` takes when its message is the k-th of
    the unexpected messages from rank 0 (with ``other_source_messages``
    from rank 1 landed too)."""
    env, world = make_world(
        ranks_per_node=3, cores_per_node=3,
        network=NetworkSpec(match_scan_cost=SCAN),
    )
    done = []

    def sender(comm, count):
        for tag in range(1, count + 1):
            yield from comm.isend(dest=2, tag=tag, payload=tag)

    def receiver(comm):
        yield env.timeout(1.0)  # every message has landed by now
        t0 = env.now
        req = yield from comm.irecv(source=0, tag=k)
        assert req.completed and req.data == k
        done.append(env.now - t0)

    env.process(sender(world.comm(0), k))
    env.process(sender(world.comm(1), other_source_messages))
    env.process(receiver(world.comm(2)))
    env.run()
    return done[0] - world.network.recv_cpu_time(0)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_unexpected_match_pays_one_scan_step_per_earlier_message(k):
    assert _unexpected_match_cost(k) == pytest.approx((k - 1) * SCAN)


@pytest.mark.parametrize("k", [1, 2])
def test_unexpected_messages_from_other_sources_cost_nothing(k):
    assert _unexpected_match_cost(k, other_source_messages=4) == (
        pytest.approx((k - 1) * SCAN)
    )


# ----------------------------------------------------------------------
# Waitany / waitall
# ----------------------------------------------------------------------
def test_waitany_returns_first_completed():
    env, world = make_world(ranks_per_node=3, cores_per_node=3)
    indices = []

    def slow_sender(comm):
        yield comm.env.timeout(10.0)
        yield from send(comm, dest=2, tag=1, payload="slow")

    def fast_sender(comm):
        yield from send(comm, dest=2, tag=2, payload="fast")

    def receiver(comm):
        r_slow = yield from comm.irecv(source=0, tag=1)
        r_fast = yield from comm.irecv(source=1, tag=2)
        reqs = [r_slow, r_fast]
        for _ in range(2):
            idx, req = yield from comm.waitany(reqs)
            indices.append((idx, req.data))
            reqs[idx] = None

    env.process(slow_sender(world.comm(0)))
    env.process(fast_sender(world.comm(1)))
    env.process(receiver(world.comm(2)))
    env.run()
    assert indices == [(1, "fast"), (0, "slow")]


def test_waitany_on_all_none_raises():
    env, world = make_world()

    def proc(comm):
        yield from comm.waitany([None, None])

    env.process(proc(world.comm(0)))
    with pytest.raises(ValueError):
        env.run()


# ----------------------------------------------------------------------
# Timing model
# ----------------------------------------------------------------------
def test_intra_node_message_faster_than_inter_node():
    def elapsed(num_nodes, ranks_per_node, dest):
        env, world = make_world(
            num_nodes=num_nodes,
            ranks_per_node=ranks_per_node,
            cores_per_node=4,
        )
        done = []

        def sender(comm):
            yield from send(comm, dest=dest, tag=0, nbytes=1 << 20)

        def receiver(comm):
            yield from comm.recv(source=0, tag=0)
            done.append(comm.env.now)

        env.process(sender(world.comm(0)))
        env.process(receiver(world.comm(dest)))
        env.run()
        return done[0]

    intra = elapsed(num_nodes=1, ranks_per_node=2, dest=1)
    inter = elapsed(num_nodes=2, ranks_per_node=1, dest=1)
    assert intra < inter


def test_larger_message_takes_longer():
    def elapsed(nbytes):
        env, world = make_world()
        done = []

        def sender(comm):
            yield from send(comm, dest=1, tag=0, nbytes=nbytes)

        def receiver(comm):
            yield from comm.recv(source=0, tag=0)
            done.append(comm.env.now)

        env.process(sender(world.comm(0)))
        env.process(receiver(world.comm(1)))
        env.run()
        return done[0]

    assert elapsed(1 << 22) > elapsed(1 << 10)


def test_stats_count_messages_and_bytes():
    env, world = make_world(num_nodes=2, ranks_per_node=1, cores_per_node=4)

    def sender(comm):
        yield from send(comm, dest=1, tag=0, nbytes=1000)

    def receiver(comm):
        yield from comm.recv(source=0, tag=0)

    env.process(sender(world.comm(0)))
    env.process(receiver(world.comm(1)))
    env.run()
    assert world.stats.messages == 1
    assert world.stats.bytes_sent == 1000
    assert world.stats.inter_node_messages == 1
    assert world.stats.intra_node_messages == 0


# ----------------------------------------------------------------------
# Collectives
# ----------------------------------------------------------------------
def run_collective(nranks, body):
    env, world = make_world(ranks_per_node=nranks, cores_per_node=nranks)
    results = {}

    def proc(rank):
        comm = world.comm(rank)
        results[rank] = yield from body(comm, rank)

    for r in range(nranks):
        env.process(proc(r))
    env.run()
    return results, world


def test_allreduce_sum():
    results, _ = run_collective(
        4, lambda comm, rank: comm.allreduce(rank + 1)
    )
    assert all(v == 10 for v in results.values())


def test_allreduce_numpy_arrays():
    results, _ = run_collective(
        4,
        lambda comm, rank: comm.allreduce(
            np.full(5, float(rank))
        ),
    )
    assert np.array_equal(results[0], np.full(5, 6.0))


def test_barrier_synchronizes_ranks():
    env, world = make_world(ranks_per_node=3, cores_per_node=3)
    exit_times = {}

    def proc(rank, delay):
        comm = world.comm(rank)
        yield env.timeout(delay)
        yield from comm.barrier()
        exit_times[rank] = env.now

    env.process(proc(0, 1.0))
    env.process(proc(1, 5.0))
    env.process(proc(2, 3.0))
    env.run()
    assert len(set(exit_times.values())) == 1
    assert exit_times[0] > 5.0  # nobody leaves before the last enters


def test_collective_kind_mismatch_detected():
    env, world = make_world()

    def good(comm):
        yield from comm.barrier()

    def bad(comm):
        yield from comm.allreduce(1)

    env.process(good(world.comm(0)))
    env.process(bad(world.comm(1)))
    with pytest.raises(RuntimeError, match="collective mismatch"):
        env.run()


def test_successive_collectives_keep_order():
    results, _ = run_collective(
        2,
        lambda comm, rank: _two_collectives(comm, rank),
    )
    assert results[0] == (1, 30)
    assert results[1] == (1, 30)


def _two_collectives(comm, rank):
    first = yield from comm.allreduce(rank)
    second = yield from comm.allreduce(10 * (rank + 1))
    return (first, second)


def test_collectives_counted_in_stats():
    _, world = run_collective(2, lambda comm, rank: comm.barrier())
    assert world.stats.collectives == 1


def test_payload_nbytes_estimates():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(np.zeros(10)) == 80
    assert payload_nbytes(b"abcd") == 4
    assert payload_nbytes([1, 2, 3]) == 24
    assert payload_nbytes(3.14) == 8
