"""Tests for the Task-Aware MPI layer: request-to-task binding semantics."""

import pytest

from repro import tampi
from repro.machine import CostSpec, Machine, NetworkSpec, NodeSpec
from repro.mpi import World
from repro.simx import Environment
from repro.tasking import AccessMode, RankRuntime

IN = AccessMode.IN
OUT = AccessMode.OUT

FREE = CostSpec(task_spawn_overhead=0.0, task_dispatch_overhead=0.0,
                noise_amplitude=0.0, noise_spike_rate=0.0)


def make_setup(num_ranks=2, cores_per_rank=2):
    env = Environment()
    machine = Machine(
        node=NodeSpec(
            cores_per_node=num_ranks * cores_per_rank, sockets_per_node=1
        ),
        num_nodes=1,
        ranks_per_node=num_ranks,
    )
    world = World(env, machine, NetworkSpec())
    runtimes = [
        RankRuntime(env, rank=r, num_cores=cores_per_rank, cost_spec=FREE)
        for r in range(num_ranks)
    ]
    return env, world, runtimes


def send(comm, dest, tag, payload=None):
    """Blocking send for test scaffolding: post, then wait for landing."""
    req = yield from comm.isend(dest, tag, payload=payload)
    yield from comm.waitall([req])


def test_isend_task_completes_only_when_message_lands():
    """A TAMPI send task's dependencies are released at message landing."""
    env, world, (rt0, rt1) = make_setup()
    log = []

    def send_body(ctx):
        yield from tampi.isend(
            ctx, world.comm(0), dest=1, tag=1, nbytes=1 << 20
        )
        log.append(("body-done", env.now))

    def sender_main():
        yield rt0.charge_spawn()
        rt0.spawn("send", body=send_body, accesses=((IN, "buf"),))
        yield rt0.charge_spawn()
        rt0.spawn(
            "reuse", body=lambda: log.append(("reuse", env.now)),
            accesses=((OUT, "buf"),),
        )
        yield from rt0.taskwait()

    def receiver_main():
        yield from world.comm(1).recv(source=0, tag=1)

    env.process(sender_main())
    env.process(receiver_main())
    env.run()

    body_done = dict(log)["body-done"]
    reuse = dict(log)["reuse"]
    # The body finishes long before the 1 MiB message lands; the buffer
    # reuse task must wait for the landing (dependency held by TAMPI).
    assert reuse > body_done
    transit = NetworkSpec().transit_time(1 << 20, same_node=True)
    assert reuse >= body_done + transit * 0.5


def test_irecv_data_available_to_successor():
    env, world, (rt0, rt1) = make_setup()
    received = []
    holder = {}

    def recv_body(ctx):
        req = yield from tampi.irecv(
            ctx, world.comm(1), source=0, tag=2, nbytes=64
        )
        holder["req"] = req
        # Note: data NOT consumed here (may not have arrived yet).

    def unpack_body():
        received.append(holder["req"].data)

    def receiver_main():
        yield rt1.charge_spawn()
        rt1.spawn("recv", body=recv_body, accesses=((OUT, "rbuf"),))
        yield rt1.charge_spawn()
        rt1.spawn("unpack", body=unpack_body, accesses=((IN, "rbuf"),))
        yield from rt1.taskwait()

    def sender_main():
        yield env.timeout(3.0)
        yield from send(world.comm(0), dest=1, tag=2, payload="ghost-face")

    env.process(receiver_main())
    env.process(sender_main())
    env.run()
    assert received == ["ghost-face"]


def test_iwaitall_binds_multiple_requests():
    env, world, (rt0, rt1) = make_setup()
    unpack_times = []

    def recv_body(ctx):
        reqs = []
        for tag in (10, 11, 12):
            req = yield from world.comm(1).irecv(source=0, tag=tag)
            reqs.append(req)
        tampi.iwaitall(ctx, reqs)

    def receiver_main():
        yield rt1.charge_spawn()
        rt1.spawn("recv-all", body=recv_body, accesses=((OUT, "faces"),))
        yield rt1.charge_spawn()
        rt1.spawn(
            "consume",
            body=lambda: unpack_times.append(env.now),
            accesses=((IN, "faces"),),
        )
        yield from rt1.taskwait()

    def sender_main():
        comm = world.comm(0)
        for i, tag in enumerate((10, 11, 12)):
            yield env.timeout(2.0)  # staggered sends: last at t=6
            yield from send(comm, dest=1, tag=tag, payload=i)

    env.process(receiver_main())
    env.process(sender_main())
    env.run()
    # Consumer runs only after the LAST of the three messages arrived.
    assert unpack_times[0] > 6.0


def test_iwait_on_completed_request_is_noop():
    env, world, (rt0, rt1) = make_setup()
    done = []

    def recv_body(ctx):
        req = yield from world.comm(1).irecv(source=0, tag=5)
        if not req.completed:
            yield req.event  # wait inside the body
        tampi.iwait(ctx, req)  # binding now must not deadlock
        done.append(req.data)

    def receiver_main():
        yield rt1.charge_spawn()
        rt1.spawn("recv", body=recv_body)
        yield from rt1.taskwait()

    def sender_main():
        yield from send(world.comm(0), dest=1, tag=5, payload="x")

    env.process(receiver_main())
    env.process(sender_main())
    env.run()
    assert done == ["x"]


def test_computation_overlaps_inflight_communication():
    """The defining behaviour: while a TAMPI recv is in flight, other tasks
    keep executing on the rank's cores."""
    env, world, (rt0, rt1) = make_setup(cores_per_rank=2)
    stencil_times = []

    def recv_body(ctx):
        yield from tampi.irecv(ctx, world.comm(1), source=0, tag=3)

    def receiver_main():
        yield rt1.charge_spawn()
        rt1.spawn("recv", body=recv_body, accesses=((OUT, "ghost"),))
        for i in range(4):
            yield rt1.charge_spawn()
            rt1.spawn(
                f"stencil{i}",
                cost=1.0,
                body=lambda: stencil_times.append(env.now),
            )
        yield rt1.charge_spawn()
        rt1.spawn("unpack", accesses=((IN, "ghost"),))
        yield from rt1.taskwait()

    def sender_main():
        yield env.timeout(10.0)
        yield from send(world.comm(0), dest=1, tag=3, payload="late")

    env.process(receiver_main())
    env.process(sender_main())
    env.run()
    # All four independent stencils completed well before the message at
    # t=10: communication wait did not block the cores.
    assert len(stencil_times) == 4
    assert max(stencil_times) < 10.0
    assert env.now >= 10.0  # run ended after the late message


def test_bind_request_to_completed_task_rejected():
    env, world, (rt0, rt1) = make_setup()

    def main():
        yield rt0.charge_spawn()
        task = rt0.spawn("t", cost=0.0)
        yield from rt0.taskwait()
        req = yield from world.comm(0).irecv(source=1, tag=0)
        with pytest.raises(ValueError):
            rt0.bind_request(task, req)
        # Unblock the pending receive so the run drains.
        yield from send(world.comm(1), dest=0, tag=0, payload=None)

    env.process(main())
    env.run()
