"""Unit tests for the OmpSs-2-like tasking runtime."""

import pytest

from repro.machine import CostSpec
from repro.obs import Profiler
from repro.simx import Environment
from repro.tasking import (
    AccessMode,
    DependencyTracker,
    ForkJoinTeam,
    RankRuntime,
    Task,
    TaskState,
    normalize_accesses,
)

IN = AccessMode.IN
OUT = AccessMode.OUT

FREE = CostSpec(
    task_spawn_overhead=0.0,
    task_dispatch_overhead=0.0,
    forkjoin_region_overhead=0.0,
    noise_amplitude=0.0,
    noise_spike_rate=0.0,
)


def make_runtime(num_cores=2, scheduler="locality", cost_spec=FREE):
    env = Environment()
    rt = RankRuntime(
        env, num_cores=num_cores, cost_spec=cost_spec, scheduler=scheduler
    )
    return env, rt


def run_main(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc


# ----------------------------------------------------------------------
# Task object
# ----------------------------------------------------------------------
def test_task_rejects_negative_cost():
    env = Environment()
    with pytest.raises(ValueError):
        Task(env, "t", cost=-1.0)


def test_task_rejects_sublinear_locality_factor():
    env = Environment()
    with pytest.raises(ValueError):
        Task(env, "t", locality_factor=0.5)


def test_spawn_rejects_nan_cost():
    # A NaN cost would stretch to NaN, skip the sleep and run in no time.
    env, rt = make_runtime(cost_spec=CostSpec())
    with pytest.raises(ValueError):
        rt.spawn("x", cost=float("nan"))
    assert rt.outstanding == 0


def test_task_rejects_nan_locality_factor():
    env = Environment()
    with pytest.raises(ValueError):
        Task(env, "t", locality_factor=float("nan"))


def test_normalize_accesses_modes():
    acc = normalize_accesses(ins=["a"], outs=["b"], inouts=["c"])
    assert acc == (
        (AccessMode.IN, "a"),
        (AccessMode.OUT, "b"),
        (AccessMode.INOUT, "c"),
    )


# ----------------------------------------------------------------------
# Dependency tracker
# ----------------------------------------------------------------------
def dep_task(env, ins=(), outs=(), inouts=()):
    return Task(env, "t", accesses=normalize_accesses(ins, outs, inouts))


def test_reader_depends_on_last_writer():
    env = Environment()
    tracker = DependencyTracker()
    writer = dep_task(env, outs=["x"])
    reader = dep_task(env, ins=["x"])
    tracker.register(writer)
    tracker.register(reader)
    assert reader.npred == 1
    assert reader in writer.successors


def test_parallel_readers_do_not_depend_on_each_other():
    env = Environment()
    tracker = DependencyTracker()
    writer = dep_task(env, outs=["x"])
    r1 = dep_task(env, ins=["x"])
    r2 = dep_task(env, ins=["x"])
    for t in (writer, r1, r2):
        tracker.register(t)
    assert r1.npred == 1 and r2.npred == 1
    assert r1 not in r2.successors and r2 not in r1.successors


def test_writer_after_readers_waits_for_all():
    env = Environment()
    tracker = DependencyTracker()
    w1 = dep_task(env, outs=["x"])
    r1 = dep_task(env, ins=["x"])
    r2 = dep_task(env, ins=["x"])
    w2 = dep_task(env, outs=["x"])
    for t in (w1, r1, r2, w2):
        tracker.register(t)
    assert w2.npred == 3  # both readers + antidependence on w1


def test_independent_handles_independent_tasks():
    env = Environment()
    tracker = DependencyTracker()
    a = dep_task(env, outs=["x"])
    b = dep_task(env, outs=["y"])
    tracker.register(a)
    tracker.register(b)
    assert b.npred == 0


def test_multidep_union_of_handles():
    env = Environment()
    tracker = DependencyTracker()
    w1 = dep_task(env, outs=["x"])
    w2 = dep_task(env, outs=["y"])
    consumer = dep_task(env, ins=["x", "y"])
    for t in (w1, w2, consumer):
        tracker.register(t)
    assert consumer.npred == 2


def test_self_dependency_excluded():
    env = Environment()
    tracker = DependencyTracker()
    t = dep_task(env, ins=["x"], outs=["x"])
    tracker.register(t)
    assert t.npred == 0


# ----------------------------------------------------------------------
# Runtime execution
# ----------------------------------------------------------------------
def test_single_task_executes_and_charges_cost():
    env, rt = make_runtime(num_cores=1)
    ran = []

    def main():
        yield rt.charge_spawn()
        rt.spawn("t", cost=2.0, body=lambda: ran.append(env.now))
        yield from rt.taskwait()

    run_main(env, main())
    assert rt.stats.tasks_executed == 1
    assert env.now == pytest.approx(2.0)
    assert ran == [2.0]


def test_independent_tasks_run_in_parallel():
    env, rt = make_runtime(num_cores=4)

    def main():
        for i in range(4):
            yield rt.charge_spawn()
            rt.spawn(f"t{i}", cost=1.0)
        yield from rt.taskwait()

    run_main(env, main())
    # 4 tasks x 1s on 4 cores (3 workers + helping main) => ~1s.
    assert env.now == pytest.approx(1.0)


def test_dependent_tasks_serialize():
    env, rt = make_runtime(num_cores=4)
    order = []

    def main():
        yield rt.charge_spawn()
        rt.spawn("w", cost=1.0, accesses=((OUT, "x"),),
                 body=lambda: order.append("w"))
        yield rt.charge_spawn()
        rt.spawn("r", cost=1.0, accesses=((IN, "x"),),
                 body=lambda: order.append("r"))
        yield from rt.taskwait()

    run_main(env, main())
    assert order == ["w", "r"]
    assert env.now == pytest.approx(2.0)


def test_diamond_dependency_graph():
    env, rt = make_runtime(num_cores=4)
    order = []

    def main():
        yield rt.charge_spawn()
        rt.spawn("a", cost=1.0, accesses=((OUT, "x"),),
                 body=lambda: order.append("a"))
        yield rt.charge_spawn()
        rt.spawn("b", cost=1.0, accesses=((IN, "x"), (OUT, "y")),
                 body=lambda: order.append("b"))
        yield rt.charge_spawn()
        rt.spawn("c", cost=1.0, accesses=((IN, "x"), (OUT, "z")),
                 body=lambda: order.append("c"))
        yield rt.charge_spawn()
        rt.spawn("d", cost=1.0, accesses=((IN, "y"), (IN, "z")),
                 body=lambda: order.append("d"))
        yield from rt.taskwait()

    run_main(env, main())
    assert order[0] == "a" and order[-1] == "d"
    assert set(order[1:3]) == {"b", "c"}
    # b and c run in parallel: total 3s, not 4s.
    assert env.now == pytest.approx(3.0)


def test_main_thread_helps_during_taskwait():
    env, rt = make_runtime(num_cores=1)

    def main():
        for i in range(3):
            yield rt.charge_spawn()
            rt.spawn(f"t{i}", cost=1.0)
        yield from rt.taskwait()

    run_main(env, main())
    # Single core: main executes all three inline.
    assert env.now == pytest.approx(3.0)
    assert rt.stats.tasks_executed == 3


def test_work_stealing_balances_queues():
    env, rt = make_runtime(num_cores=2)

    def main():
        # All four tasks land round-robin; stealing keeps both cores busy.
        for i in range(4):
            yield rt.charge_spawn()
            rt.spawn(f"t{i}", cost=1.0)
        yield from rt.taskwait()

    run_main(env, main())
    assert env.now == pytest.approx(2.0)


def test_taskwait_with_no_tasks_returns_immediately():
    env, rt = make_runtime()

    def main():
        yield from rt.taskwait()

    run_main(env, main())
    assert env.now == 0.0


def test_sequential_taskwaits():
    env, rt = make_runtime(num_cores=2)

    def main():
        yield rt.charge_spawn()
        rt.spawn("a", cost=1.0)
        yield from rt.taskwait()
        first = env.now
        yield rt.charge_spawn()
        rt.spawn("b", cost=1.0)
        yield from rt.taskwait()
        assert env.now == pytest.approx(first + 1.0)

    run_main(env, main())


def test_pick_waiter_prunes_stale_entries():
    """Triggered (stale) wakeup events left by the drain/taskwait-with-deps
    paths must be pruned during the scan, not accumulate or get returned."""
    env, rt = make_runtime(num_cores=4)
    stale = {}
    for core in (1, 2):
        ev = env.event()
        ev.succeed(None)  # already triggered: stale
        stale[core] = ev
        rt._waiters[core] = ev
    live = env.event()
    rt._waiters[3] = live

    picked = rt._pick_waiter(None)
    assert picked is live
    assert rt._waiters == {}

    # A stale entry on the preferred slot is also discarded, falling
    # through to the FIFO scan.
    ev = env.event()
    ev.succeed(None)
    rt._waiters[2] = ev
    live2 = env.event()
    rt._waiters[1] = live2
    assert rt._pick_waiter(2) is live2
    assert rt._waiters == {}


def test_waiter_table_bounded_under_taskwait_stress():
    """A taskwait-heavy run must keep the waiter table within the core
    count at all times (the pre-fix list grew with every blocked wait)."""
    env, rt = make_runtime(num_cores=4)
    high_water = [0]

    def probe():
        high_water[0] = max(high_water[0], len(rt._waiters))

    def main():
        for i in range(30):
            yield rt.charge_spawn()
            rt.spawn(f"w{i}", cost=0.5, accesses=((OUT, ("h", i % 3)),))
            yield rt.charge_spawn()
            rt.spawn(f"p{i}", cost=0.0, body=probe,
                     accesses=((IN, ("h", i % 3)),))
            if i % 3 == 0:
                yield from rt.taskwait_with_deps(ins=[("h", i % 3)])
            if i % 5 == 0:
                yield from rt.taskwait()
            high_water[0] = max(high_water[0], len(rt._waiters))
        yield from rt.taskwait()

    run_main(env, main())
    assert 0 < high_water[0] <= rt.num_cores
    assert len(rt._waiters) <= rt.num_cores


def test_generator_body_can_wait_on_events():
    env, rt = make_runtime(num_cores=2)
    seen = []

    def body(ctx):
        yield ctx.env.timeout(5.0)
        seen.append(ctx.env.now)

    def main():
        yield rt.charge_spawn()
        rt.spawn("g", cost=1.0, body=body)
        yield from rt.taskwait()

    run_main(env, main())
    assert seen == [6.0]


def test_locality_scheduler_applies_ipc_boost():
    env, rt = make_runtime(num_cores=1)

    def main():
        yield rt.charge_spawn()
        rt.spawn("a", cost=1.0, accesses=((OUT, "blk"),), affinity="blk",
                 locality_factor=2.0)
        yield rt.charge_spawn()
        rt.spawn("b", cost=1.0, accesses=((IN, "blk"),), affinity="blk",
                 locality_factor=2.0)
        yield from rt.taskwait()

    run_main(env, main())
    # Second task hits locality: 1.0 + 1.0/2 = 1.5.
    assert env.now == pytest.approx(1.5)
    assert rt.stats.locality_hits == 1


def test_fifo_scheduler_no_front_push():
    env, rt = make_runtime(num_cores=1, scheduler="fifo")
    order = []

    def main():
        yield rt.charge_spawn()
        rt.spawn("a", cost=1.0, accesses=((OUT, "x"),),
                 body=lambda: order.append("a"))
        yield rt.charge_spawn()
        rt.spawn("c", cost=1.0, body=lambda: order.append("c"))
        yield rt.charge_spawn()
        rt.spawn("b", cost=1.0, accesses=((IN, "x"),),
                 body=lambda: order.append("b"))
        yield from rt.taskwait()

    run_main(env, main())
    # FIFO: after `a` completes, `c` (queued earlier) runs before `b`.
    assert order == ["a", "c", "b"]


def test_locality_scheduler_runs_successor_immediately():
    env, rt = make_runtime(num_cores=1, scheduler="locality")
    order = []

    def main():
        yield rt.charge_spawn()
        rt.spawn("a", cost=1.0, accesses=((OUT, "x"),),
                 body=lambda: order.append("a"))
        yield rt.charge_spawn()
        rt.spawn("c", cost=1.0, body=lambda: order.append("c"))
        yield rt.charge_spawn()
        rt.spawn("b", cost=1.0, accesses=((IN, "x"),),
                 body=lambda: order.append("b"))
        yield from rt.taskwait()

    run_main(env, main())
    # Immediate-successor policy: `b` jumps the queue after `a`.
    assert order == ["a", "b", "c"]


def test_unknown_scheduler_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        RankRuntime(env, num_cores=1, scheduler="magic")


def test_zero_cores_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        RankRuntime(env, num_cores=0)


def test_spawn_charges_overhead():
    env = Environment()
    spec = CostSpec(task_spawn_overhead=0.5, task_dispatch_overhead=0.0,
                    noise_amplitude=0.0, noise_spike_rate=0.0)
    profiler = Profiler()
    rt = RankRuntime(env, num_cores=1, cost_spec=spec, profiler=profiler)
    tasks = []

    def main():
        for i in range(4):
            yield rt.charge_spawn()
            tasks.append(rt.spawn(f"t{i}", cost=0.0))
        # Four charges in the caller's own frame: 4 x 0.5 s.
        assert env.now == pytest.approx(2.0)
        yield from rt.taskwait()

    run_main(env, main())
    # Each task registers right after its own charge.
    spawned = [profiler.tasks[t.tid].t_spawn for t in tasks]
    assert spawned == pytest.approx([0.5, 1.0, 1.5, 2.0])


def test_zero_overhead_charge_schedules_nothing():
    env, rt = make_runtime(num_cores=1)
    seen = []

    def main():
        seq, queued = env._seq, list(env._queue)
        for i in range(16):
            yield rt.charge_spawn()
            rt.spawn(f"t{i}", cost=0.0, accesses=((OUT, ("h", i)),))
        # The burst scheduled no event (every schedule takes a sequence
        # number) and the loop processed none: the heap is as it was.
        seen.append((env._seq - seq, env._queue == queued, env.now))
        yield from rt.taskwait()

    run_main(env, main())
    assert seen == [(0, True, 0.0)]
    assert rt.stats.tasks_spawned == 16


def test_dispatch_overhead_charged_per_task():
    env = Environment()
    spec = CostSpec(task_spawn_overhead=0.0, task_dispatch_overhead=0.25,
                    noise_amplitude=0.0, noise_spike_rate=0.0)
    rt = RankRuntime(env, num_cores=1, cost_spec=spec)

    def main():
        yield rt.charge_spawn()
        rt.spawn("a", cost=1.0)
        yield rt.charge_spawn()
        rt.spawn("b", cost=1.0)
        yield from rt.taskwait()

    run_main(env, main())
    assert env.now == pytest.approx(2.5)


def test_per_phase_time_accumulates():
    env, rt = make_runtime(num_cores=1)

    def main():
        yield rt.charge_spawn()
        rt.spawn("s1", cost=1.0, phase="stencil")
        yield rt.charge_spawn()
        rt.spawn("s2", cost=2.0, phase="stencil")
        yield rt.charge_spawn()
        rt.spawn("p", cost=0.5, phase="pack")
        yield from rt.taskwait()

    run_main(env, main())
    assert rt.stats.per_phase_time["stencil"] == pytest.approx(3.0)
    assert rt.stats.per_phase_time["pack"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# taskwait_with_deps
# ----------------------------------------------------------------------
def test_taskwait_with_deps_waits_only_for_named_data():
    env, rt = make_runtime(num_cores=2)
    checkpoints = {}

    def main():
        yield rt.charge_spawn()
        rt.spawn("fast", cost=1.0, accesses=((OUT, "a"),))
        yield rt.charge_spawn()
        rt.spawn("slow", cost=10.0, accesses=((OUT, "b"),))
        yield from rt.taskwait_with_deps(ins=["a"])
        checkpoints["after-deps"] = env.now
        yield from rt.taskwait()
        checkpoints["after-full"] = env.now

    run_main(env, main())
    # The marker was satisfied at t=1 ("fast" done), but the main thread
    # helps execute while blocked — Nanos6-style — and picked up "slow"
    # from its queue, so it observes the satisfaction at t=10.
    assert checkpoints["after-deps"] == pytest.approx(10.0)
    assert checkpoints["after-full"] == pytest.approx(10.0)


def test_taskwait_with_deps_on_untouched_data_is_immediate():
    env, rt = make_runtime()

    def main():
        yield from rt.taskwait_with_deps(ins=["never-written"])

    run_main(env, main())
    assert env.now == 0.0


def test_taskwait_with_deps_chain():
    env, rt = make_runtime(num_cores=2)

    def main():
        yield rt.charge_spawn()
        rt.spawn("w1", cost=1.0, accesses=((OUT, "x"),))
        yield rt.charge_spawn()
        rt.spawn("w2", cost=1.0, accesses=((IN, "x"), (OUT, "y")))
        yield from rt.taskwait_with_deps(ins=["y"])
        assert env.now == pytest.approx(2.0)

    run_main(env, main())


# ----------------------------------------------------------------------
# Fork-join layer
# ----------------------------------------------------------------------
def test_static_chunks_even_division():
    env, rt = make_runtime(num_cores=4)
    team = ForkJoinTeam(rt)
    assert team.static_chunks(8) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_static_chunks_remainder_spread():
    env, rt = make_runtime(num_cores=4)
    team = ForkJoinTeam(rt)
    assert team.static_chunks(6) == [(0, 2), (2, 4), (4, 5), (5, 6)]


def test_static_chunks_fewer_items_than_threads():
    env, rt = make_runtime(num_cores=4)
    team = ForkJoinTeam(rt)
    chunks = team.static_chunks(2)
    assert chunks == [(0, 1), (1, 2), (2, 2), (2, 2)]


def test_parallel_for_distributes_work():
    env, rt = make_runtime(num_cores=4)
    team = ForkJoinTeam(rt)

    def main():
        yield from team.parallel_for([1.0] * 8, label="work")

    run_main(env, main())
    # 8 x 1s over 4 threads = 2s.
    assert env.now == pytest.approx(2.0)


def test_parallel_for_static_imbalance():
    env, rt = make_runtime(num_cores=2)
    team = ForkJoinTeam(rt)

    def main():
        # Static schedule puts both expensive items on thread 0.
        yield from team.parallel_for([5.0, 5.0, 1.0, 1.0], label="work")

    run_main(env, main())
    assert env.now == pytest.approx(10.0)


def test_parallel_for_runs_bodies():
    env, rt = make_runtime(num_cores=2)
    team = ForkJoinTeam(rt)
    hits = []

    def main():
        bodies = [lambda i=i: hits.append(i) for i in range(5)]
        yield from team.parallel_for([0.1] * 5, bodies=bodies, label="w")

    run_main(env, main())
    assert sorted(hits) == [0, 1, 2, 3, 4]


def test_parallel_for_charges_region_overhead():
    env = Environment()
    spec = CostSpec(
        task_spawn_overhead=0.0,
        task_dispatch_overhead=0.0,
        forkjoin_region_overhead=1.0,
        noise_amplitude=0.0,
        noise_spike_rate=0.0,
    )
    rt = RankRuntime(env, num_cores=2, cost_spec=spec)
    team = ForkJoinTeam(rt)

    def main():
        yield from team.parallel_for([0.0, 0.0], label="w")

    run_main(env, main())
    # log2(2) = 1 round of 1s, split half before, half after.
    assert env.now == pytest.approx(1.0)


def test_parallel_for_is_barrier():
    env, rt = make_runtime(num_cores=2)
    team = ForkJoinTeam(rt)
    order = []

    def main():
        yield from team.parallel_for(
            [1.0, 2.0],
            bodies=[lambda: order.append("i0"), lambda: order.append("i1")],
        )
        order.append("after")

    run_main(env, main())
    assert order[-1] == "after"
    assert set(order[:2]) == {"i0", "i1"}
