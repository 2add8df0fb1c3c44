"""Property-based tests of the tasking runtime's ordering guarantees.

For arbitrary task graphs, any two tasks with conflicting accesses to the
same handle (write-write, write-read, read-write — but not read-read and
not commutative-commutative) must execute in their registration order.
Non-conflicting tasks may run in any order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CostSpec
from repro.simx import Environment
from repro.tasking import RankRuntime
from repro.tasking.task import AccessMode, normalize_accesses

FREE = CostSpec(
    task_spawn_overhead=0.0,
    task_dispatch_overhead=0.0,
    noise_amplitude=0.0,
    noise_spike_rate=0.0,
)

HANDLES = ["h0", "h1", "h2"]
MODES = [AccessMode.IN, AccessMode.OUT, AccessMode.INOUT,
         AccessMode.COMMUTATIVE]

access_strategy = st.lists(
    st.tuples(
        st.sampled_from(MODES),
        st.integers(min_value=0, max_value=len(HANDLES) - 1),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda mh: mh[1],  # one access per handle per task
)

graph_strategy = st.lists(access_strategy, min_size=2, max_size=12)


def conflicts(acc_a, acc_b):
    """Whether two access lists conflict on any shared handle."""
    by_handle_a = {h: m for m, h in acc_a}
    for mode_b, handle in acc_b:
        mode_a = by_handle_a.get(handle)
        if mode_a is None:
            continue
        if mode_a is AccessMode.IN and mode_b is AccessMode.IN:
            continue
        if (
            mode_a is AccessMode.COMMUTATIVE
            and mode_b is AccessMode.COMMUTATIVE
        ):
            continue
        return True
    return False


@settings(max_examples=120, deadline=None)
@given(graph=graph_strategy, cores=st.integers(min_value=1, max_value=4))
def test_property_conflicting_tasks_keep_registration_order(graph, cores):
    env = Environment()
    rt = RankRuntime(env, num_cores=cores, cost_spec=FREE)
    order = []

    def body(i):
        def run():
            order.append(i)

        return run

    def main():
        for i, accesses in enumerate(graph):
            ins = [HANDLES[h] for m, h in accesses if m is AccessMode.IN]
            outs = [HANDLES[h] for m, h in accesses if m is AccessMode.OUT]
            inouts = [
                HANDLES[h] for m, h in accesses if m is AccessMode.INOUT
            ]
            comm = [
                HANDLES[h] for m, h in accesses
                if m is AccessMode.COMMUTATIVE
            ]
            yield rt.charge_spawn()
            rt.spawn(
                f"t{i}", cost=0.0, body=body(i),
                accesses=normalize_accesses(ins, outs, inouts, comm),
            )
        yield from rt.taskwait()

    proc = env.process(main())
    env.run(until=proc)

    # Every task ran exactly once.
    assert sorted(order) == list(range(len(graph)))

    # Conflicting pairs execute in registration order.
    position = {task: idx for idx, task in enumerate(order)}
    for a in range(len(graph)):
        for b in range(a + 1, len(graph)):
            if conflicts(graph[a], graph[b]):
                assert position[a] < position[b], (
                    f"task {b} ran before conflicting task {a}: {order}"
                )


@settings(max_examples=60, deadline=None)
@given(
    graph=graph_strategy,
    cores=st.integers(min_value=1, max_value=4),
)
def test_property_runtime_always_drains(graph, cores):
    """No combination of accesses deadlocks the runtime."""
    env = Environment()
    rt = RankRuntime(env, num_cores=cores, cost_spec=FREE)
    executed = []

    def main():
        for i, accesses in enumerate(graph):
            handles = {}
            for m, h in accesses:
                handles.setdefault(m, []).append(HANDLES[h])
            yield rt.charge_spawn()
            rt.spawn(
                f"t{i}",
                cost=1e-6,
                body=lambda i=i: executed.append(i),
                accesses=normalize_accesses(
                    ins=handles.get(AccessMode.IN, ()),
                    outs=handles.get(AccessMode.OUT, ()),
                    inouts=handles.get(AccessMode.INOUT, ()),
                    commutatives=handles.get(AccessMode.COMMUTATIVE, ()),
                ),
            )
        yield from rt.taskwait()

    proc = env.process(main())
    env.run(until=proc)
    assert len(executed) == len(graph)
    assert rt.outstanding == 0
