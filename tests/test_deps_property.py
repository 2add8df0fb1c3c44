"""Property test: DependencyTracker edges match a brute-force oracle.

For an arbitrary registration sequence over a few handles, the tracker
wires a *reduced* edge set — last writer, readers-since, commuters —
rather than every conflicting pair.  The correctness condition is therefore closure equality: the transitive
closure of the tracker's edges must equal the transitive closure of the
O(n²) pairwise-conflict relation.  (Edges only ever point from earlier to
later registration, so both closures are over the same partial order.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simx import Environment
from repro.tasking.deps import DependencyTracker
from repro.tasking.task import AccessMode, Task

MODES = [AccessMode.IN, AccessMode.OUT, AccessMode.INOUT,
         AccessMode.COMMUTATIVE]

handles = st.sampled_from(["s0", "s1", "s2"])
access_strategy = st.lists(
    st.tuples(st.sampled_from(MODES), handles),
    min_size=1,
    max_size=3,
)
graph_strategy = st.lists(access_strategy, min_size=2, max_size=10)


def oracle_conflicts(acc_a, acc_b) -> bool:
    """Brute force: any access pair on shared data that is not
    read-read or commutative-commutative conflicts."""
    for ma, ha in acc_a:
        for mb, hb in acc_b:
            if ha != hb:
                continue
            if ma is AccessMode.IN and mb is AccessMode.IN:
                continue
            if (
                ma is AccessMode.COMMUTATIVE
                and mb is AccessMode.COMMUTATIVE
            ):
                continue
            return True
    return False


def transitive_closure(n, edges):
    succ = [set() for _ in range(n)]
    for a, b in edges:
        succ[a].add(b)
    for a in range(n - 1, -1, -1):  # edges go forward: reverse topo order
        for b in list(succ[a]):
            succ[a] |= succ[b]
    return {(a, b) for a in range(n) for b in succ[a]}


@settings(max_examples=200, deadline=None)
@given(graph=graph_strategy)
def test_property_tracker_edges_equal_conflict_oracle(graph):
    env = Environment()
    tracker = DependencyTracker()
    tasks = [
        Task(env, f"t{i}", accesses=acc) for i, acc in enumerate(graph)
    ]
    index = {id(t): i for i, t in enumerate(tasks)}
    for task in tasks:
        tracker.register(task)

    edges = set()
    for i, task in enumerate(tasks):
        for succ in task.successors:
            edges.add((i, index[id(succ)]))

    n = len(graph)
    oracle = {
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if oracle_conflicts(graph[a], graph[b])
    }

    # 1. Every wired edge is a genuine conflict (registration order).
    assert all(a < b for a, b in edges)
    assert edges <= oracle, f"spurious edges: {sorted(edges - oracle)}"

    # 2. Closure equality: the reduced edge set enforces exactly the
    #    ordering the full conflict relation demands.
    assert transitive_closure(n, edges) == transitive_closure(n, oracle)

    # 3. npred bookkeeping matches the wiring.
    npred = [0] * n
    for _a, b in edges:
        npred[b] += 1
    assert [t.npred for t in tasks] == npred
