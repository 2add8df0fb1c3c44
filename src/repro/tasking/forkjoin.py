"""Fork-join (OpenMP ``parallel for``) layer over the tasking runtime.

Used by the MPI+OMP fork-join variant: the main thread opens a parallel
region, work is divided statically among the team's cores, and an implicit
barrier closes the region.  MPI stays outside (serialized on the main
thread), which is precisely the structure whose limits the paper studies.
"""

from __future__ import annotations


class ForkJoinTeam:
    """A thread team bound to one :class:`~repro.tasking.runtime.RankRuntime`.

    Only :meth:`parallel_for` is provided — the construct miniAMR's hybrid
    fork-join variant uses (``omp for`` with static scheduling).
    """

    def __init__(self, runtime):
        self.runtime = runtime

    @property
    def num_threads(self) -> int:
        return self.runtime.num_cores

    def static_chunks(self, nitems: int):
        """OpenMP static schedule: contiguous chunks, one per thread.

        Returns a list of ``(start, stop)`` half-open index ranges (some may
        be empty when ``nitems < num_threads``).
        """
        nthreads = self.num_threads
        base, extra = divmod(nitems, nthreads)
        chunks = []
        start = 0
        for t in range(nthreads):
            size = base + (1 if t < extra else 0)
            chunks.append((start, start + size))
            start += size
        return chunks

    def parallel_for(self, costs, bodies=None, label="omp-for", phase=None):
        """Run ``len(costs)`` iterations across the team; implicit barrier.

        Parameters
        ----------
        costs:
            Per-iteration simulated CPU cost (seconds).
        bodies:
            Optional per-iteration callables (functional payload).
        label, phase:
            Trace naming.

        The region charges the fork-join open/close overhead to the main
        thread, creates one chunk task per thread (static schedule), and
        waits for all of them — the implicit barrier.
        """
        rt = self.runtime
        overhead = rt.cost_spec.forkjoin_overhead(self.num_threads)
        if overhead > 0:
            yield overhead / 2

        chunks = self.static_chunks(len(costs))
        for t, (start, stop) in enumerate(chunks):
            if start == stop:
                continue
            chunk_cost = sum(costs[start:stop])
            chunk_bodies = (
                None
                if bodies is None
                else _chunk_body(bodies, start, stop)
            )
            yield rt.charge_spawn()
            task = rt.spawn(
                ("{}[{}]", label, t),
                cost=chunk_cost,
                body=chunk_bodies,
                phase=phase or label,
            )
            # Fork-join chunks synchronize through the implicit barrier,
            # not through declared dependencies — exempt them from
            # access-witness checking (see repro.verify).
            task.unchecked = True
        yield from rt.taskwait()

        if overhead > 0:
            yield overhead / 2


def _chunk_body(bodies, start, stop):
    def run():
        for i in range(start, stop):
            body = bodies[i]
            if body is not None:
                body()

    return run
