"""The per-rank tasking runtime (OmpSs-2 / Nanos6-like).

One :class:`RankRuntime` manages the cores of one MPI rank:

* the **main thread** (the rank's program coroutine) conceptually occupies
  core 0; it creates tasks with :meth:`~RankRuntime.spawn`, each after
  charging its creation cost (``yield rt.charge_spawn()``), and joins
  them with :meth:`taskwait` — during which it executes ready tasks
  inline, exactly like an OmpSs-2 implicit task;
* cores 1..N-1 run **worker** processes that pull ready tasks;
* released successors are pushed to the *front* of the completing core's
  queue under the default ``"locality"`` scheduler (Nanos6's
  immediate-successor policy, which the paper credits for the IPC gain);
  the ``"fifo"`` scheduler ablates this; the seeded ``"fuzz"`` scheduler
  perturbs every free scheduling choice (pop order, queue placement,
  release order, idle-worker wakeup) to explore alternative *legal*
  schedules — the verification tool behind :mod:`repro.verify`;
* tasks may bind simulated-MPI requests (via :mod:`repro.tampi`); their
  dependencies are released only when the body finished *and* every bound
  request completed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

from ..machine.costmodel import CostSpec, NoiseModel
from ..simx.events import DONE
from .deps import DependencyTracker
from .task import Task, TaskState, normalize_accesses

# Hoisted enum members for the per-task paths (a module-global load is
# cheaper than an attribute of the enum class).
_CREATED = TaskState.CREATED
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_EXECUTED = TaskState.EXECUTED
_COMPLETED = TaskState.COMPLETED

#: The task schedulers the runtime implements.  This tuple is the single
#: source of truth — :class:`~repro.core.RunSpec` validation and the CLI
#: ``--scheduler`` choices both import it.
SCHEDULERS = ("locality", "fifo", "fuzz")


@dataclass
class RuntimeStats:
    """Counters exposed for analysis and tests."""

    tasks_spawned: int = 0
    tasks_executed: int = 0
    locality_hits: int = 0
    steals: int = 0
    taskwaits: int = 0
    per_phase_time: dict = field(default_factory=dict)
    hits_by_phase: dict = field(default_factory=dict)
    tasks_by_phase: dict = field(default_factory=dict)


class TaskContext:
    """Execution context handed to generator task bodies."""

    __slots__ = ("runtime", "task", "core")

    def __init__(self, runtime, task, core):
        self.runtime = runtime
        self.task = task
        self.core = core

    @property
    def env(self):
        return self.runtime.env


class RankRuntime:
    """Task scheduler and worker pool for one rank."""

    def __init__(
        self,
        env,
        *,
        rank=0,
        num_cores=1,
        cost_spec=None,
        numa=False,
        scheduler="locality",
        sched_seed=0,
        witness=None,
        profiler=None,
        faults=None,
    ):
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; choose from {SCHEDULERS}"
            )
        self.env = env
        self.rank = rank
        self.num_cores = num_cores
        self.cost_spec = cost_spec or CostSpec()
        #: Whether this rank's threads span NUMA domains (cost penalty is
        #: applied by the application when computing task costs).
        self.numa = numa
        self.scheduler = scheduler
        #: Seed of the ``"fuzz"`` scheduler's perturbation stream (ignored
        #: by the deterministic schedulers).  The stream is derived from
        #: (seed, rank) so every rank perturbs independently but the whole
        #: run stays reproducible for a given seed.
        self.sched_seed = sched_seed
        self._rng = (
            random.Random(sched_seed * 1_000_003 + rank)
            if scheduler == "fuzz"
            else None
        )
        #: Optional :class:`repro.verify.AccessWitness` recording the
        #: handles each task actually touches (None = no recording).
        self.witness = witness
        #: Application-provided context for witness reports (the current
        #: timestep); see :meth:`repro.core.app.BaseRankProgram.run`.
        self.timestep = None
        #: Optional :class:`repro.obs.Profiler` recording the executed task
        #: graph and runtime metrics (None = every hook is a no-op branch).
        self.profiler = profiler
        self.stats = RuntimeStats()
        #: Deterministic per-rank system-noise source (shared with the
        #: rank's main thread for its inline charges).  When a
        #: :class:`~repro.faults.FaultInjector` is supplied it is layered
        #: on top, so every CPU charge on this rank — task bodies and
        #: inline main-thread work alike — suffers the injected faults.
        self.noise = NoiseModel(self.cost_spec, rank)
        if faults is not None:
            from ..faults.injectors import FaultyNoise

            self.noise = FaultyNoise(self.noise, faults, rank, env)
        self._stretch = self.noise.stretch  # after any fault layering

        self.tracker = DependencyTracker()
        #: handle -> [holder Task or None, deque of parked tasks]
        self._comm_locks = {}
        self._ready = [deque() for _ in range(num_cores)]
        #: Bit ``c`` set iff ``self._ready[c]`` is nonempty.  Lets the pop
        #: paths skip the per-queue probing entirely when nothing is ready
        #: (the common case for idle workers) and pick steal victims /
        #: fuzz targets without rebuilding a core list per pop.
        self._ready_mask = 0
        self._all_cores_mask = (1 << num_cores) - 1
        #: core -> wakeup Event of the idle thread parked on that core.
        #: A core parks at most one thread (the main thread on core 0, the
        #: worker on cores 1..N-1), so a dict keyed by core gives O(1)
        #: preferred-core lookup while insertion order preserves the FIFO
        #: fallback of the old deque-of-entries representation.
        self._waiters = {}
        self._drain_events = []
        self._last_affinity = [None] * num_cores
        self._outstanding = 0
        self._rr = 0
        #: ``charge_spawn()`` returns what a thread yields to pay one
        #: task's creation cost, right before :meth:`spawn` and in its own
        #: frame: ``task_spawn_overhead`` as a float sleep, or at zero
        #: overhead :data:`~repro.simx.events.DONE`, which the yielding
        #: process takes straight back without touching the event heap.
        #: A C-level callable, so the charge adds no Python frame per task.
        overhead = self.cost_spec.task_spawn_overhead
        self.charge_spawn = repeat(
            float(overhead) if overhead > 0 else DONE
        ).__next__
        # Read on every task: pulled out of the dataclass once.
        self._dispatch_overhead = self.cost_spec.task_dispatch_overhead
        #: Immediate-successor policy flag (checked once per completion).
        self._immediate_successor = scheduler == "locality"

        for core in range(1, num_cores):
            env.process(self._worker(core), name=f"r{rank}-worker{core}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Number of spawned-but-not-completed (non-sync) tasks."""
        return self._outstanding

    def close(self):
        """Release the idle workers still parked when the run ended.

        A parked worker's wakeup event calls back into its process, whose
        frame holds this runtime: dropping the callbacks lets refcounting
        free the worker instead of leaving a cycle behind.
        """
        for event in self._waiters.values():
            event.callbacks = None
        self._waiters.clear()

    # ------------------------------------------------------------------
    # Task creation: ``yield rt.charge_spawn()`` then ``rt.spawn(...)``
    # ------------------------------------------------------------------
    def spawn(
        self,
        label,
        cost=0.0,
        body=None,
        accesses=(),
        affinity=None,
        locality_factor=1.0,
        phase=None,
    ):
        """Create and register a task; returns it.

        ``label`` is a ``str`` or a ``(fmt, *args)`` template, and
        ``accesses`` the tuple of ``(AccessMode, handle)`` pairs the task
        adopts (see :class:`~repro.tasking.task.Task`).  The caller
        charges the spawn overhead first with ``yield rt.charge_spawn()``.
        """
        env = self.env
        task = Task(
            env, label, cost, body, accesses, affinity, locality_factor,
            phase,
        )
        self.stats.tasks_spawned += 1
        self._outstanding += 1
        if self.profiler is not None:
            self.profiler.task_spawned(task, self.rank, env._now)
        if self.tracker.register(task) == 0:
            self._make_ready(task, None)
        return task

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def taskwait(self):
        """Wait until every spawned task completed (helping execute)."""
        self.stats.taskwaits += 1
        while self._outstanding > 0:
            task = self._pop_task_for(0)
            if task is not None:
                yield from self._execute(task, 0)
                continue
            event = self.env.event()
            self._waiters[0] = event
            self._drain_events.append(event)
            got = yield event
            if self._waiters.get(0) is event:
                del self._waiters[0]
            if event in self._drain_events:
                self._drain_events.remove(event)
            if isinstance(got, Task):
                yield from self._execute(got, 0)

    def taskwait_with_deps(self, ins=(), outs=(), inouts=()):
        """OmpSs-2 ``taskwait`` with dependencies.

        Blocks only until the tasks that produce the named data completed —
        *not* until all outstanding tasks do.  This is the feature behind
        the paper's delayed-checksum optimization (Section IV-C).
        """
        accesses = normalize_accesses(ins, outs, inouts)
        task = Task(self.env, "taskwait-deps", accesses=accesses)
        task.is_sync = True
        # Registered like a spawned task, but never outstanding.
        self.stats.tasks_spawned += 1
        if self.tracker.register(task) == 0:
            self._make_ready(task, None)
        # Like a blocked Nanos6 thread, the caller's core keeps executing
        # ready tasks while the marker is pending (the resume may therefore
        # lag the dependency satisfaction by up to one task length).  When
        # no task is ready the thread registers as an idle worker so that
        # newly released tasks wake it — otherwise core 0 would sit idle
        # for the whole wait.
        while not task.completed:
            ready = self._pop_task_for(0)
            if ready is not None:
                yield from self._execute(ready, 0)
                continue
            event = self.env.event()
            self._waiters[0] = event
            task.done_event.callbacks.append(
                lambda _ev, e=event: None if e.triggered else e.succeed(None)
            )
            got = yield event
            if self._waiters.get(0) is event:
                del self._waiters[0]
            if isinstance(got, Task):
                yield from self._execute(got, 0)
        return task

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _make_ready(self, task, preferred, front=False):
        if task.is_sync:
            self._complete(task, core=preferred)
            return
        if task.commutative_handles and not self._acquire_commutative(task):
            return  # parked; re-released when the lock holder completes
        task.state = _READY
        if self.profiler is not None:
            self.profiler.task_ready(
                task,
                self.env.now,
                queue_depth=sum(map(len, self._ready)),
            )
        rng = self._rng
        if rng is not None:
            # Fuzz: every placement choice is randomized — which idle
            # worker wakes, which queue the task lands on, front or back.
            preferred = rng.randrange(self.num_cores)
            front = rng.random() < 0.5
        if self._waiters:
            waiter = self._pick_waiter(preferred)
            if waiter is not None:
                waiter.succeed(task)
                return
        if rng is not None:
            core = preferred
        elif preferred is None:
            core = self._rr
            self._rr = (self._rr + 1) % self.num_cores
        else:
            core = preferred
        dq = self._ready[core]
        if not dq:
            self._ready_mask |= 1 << core
        if front:
            dq.appendleft(task)
        else:
            dq.append(task)

    def _lock_entry(self, handle):
        entry = self._comm_locks.get(handle)
        if entry is None:
            entry = self._comm_locks[handle] = [None, deque()]
        return entry

    def _acquire_commutative(self, task) -> bool:
        """All-or-nothing acquisition of the task's commutative locks.

        On failure the task parks on the first busy lock; it is retried
        when that lock's holder completes.  All-or-nothing acquisition
        (with no partial holds) cannot deadlock.
        """
        entries = [self._lock_entry(h) for h in task.commutative_handles]
        for entry in entries:
            if entry[0] is not None and entry[0] is not task:
                entry[1].append(task)
                return False
        for entry in entries:
            entry[0] = task
        return True

    def _release_commutative(self, task, core):
        retry = []
        for handle in task.commutative_handles:
            entry = self._comm_locks[handle]
            if entry[0] is task:
                entry[0] = None
            while entry[1]:
                waiting = entry[1].popleft()
                # Only retry tasks still parked (CREATED); anything else
                # already acquired its locks through another release.
                if waiting.state is _CREATED:
                    retry.append(waiting)
                    break
        for waiting in retry:
            self._make_ready(waiting, preferred=core, front=False)

    def _pick_waiter(self, preferred):
        """Pop an idle thread's wakeup event, preferring ``preferred``.

        Stale entries — events already triggered by the drain or
        taskwait-with-deps wakeup paths, which succeed without
        unregistering — are pruned as the scan meets them, so the table
        stays bounded by the core count instead of accumulating across a
        taskwait-heavy run.
        """
        waiters = self._waiters
        if preferred is not None:
            event = waiters.get(preferred)
            if event is not None:
                del waiters[preferred]
                if not event.triggered:
                    return event
        chosen = None
        prune = []
        for core, event in waiters.items():
            prune.append(core)
            if not event.triggered:
                chosen = event
                break
        for core in prune:
            del waiters[core]
        return chosen

    def _pop_task_for(self, core):
        if self._rng is not None:
            return self._pop_task_fuzz(core)
        mask = self._ready_mask
        if not mask:
            return None
        dq = self._ready[core]
        if dq:
            task = dq.popleft()
            if not dq:
                self._ready_mask = mask & ~(1 << core)
            if self.profiler is not None:
                self.profiler.pop_decision(self.rank, False)
            return task
        # Steal from the next nonempty queue in ring order: rotate the
        # mask so this core is bit 0, then take the lowest set bit.  Own
        # bit is clear (the deque probe above failed), and the mask is
        # nonzero, so a victim always exists.
        n = self.num_cores
        rot = ((mask >> core) | (mask << (n - core))) & self._all_cores_mask
        victim = core + (rot & -rot).bit_length() - 1
        if victim >= n:
            victim -= n
        dq = self._ready[victim]
        self.stats.steals += 1
        task = dq.pop()
        if not dq:
            self._ready_mask = mask & ~(1 << victim)
        if self.profiler is not None:
            self.profiler.pop_decision(self.rank, True)
        return task

    def _pop_task_fuzz(self, core):
        """Fuzz-scheduler pop: a uniformly random ready task of any queue."""
        mask = self._ready_mask
        if not mask:
            return None
        rng = self._rng
        # randrange(n) and the old choice() over the nonempty-core list
        # both reduce to one _randbelow(n) draw, so the perturbation
        # stream — and with it every committed fuzz schedule — is
        # unchanged by the bitmask representation.
        j = rng.randrange(bin(mask).count("1"))
        m = mask
        while j:
            m &= m - 1
            j -= 1
        victim = (m & -m).bit_length() - 1
        dq = self._ready[victim]
        idx = rng.randrange(len(dq))
        dq.rotate(-idx)
        task = dq.popleft()
        dq.rotate(idx)
        if not dq:
            self._ready_mask = mask & ~(1 << victim)
        if victim != core:
            self.stats.steals += 1
        if self.profiler is not None:
            self.profiler.pop_decision(self.rank, victim != core)
        return task

    def _worker(self, core):
        env = self.env
        while True:
            task = self._pop_task_for(core)
            if task is None:
                event = env.event()
                self._waiters[core] = event
                task = yield event
                if self._waiters.get(core) is event:  # pragma: no cover
                    del self._waiters[core]
            if task is not None:
                yield from self._execute(task, core)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, task, core):
        env = self.env
        task.state = _RUNNING
        t0 = env._now

        phase = task.phase
        affinity = task.affinity
        cost = task.cost
        stats = self.stats
        by_phase = stats.tasks_by_phase
        by_phase[phase] = by_phase.get(phase, 0) + 1
        if affinity is not None and self._last_affinity[core] == affinity:
            stats.locality_hits += 1
            hits = stats.hits_by_phase
            hits[phase] = hits.get(phase, 0) + 1
            cost = cost / task.locality_factor
        total = self._stretch(cost + self._dispatch_overhead)
        if total > 0:
            yield total

        if task.body is not None:
            witness = self.witness
            # Unchecked tasks still get a frame: their touches must be
            # swallowed, not misattributed to a suspended witnessed task.
            record = witness is not None
            if record:
                witness.task_begin(task, self.rank, self.timestep)
            try:
                if task.gen_body:
                    yield from task.body(TaskContext(self, task, core))
                else:
                    task.body()
            finally:
                if record:
                    witness.task_end(task)
            # The body's closure reaches back to this runtime, and through
            # the dependency tracker to the task itself: dropping it keeps
            # the finished run reclaimable by refcounting alone.
            task.body = None

        self._last_affinity[core] = affinity
        stats.tasks_executed += 1
        t1 = env._now
        phase_times = stats.per_phase_time
        phase_times[phase] = phase_times.get(phase, 0.0) + (t1 - t0)
        if self.profiler is not None:
            self.profiler.task_ran(task, core, t0, t1)

        task.state = _EXECUTED
        if task.pending_requests == 0:
            self._complete(task, core)

    # ------------------------------------------------------------------
    # Completion & TAMPI integration
    # ------------------------------------------------------------------
    def bind_request(self, task, request):
        """Defer ``task``'s completion until ``request`` completes."""
        if task.completed:
            raise ValueError("cannot bind a request to a completed task")
        task.pending_requests += 1
        if self.profiler is not None:
            self.profiler.request_bound(task, self.rank, self.env.now)
        request.event.callbacks.append(
            lambda _ev, t=task: self._request_done(t)
        )

    def _request_done(self, task):
        task.pending_requests -= 1
        if self.profiler is not None:
            self.profiler.request_released(task, self.rank, self.env.now)
        if task.pending_requests == 0 and task.state is _EXECUTED:
            self._complete(task, core=None)

    def _complete(self, task, core):
        task.state = _COMPLETED
        if not task.is_sync:
            self._outstanding -= 1
            if self.profiler is not None:
                self.profiler.task_completed(task, self.env._now)
        if task.commutative_handles:
            self._release_commutative(task, core)

        released = []
        for succ in task.successors:
            npred = succ.npred - 1
            succ.npred = npred
            if npred == 0 and succ.state is _CREATED:
                released.append(succ)
        # ``register`` never wires an edge from a completed task, so its
        # successor list and its share of the dependency histories are
        # dead from here on; freeing them now keeps a run's memory to its
        # live graph.  (A profiler keeps its own reference to the list.)
        task.successors = ()
        self.tracker.release(task)
        if released:
            if self._immediate_successor and core is not None:
                # Immediate-successor policy: released tasks stay on the
                # completing core, in release order (depth-first execution
                # that reuses the block still in cache; idle cores steal).
                for succ in reversed(released):
                    self._make_ready(succ, core, True)
            else:
                rng = self._rng
                if rng is not None and len(released) > 1:
                    # Fuzz: permute the release order.  This is also how
                    # TAMPI completion interleavings are perturbed — a
                    # request's completion funnels through here, so its
                    # successors race in a different order on every seed.
                    rng.shuffle(released)
                for succ in released:
                    self._make_ready(succ, None)

        done = task._done_event
        if done is not None:
            done.succeed(None)

        if self._outstanding == 0 and self._drain_events:
            events, self._drain_events = self._drain_events, []
            for event in events:
                if not event.triggered:
                    event.succeed(None)
