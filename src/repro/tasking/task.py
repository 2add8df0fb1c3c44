"""Task objects for the OmpSs-2-like tasking runtime."""

from __future__ import annotations

import inspect
from enum import Enum

from ..simx.events import Event

#: Code-object flag marking a generator function (``inspect.CO_GENERATOR``).
_CO_GENERATOR = inspect.CO_GENERATOR


class AccessMode(Enum):
    """Dependency access modes (OmpSs-2 / OpenMP ``depend`` clauses)."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"
    #: OmpSs-2 ``commutative``: accesses may run in any order but not
    #: concurrently (mutual exclusion arbitrated at runtime).
    COMMUTATIVE = "commutative"


class TaskState(Enum):
    CREATED = "created"  # registered, waiting on predecessors
    READY = "ready"  # all predecessors satisfied, queued
    RUNNING = "running"  # body executing on a core
    EXECUTED = "executed"  # body done, waiting on bound MPI requests
    COMPLETED = "completed"  # dependencies released


# Hoisted members: the spawn path reads them once per task or access,
# and a module-global load is cheaper than an attribute of the enum class.
_IN = AccessMode.IN
_OUT = AccessMode.OUT
_INOUT = AccessMode.INOUT
_COMMUTATIVE = AccessMode.COMMUTATIVE
_CREATED = TaskState.CREATED
_COMPLETED = TaskState.COMPLETED


class Task:
    """One schedulable unit of work.

    Task ids come from ``env.task_ids``, the run's own counter, so a run
    numbers its tasks from 1 whatever ran before it in the process, and
    creating a task writes no class attribute (see DESIGN.md §6).

    Parameters
    ----------
    label:
        Human-readable name (also the trace event name): a ``str``, or a
        template tuple ``(fmt, *args)`` that :attr:`label` formats with
        ``fmt.format(*args)`` on first read.  Most labels are never
        read (only the profiler, the access witness and ``repr`` read
        them), so the spawn path passes templates whose arguments are
        objects the task holds anyway.
    cost:
        Base simulated CPU seconds of the task body.
    body:
        Optional functional payload.  Either a plain callable (runs
        atomically) or a generator *factory* ``body(ctx)`` that may yield
        simulation events (used by communication tasks calling TAMPI).
        Released (set to ``None``) once it has run.
    accesses:
        Tuple of ``(AccessMode, handle)`` pairs declaring the data the
        task touches, adopted as is (not copied).  Handles are arbitrary
        hashables; two accesses name the same data exactly when their
        handles are equal.
    affinity:
        Cache-locality key; when a core runs two consecutive tasks with the
        same affinity the second enjoys the model's IPC boost.
    locality_factor:
        Speedup divisor applied on an affinity hit (≥ 1.0).
    phase:
        Phase tag for tracing/analysis (e.g. ``"stencil"``); defaults to
        the (formatted) label.
    """

    __slots__ = (
        "tid",
        "env",
        "_label",
        "cost",
        "body",
        "gen_body",
        "accesses",
        "affinity",
        "locality_factor",
        "phase",
        "state",
        "npred",
        "successors",
        "pending_requests",
        "_done_event",
        "is_sync",
        "commutative_handles",
        "unchecked",
    )

    def __init__(
        self,
        env,
        label,
        cost=0.0,
        body=None,
        accesses=(),
        affinity=None,
        locality_factor=1.0,
        phase=None,
    ):
        # Negated so that NaN fails too.
        if not cost >= 0:
            raise ValueError("task cost must be >= 0")
        if not locality_factor >= 1.0:
            raise ValueError("locality_factor must be >= 1.0")
        self.tid = next(env.task_ids)
        self.env = env
        self._label = label
        self.cost = cost
        self.body = body
        #: Whether ``body`` is a generator function (resolved once here;
        #: the executor dispatches on this instead of re-inspecting the
        #: body every run).
        if body is None:
            self.gen_body = False
        else:
            code = getattr(body, "__code__", None)
            if code is not None:
                self.gen_body = bool(code.co_flags & _CO_GENERATOR)
            else:  # exotic callables (partials, callables without code)
                self.gen_body = inspect.isgeneratorfunction(body)
        self.accesses = accesses
        self.affinity = affinity
        self.locality_factor = locality_factor
        self.phase = phase if phase else self.label
        self.state = _CREATED
        self.npred = 0
        self.successors = []
        self.pending_requests = 0
        #: Completion event, materialized on first access (most tasks are
        #: joined through counters/dependencies and never need one).
        self._done_event = None
        #: True for the zero-cost marker tasks used by taskwait-with-deps.
        self.is_sync = False
        #: Exempt from access-witness checking (set by layers like the
        #: fork-join team whose tasks synchronize structurally, not through
        #: declared dependencies).
        self.unchecked = False
        #: Handles this task accesses commutatively (runtime mutual
        #: exclusion; populated from ``accesses``).  Plain loop, no
        #: comprehension: most tasks have none, and this runs per spawn.
        comm = None
        for access in accesses:
            if access[0] is _COMMUTATIVE:
                if comm is None:
                    comm = [access[1]]
                else:
                    comm.append(access[1])
        self.commutative_handles = () if comm is None else tuple(comm)

    @property
    def label(self) -> str:
        """The label, formatted from its template on first read."""
        label = self._label
        if label.__class__ is not str:
            label = self._label = label[0].format(*label[1:])
        return label

    @property
    def done_event(self) -> Event:
        """Event triggered at completion (lazily created), value ``None``.

        Accessing it on an already-completed task returns an event in the
        processed-success state — exactly what an eagerly-created event
        would have reached by then — so late subscribers resume
        immediately instead of waiting forever.
        """
        ev = self._done_event
        if ev is None:
            ev = self._done_event = Event(self.env)
            if self.state is _COMPLETED:
                ev._ok = True
                ev._value = None
                ev.callbacks = None
        return ev

    @property
    def completed(self) -> bool:
        return self.state is _COMPLETED

    def __repr__(self):
        return f"<Task #{self.tid} {self.label!r} {self.state.value}>"


def normalize_accesses(ins=(), outs=(), inouts=(), commutatives=()):
    """Build an access tuple from in/out/inout/commutative iterables.

    For callers that hold handle lists; the spawn path takes a tuple its
    caller builds directly.
    """
    modes = ((_IN, ins), (_OUT, outs), (_INOUT, inouts),
             (_COMMUTATIVE, commutatives))
    return tuple([(mode, h) for mode, handles in modes for h in handles])
