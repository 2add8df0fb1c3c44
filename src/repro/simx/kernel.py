"""The discrete-event simulation environment.

The :class:`Environment` owns the virtual clock and the event heap.  It is
intentionally SimPy-like so the rest of the stack (simulated MPI, the
tasking runtime, the miniAMR port) reads like ordinary process-oriented
simulation code, while remaining dependency-free and fully deterministic:
simultaneous events are processed in (priority, schedule-order).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from sys import getrefcount

from .errors import EmptySchedule
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process

#: Priority for urgent events (process initialization, interrupts).
URGENT = 0
#: Default priority for ordinary events.
NORMAL = 1

#: Upper bound on the Timeout free list (bounds idle memory; in steady
#: state the pool holds roughly one Timeout per concurrently sleeping
#: process).
_TIMEOUT_POOL_CAP = 1024


class Environment:
    """A deterministic discrete-event simulation environment."""

    def __init__(self, initial_time=0.0, metrics=None):
        self._now = float(initial_time)
        self._queue = []  # heap of (time, priority, seq, event)
        self._seq = 0
        self._active_proc = None
        #: Optional :class:`repro.obs.MetricsRegistry` counting processed
        #: events (None = no accounting; the hot loop stays branch-cheap).
        self.metrics = metrics
        # With metrics on, the per-event cost is one plain-int increment;
        # flush_metrics() folds the count into the registry at run end.
        self._events_processed = 0
        self._timeout_pool = []
        #: The run's task numbering (:class:`repro.tasking.Task` ids,
        #: from 1).  Owned by the run, so ids never depend on what ran
        #: before in the process.
        self.task_ids = count(1)

    # ------------------------------------------------------------------
    # Clock & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self):
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self):
        """The process currently being resumed, if any."""
        return self._active_proc

    def _schedule_event(self, event, delay=0.0, priority=NORMAL):
        seq = self._seq + 1
        self._seq = seq
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def schedule_at(self, time, callback, priority=NORMAL):
        """Schedule ``callback`` at *absolute* simulated ``time``.

        The partitioned-kernel ingress path (:mod:`repro.simx.parallel`)
        needs to plant a callback at an exact absolute timestamp shipped
        from another worker — relative ``timeout(time - now)`` would
        re-round the float and lose bitwise equality with the serial
        schedule.  The event is created already-succeeded (value ``None``)
        so both run loops process it like any other triggered event.
        """
        if time < self._now:
            raise ValueError(
                f"schedule_at({time}) is in the past (now={self._now})"
            )
        event = Event(self)
        event._ok = True
        event._value = None
        event.callbacks.append(callback)
        seq = self._seq + 1
        self._seq = seq
        heappush(self._queue, (time, priority, seq, event))
        return event

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self):
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create an event that fires after ``delay`` simulated seconds.

        Recycles a free-listed :class:`Timeout` when one is available —
        scheduling order (and thus determinism) is identical either way,
        because the recycled path consumes the same sequence number the
        fresh path would.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            to = pool.pop()
            to._reinit(delay, value)
            seq = self._seq + 1
            self._seq = seq
            heappush(self._queue, (self._now + delay, NORMAL, seq, to))
            return to
        return Timeout(self, delay, value)

    def process(self, generator, name=None):
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Event that triggers when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that triggers when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    def close(self):
        """Drop the Timeout free list.

        Each pooled Timeout references this environment back; without
        them a finished run's environment is freed by refcounting alone.
        """
        self._timeout_pool.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self):
        """Process the single next event.

        Raises :class:`EmptySchedule` when no events remain.  Re-raises the
        exception of any failed event whose failure no process handled.
        """
        try:
            when, _prio, _seq, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None

        self._now = when
        if self.metrics is not None:
            self._events_processed += 1
        event._process_callbacks()

        if not event._ok and not event.defused:
            exc = event._value
            raise exc

        # Free-list processed Timeouts nobody else references (refcount 2
        # = this frame's local + getrefcount's argument).
        if type(event) is Timeout and getrefcount(event) == 2:
            pool = self._timeout_pool
            if len(pool) < _TIMEOUT_POOL_CAP:
                pool.append(event)

    def run_window(self, horizon):
        """Process every event with time *strictly before* ``horizon``.

        The conservative-PDES window primitive: a partition may safely
        execute up to (but not at) its synchronization horizon, because a
        cross-partition message can arrive exactly *at* the horizon.  The
        clock is left at the last processed event — never advanced to
        ``horizon`` — so ``peek()`` afterwards reports the true next
        event time for the next safe-horizon computation.  Returns the
        number of events processed.
        """
        queue = self._queue
        pool = self._timeout_pool
        pop = heappop
        refcount = getrefcount
        metered = self.metrics is not None
        processed = 0
        while queue and queue[0][0] < horizon:
            when, _prio, _seq, event = pop(queue)
            self._now = when
            if metered:
                self._events_processed += 1
            processed += 1
            callbacks = event.callbacks
            event.callbacks = None
            for cb in callbacks:
                cb(event)
            if not event._ok and not event.defused:
                raise event._value
            if (
                type(event) is Timeout
                and refcount(event) == 2
                and len(pool) < _TIMEOUT_POOL_CAP
            ):
                pool.append(event)
        return processed

    def flush_metrics(self):
        """Fold the processed-event count into the metrics registry.

        Deferred from :meth:`step` so the hot loop pays a plain-int
        increment per event instead of a series update; the driver calls
        this once before the profile report is built.
        """
        if self.metrics is not None:
            self.metrics.counter("kernel.events").add(self._events_processed)
            self._events_processed = 0

    def run(self, until=None):
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        triggers, returning its value).
        """
        if until is None:
            stop_time, stop_event = None, None
        elif isinstance(until, Event):
            stop_time, stop_event = None, until
            if until.processed:
                if not until._ok:
                    raise until._value
                return until._value
        else:
            stop_time, stop_event = float(until), None
            if stop_time < self._now:
                raise ValueError(
                    f"until ({stop_time}) is in the past (now={self._now})"
                )

        # The event loop is inlined (rather than calling step()) and works
        # on local bindings: at paper-scale world sizes it executes
        # millions of iterations, so every attribute load per event counts.
        # The until-a-time check only exists in the stop_time flavor of
        # the loop head, keeping the (dominant) run-to-event mode free of
        # the extra heap peek per iteration.
        queue = self._queue
        pool = self._timeout_pool
        pop = heappop
        refcount = getrefcount
        metered = self.metrics is not None
        timed = stop_time is not None
        while queue:
            if timed and queue[0][0] > stop_time:
                self._now = stop_time
                return None
            when, _prio, _seq, event = pop(queue)
            self._now = when
            if metered:
                self._events_processed += 1
            callbacks = event.callbacks
            event.callbacks = None
            for cb in callbacks:
                cb(event)
            if not event._ok and not event.defused:
                raise event._value
            # An event becomes `processed` exactly when this loop pops it,
            # so comparing identities replaces the per-event
            # `stop_event.processed` property probe of the generic step().
            if type(event) is Timeout:
                if event is stop_event:
                    return event._value
                # Free-list the Timeout when this frame holds the only
                # reference (refcount 2: the local + getrefcount's arg).
                if refcount(event) == 2 and len(pool) < _TIMEOUT_POOL_CAP:
                    pool.append(event)
            elif event is stop_event:
                if not event._ok:
                    event.defused = True
                    raise event._value
                return event._value

        if stop_event is not None:
            raise RuntimeError(
                f"simulation ended before {stop_event!r} triggered"
            )
        if stop_time is not None:
            self._now = stop_time
        return None
