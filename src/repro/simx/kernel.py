"""The discrete-event simulation environment.

The :class:`Environment` owns the virtual clock and the event heap.  It is
intentionally SimPy-like so the rest of the stack (simulated MPI, the
tasking runtime, the miniAMR port) reads like ordinary process-oriented
simulation code, while remaining dependency-free and fully deterministic:
simultaneous events are processed in (priority, schedule-order).  A
process that waits only on time (every simulated CPU charge) yields a
``float`` delay, and the heap then holds its resume, not an event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf, nextafter
from types import MethodType

from .events import NORMAL, AllOf, AnyOf, Event, Timeout
from .process import Process


class Environment:
    """A deterministic discrete-event simulation environment."""

    def __init__(self, initial_time=0.0, metrics=None):
        self._now = float(initial_time)
        # Heap of (time, priority, seq, event or a process's _resume).
        self._queue = []
        self._seq = 0
        #: Optional :class:`repro.obs.MetricsRegistry` the processed-event
        #: count is flushed into (None = no accounting).
        self.metrics = metrics
        # The event loop counts processed events here; flush_metrics()
        # folds the count into the registry at run end.
        self._events_processed = 0
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
        so the event loop processes it like any other triggered event.
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

        A process that only needs to wait yields the delay itself (a
        ``float``), which takes the same sequence number and allocates
        no event; see :class:`~repro.simx.process.Process`.
        """
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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else inf

    def _loop(self, horizon, stop):
        """Process events with time *strictly before* ``horizon``.

        Stops early right after processing the event ``stop`` (if not
        None).  Re-raises the exception of any failed event whose failure
        nobody handled.  Returns the number of events processed.

        A heap entry holds an event, or the bound ``_resume`` of a
        process that starts or ends a sleep, which is called directly and
        counts as one processed event.

        Every mode of :meth:`run` and :meth:`run_window` goes through
        here.  At paper-scale world sizes this executes millions of
        iterations, so it works on local bindings: every attribute load
        per event counts.
        """
        queue = self._queue
        pop = heappop
        method = MethodType
        processed = 0
        try:
            while queue and queue[0][0] < horizon:
                when, _prio, _seq, event = pop(queue)
                self._now = when
                processed += 1
                if type(event) is method:  # a process starting or waking
                    event()
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event.defused:
                    raise event._value
                if event is stop:
                    break
        finally:
            self._events_processed += processed
        return processed

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
        return self._loop(horizon, None)

    def flush_metrics(self):
        """Fold the processed-event count into the metrics registry.

        Deferred from the event loop so it pays a plain-int increment per
        event instead of a series update; the driver calls this once
        before the profile report is built.
        """
        if self.metrics is not None:
            self.metrics.counter("kernel.events").add(self._events_processed)
            self._events_processed = 0

    def run(self, until=None):
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time, events at exactly that time
        included), or an :class:`Event` (run until it triggers, returning
        its value).
        """
        if until is None:
            self._loop(inf, None)
            return None
        if isinstance(until, Event):
            if not until.processed:
                self._loop(inf, until)
                if not until.processed:
                    raise RuntimeError(
                        f"simulation ended before {until!r} triggered"
                    )
            if not until._ok:
                raise until._value
            return until._value
        at = float(until)
        if at < self._now:
            raise ValueError(f"until ({at}) is in the past (now={self._now})")
        self._loop(nextafter(at, inf), None)
        self._now = at
        return None
