"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes (generators) yield events to suspend until the event triggers.
Events may *succeed* with a value or *fail* with an exception; failures
propagate into every waiting process.

The kernel is fully deterministic: callbacks run in registration order and
simultaneous events fire in scheduling order.
"""

from __future__ import annotations

from .errors import EventAlreadyTriggered, NotTriggeredError

#: Priority for urgent events (process initialization).
URGENT = 0
#: Default priority for ordinary events.
NORMAL = 1

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The :class:`~repro.simx.kernel.Environment` the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env):
        self.env = env
        #: Callables invoked as ``cb(event)`` when the event is processed.
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        #: Set to True when a failure was handled (suppresses crash).
        self.defused = False

    @property
    def triggered(self):
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self):
        """True once callbacks have run (or are running)."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is _PENDING:
            raise NotTriggeredError("event has not been triggered")
        return self._ok

    @property
    def value(self):
        """The success value or failure exception of the event."""
        if self._value is _PENDING:
            raise NotTriggeredError("event has not been triggered")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule_event(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule_event(self)
        return self

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


#: An event that has already happened (succeeded with ``None``).  A
#: process that yields it goes straight on, touching neither the clock
#: nor the event heap.  It belongs to no environment, so one serves all.
DONE = Event(None)
DONE._ok = True
DONE._value = None
DONE.callbacks = None


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Use one to hang a callback on a point in time, or to wait on a delay
    inside a condition.  A process that only waits yields the delay as a
    ``float`` instead, which schedules the same heap entry without the
    event (see :class:`~repro.simx.process.Process`).
    """

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule_event(self, delay)

    def __repr__(self):
        return f"<Timeout delay={self.delay}>"


class Condition(Event):
    """Wait for a combination of events.

    ``evaluate`` receives (events, n_triggered_ok) and returns True once the
    condition holds.  On success the value is an ordered dict-like mapping of
    the *triggered* constituent events to their values.
    """

    __slots__ = ("events", "_count", "_evaluate")

    def __init__(self, env, evaluate, events):
        super().__init__(env)
        self.events = tuple(events)
        self._count = 0
        self._evaluate = evaluate

        for event in self.events:
            if event.env is not env:
                raise ValueError("events from different environments")

        if not self.events:
            self.succeed(self._collect())
            return

        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self):
        # An event has *occurred* once its callbacks ran (``processed``);
        # Timeouts are valued at creation, so ``triggered`` is too early.
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}

    def _check(self, event):
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self.events, self._count):
            self.succeed(self._collect())

    @staticmethod
    def all_events(events, count):
        return len(events) == count

    @staticmethod
    def any_events(events, count):
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Condition that succeeds once *all* constituent events succeeded."""

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that succeeds once *any* constituent event succeeded."""

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, Condition.any_events, events)
