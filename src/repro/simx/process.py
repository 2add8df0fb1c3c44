"""Generator-backed simulation processes.

A process wraps a Python generator.  Each ``yield`` produces either an
:class:`~repro.simx.events.Event`, and the process resumes when the event
triggers, receiving the event's value (or having its failure exception
thrown in); or a ``float`` of simulated seconds (>= 0), and the process
sleeps that long, then resumes receiving ``None``.  A sleep takes the
sequence number ``env.timeout`` would but allocates no event: the heap
entry is the process's own bound ``_resume``, which the event loop calls.
A process starts the same way.  A process is itself an event that
triggers when the generator returns (success, with the return value) or
raises (failure).
"""

from __future__ import annotations

from heapq import heappush

from .events import DONE, NORMAL, URGENT, Event


class Process(Event):
    """A running simulation process (also usable as an event to wait on)."""

    __slots__ = ("_generator", "name")

    def __init__(self, env, generator, name=None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        env._schedule_event(self._resume, priority=URGENT)

    @property
    def is_alive(self):
        """True while the generator has not terminated."""
        return not self.triggered

    def _resume(self, event=DONE):
        # Runs once per processed event the process waits on (with no
        # argument at the start and after a sleep): feed the outcome into
        # the generator, then park on whatever it yields next (looping
        # while that is an event already processed).  A sleep, the
        # commonest yield, is tested first by exact class; a float
        # subclass (``numpy.float64``) sleeps as the equal float.  Any
        # other yield is answered with a TypeError (a ValueError for a
        # delay below zero or NaN) thrown back in; a generator that
        # catches it goes on from what it yields or returns next, like
        # after any other resume.
        generator = self._generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event.defused = True
                    target = generator.throw(event._value)
                while target.__class__ is not float or not target >= 0:
                    if isinstance(target, Event):
                        break
                    if isinstance(target, float) and target >= 0:
                        target = float(target)
                        continue
                    target = generator.throw(
                        ValueError(f"process {self.name!r} yielded "
                                   f"negative delay {target!r}")
                        if isinstance(target, float) else
                        TypeError(f"process {self.name!r} yielded "
                                  f"non-event {target!r}")
                    )
                else:  # a sleep
                    env = self.env
                    seq = env._seq + 1
                    env._seq = seq
                    heappush(
                        env._queue,
                        (env._now + target, NORMAL, seq, self._resume),
                    )
                    return
            except StopIteration as exc:
                self.succeed(exc.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if target.callbacks is None:  # processed: feed it immediately
                event = target
                continue

            target.callbacks.append(self._resume)
            return

    def __repr__(self):
        return f"<Process {self.name!r}>"
