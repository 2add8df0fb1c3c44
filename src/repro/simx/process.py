"""Generator-backed simulation processes.

A process wraps a Python generator.  Each ``yield`` must produce an
:class:`~repro.simx.events.Event`; the process resumes when the event
triggers, receiving the event's value (or having its failure exception
thrown in).  A process is itself an event that triggers when the generator
returns (success, with the return value) or raises (failure).
"""

from __future__ import annotations

from .events import URGENT, Event


class Initialize(Event):
    """Immediate event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env, process):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule_event(self, priority=URGENT)


class Process(Event):
    """A running simulation process (also usable as an event to wait on)."""

    __slots__ = ("_generator", "name")

    def __init__(self, env, generator, name=None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self):
        """True while the generator has not terminated."""
        return not self.triggered

    def _resume(self, event):
        # Runs once per processed event the process waits on: feed the
        # event's outcome into the generator, then park on whatever it
        # yields next (looping while that is already processed).  A
        # non-event yield is answered with a TypeError thrown back in; a
        # generator that catches it goes on from what it yields or
        # returns next, like after any other resume.
        generator = self._generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event.defused = True
                    target = generator.throw(event._value)
                while not isinstance(target, Event):
                    target = generator.throw(TypeError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    ))
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
