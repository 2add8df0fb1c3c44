"""``repro.simx`` — a minimal, deterministic discrete-event simulation kernel.

This package is the foundation of the whole reproduction: the simulated
cluster, MPI library, tasking runtime, and the miniAMR application itself
all execute as :class:`Process` generators inside an :class:`Environment`.

It keeps only what the simulated stack needs: one-shot events,
timeouts, all/any conditions (``Waitall``/``Waitany``) and generator
processes, which wait on an event or sleep on a ``float`` delay without
one.  Every event goes through one event loop, which
:meth:`Environment.run` (to the end, to a time, or to an event) and the
conservative-PDES :meth:`Environment.run_window` share.

Public API::

    env = Environment()
    def proc(env):
        yield 1.0                  # sleep one simulated second
        yield env.timeout(1.0)     # the same wait, as an event
        return "done"
    p = env.process(proc(env))
    env.run()
"""

from .errors import EventAlreadyTriggered, NotTriggeredError, SimxError
from .events import (
    DONE, NORMAL, URGENT, AllOf, AnyOf, Condition, Event, Timeout,
)
from .kernel import Environment
from .process import Process

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "DONE",
    "Environment",
    "Event",
    "EventAlreadyTriggered",
    "NORMAL",
    "NotTriggeredError",
    "Process",
    "SimxError",
    "Timeout",
    "URGENT",
]
