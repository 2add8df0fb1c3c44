"""Request objects for non-blocking simulated-MPI operations."""

from __future__ import annotations


class Request:
    """Handle to an in-flight non-blocking operation.

    Completion is represented by an underlying simulation event.  For
    receives, ``data`` carries the delivered payload.
    """

    __slots__ = ("event", "kind", "data")

    def __init__(self, env, kind):
        self.event = env.event()
        self.kind = kind  # "send" | "recv"
        self.data = None

    @property
    def completed(self) -> bool:
        return self.event.triggered

    def _complete(self, data=None):
        self.data = data
        self.event.succeed(None)

    def __repr__(self):
        state = "done" if self.completed else "pending"
        return f"<Request {self.kind} {state}>"
