"""Errors raised by the simulation kernel."""


class SimxError(Exception):
    """Base class for all simulation-kernel errors."""


class EventAlreadyTriggered(SimxError):
    """Raised when an event is triggered (succeed/fail) more than once."""


class NotTriggeredError(SimxError):
    """Raised when the value of an untriggered event is read."""
