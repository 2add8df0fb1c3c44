"""Data-dependency tracking for tasks.

Implements the standard last-writer/readers algorithm used by OmpSs-2 and
OpenMP ``depend`` clauses over whole-object handles: any hashable (e.g. a
mesh block's variable-group key), two accesses conflicting exactly when
their handles are equal.

Registration happens in task-creation order (program order), exactly as a
sequential thread creating tasks would register them.

A handle's history is forgotten once every task that registered on it has
completed (:meth:`DependencyTracker.release`): ``register`` treats a
completed writer, reader or commuter as absent, so such a history orders
nothing and a fresh one is equivalent.
"""

from __future__ import annotations

from .task import AccessMode, Task, TaskState

# Hoisted enum members: register() runs once per task access and enum
# attribute lookups are comparatively slow.
_IN = AccessMode.IN
_COMMUTATIVE = AccessMode.COMMUTATIVE
_COMPLETED = TaskState.COMPLETED


class _HandleState:
    """Dependency history of one handle."""

    __slots__ = ("last_writer", "readers", "commuters", "pending")

    def __init__(self):
        self.last_writer = None
        self.readers = []
        self.commuters = []
        #: Accesses registered on the handle by tasks not yet completed;
        #: the history is dropped when it falls to zero.
        self.pending = 0


class DependencyTracker:
    """Computes predecessor sets and wires successor edges."""

    def __init__(self):
        self._scalar = {}

    # ------------------------------------------------------------------
    def register(self, task: Task) -> int:
        """Register ``task``'s accesses; returns its predecessor count.

        Side effects: wires ``pred.successors`` edges and sets
        ``task.npred``.  Every registered task must later be passed to
        :meth:`release` when it completes.

        Completion is probed through ``t.state is COMPLETED`` rather than
        the ``completed`` property: this method runs once per access of
        every task spawned.
        """
        accesses = task.accesses
        if not accesses:
            task.npred = 0
            return 0
        # Predecessors are deduplicated through a list, not a set: tasks
        # compare by identity, so membership tests are C-level pointer
        # scans, and predecessor counts are tiny (a handful of tasks).
        preds = []
        scalar = self._scalar
        for mode, handle in accesses:
            state = scalar.get(handle)
            if state is None:
                state = scalar[handle] = _HandleState()
            state.pending += 1
            writer = state.last_writer
            if (
                writer is not None
                and writer.state is not _COMPLETED
                and writer is not task
                and writer not in preds
            ):
                preds.append(writer)
            if mode is _IN:
                for c in state.commuters:
                    if (
                        c.state is not _COMPLETED
                        and c is not task
                        and c not in preds
                    ):
                        preds.append(c)
                state.readers.append(task)
            elif mode is _COMMUTATIVE:
                # Ordered against writers and earlier readers, but NOT
                # against the other members of the commutative group —
                # those are mutually excluded by the runtime lock.
                for reader in state.readers:
                    if (
                        reader.state is not _COMPLETED
                        and reader is not task
                        and reader not in preds
                    ):
                        preds.append(reader)
                state.commuters.append(task)
            else:  # OUT and INOUT are both treated as writes
                for reader in state.readers:
                    if (
                        reader.state is not _COMPLETED
                        and reader is not task
                        and reader not in preds
                    ):
                        preds.append(reader)
                for c in state.commuters:
                    if (
                        c.state is not _COMPLETED
                        and c is not task
                        and c not in preds
                    ):
                        preds.append(c)
                state.last_writer = task
                # Only replace a history list that holds something:
                # a write after a write finds both empty.
                if state.readers:
                    state.readers = []
                if state.commuters:
                    state.commuters = []
        npred = len(preds)
        for pred in preds:
            pred.successors.append(task)
        task.npred = npred
        return npred

    def release(self, task):
        """Forget the histories ``task`` was the last incomplete registrant
        of.  Called once per registered task, at completion.

        While a task is incomplete its histories keep ``pending >= 1``, so
        each lookup finds the state ``register`` counted.
        """
        scalar = self._scalar
        for _mode, handle in task.accesses:
            state = scalar[handle]
            pending = state.pending - 1
            if pending:
                state.pending = pending
            else:
                del scalar[handle]
