"""Access-witness race detection for the tasking runtime.

The OmpSs-2 model (and therefore the paper's correctness argument) rests on
every task *declaring* the data it touches: the runtime only guarantees
"same physics under any legal schedule" if the declared ``in/out/inout/
commutative`` sets cover the actual reads and writes.  An under-declared
access validates happily on one scheduler and corrupts data on another —
the worst kind of bug, because the default locality schedule often happens
to serialize the racing tasks.

This module turns declared-vs-actual checking into a first-class layer:

* the runtime installs an :class:`AccessWitness` and brackets every task
  body with :meth:`AccessWitness.task_begin` / :meth:`~AccessWitness.task_end`;
* the application's data touch points (block face extraction/insertion,
  stencils, checksums, split/consolidate, communication buffers) report
  each actual access with :meth:`AccessWitness.touch`;
* a touch not covered by the executing task's declared accesses is a
  *would-be data race* and is recorded as an :class:`AccessViolation`
  (task label, phase, rank, timestep, handle); :meth:`AccessWitness.check`
  raises :class:`AccessRaceError` naming them.

Coverage rules (race semantics, not value semantics):

* a **read** touch is covered by *any* declared access to the handle —
  ``in``/``inout`` naturally, but also ``out``/``commutative`` since those
  grant exclusive access for the task's lifetime;
* a **write** touch requires a declared ``out``, ``inout``, or
  ``commutative`` access — a write under a bare ``in`` races with every
  concurrent reader;
* a declared handle covers a touched handle iff they are equal.

Touches from the main thread (no executing task) are ignored: the main
thread's accesses are program-ordered by construction.  Tasks marked
``unchecked`` (e.g. fork-join chunks, which synchronize through the
implicit barrier) are exempt.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tasking.task import AccessMode

#: Touch kinds reported by the instrumentation.
READ = "read"
WRITE = "write"

#: Declared modes that permit a write touch.
_WRITE_MODES = (AccessMode.OUT, AccessMode.INOUT, AccessMode.COMMUTATIVE)


class AccessRaceError(RuntimeError):
    """Raised when a run touched data outside its declared dependencies."""


@dataclass(frozen=True)
class AccessViolation:
    """One undeclared data touch (a would-be race under another schedule)."""

    rank: int
    task_label: str
    phase: str
    timestep: object
    kind: str  # READ or WRITE
    handle: object
    time: float
    count: int = 1

    def describe(self) -> str:
        ts = "?" if self.timestep is None else self.timestep
        extra = f" (x{self.count})" if self.count > 1 else ""
        return (
            f"rank {self.rank} task {self.task_label!r} "
            f"[phase {self.phase}, timestep {ts}, t={self.time:.6f}] "
            f"performed an undeclared {self.kind} of handle "
            f"{self.handle!r}{extra}"
        )


def covers(declared_mode, declared_handle, kind, handle) -> bool:
    """Whether one declared access covers an actual touch."""
    if kind == WRITE and declared_mode not in _WRITE_MODES:
        return False
    return declared_handle == handle


class _Frame:
    """One executing (witnessed) task."""

    __slots__ = ("task", "rank", "timestep")

    def __init__(self, task, rank, timestep):
        self.task = task
        self.rank = rank
        self.timestep = timestep


class AccessWitness:
    """Records actual task data accesses and flags undeclared ones.

    A single witness is shared by every rank runtime of a run (the
    simulator is single-threaded, so a stack of executing tasks suffices;
    the data touch points all execute synchronously inside task bodies).
    """

    def __init__(self, env=None, max_violations=1000):
        self.env = env
        self.max_violations = max_violations
        #: Distinct violations in discovery order.
        self.violations = []
        #: Total touches checked (coverage meter for tests/reports).
        self.touches_checked = 0
        self._stack = []
        self._seen = {}  # (label, phase, kind, handle) -> AccessViolation idx

    # ------------------------------------------------------------------
    # Runtime-facing hooks
    # ------------------------------------------------------------------
    def task_begin(self, task, rank, timestep=None):
        self._stack.append(_Frame(task, rank, timestep))

    def task_end(self, task):
        # Pop by identity from the top — tolerates the (comm-task) case of
        # generator bodies finishing out of LIFO order after suspension.
        for i in range(len(self._stack) - 1, -1, -1):
            if self._stack[i].task is task:
                del self._stack[i]
                return

    # ------------------------------------------------------------------
    # Application-facing instrumentation
    # ------------------------------------------------------------------
    def touch(self, kind, handle):
        """Report one actual data access of the executing task.

        ``kind`` is :data:`READ` or :data:`WRITE`.  Touches outside any
        witnessed task (main-thread code, whose accesses are
        program-ordered by construction) and touches inside ``unchecked``
        tasks are ignored.
        """
        if not self._stack:
            return
        frame = self._stack[-1]
        task = frame.task
        if task.unchecked:
            return
        self.touches_checked += 1
        for declared_mode, declared_handle in task.accesses:
            if covers(declared_mode, declared_handle, kind, handle):
                return
        self._record(frame, kind, handle)

    def _record(self, frame, kind, handle):
        key = (frame.task.label, frame.task.phase, kind, handle)
        idx = self._seen.get(key)
        if idx is not None:
            old = self.violations[idx]
            self.violations[idx] = AccessViolation(
                rank=old.rank, task_label=old.task_label, phase=old.phase,
                timestep=old.timestep, kind=old.kind, handle=old.handle,
                time=old.time, count=old.count + 1,
            )
            return
        if len(self.violations) >= self.max_violations:
            return
        self._seen[key] = len(self.violations)
        self.violations.append(AccessViolation(
            rank=frame.rank,
            task_label=frame.task.label,
            phase=frame.task.phase,
            timestep=frame.timestep,
            kind=kind,
            handle=handle,
            time=float(self.env.now) if self.env is not None else 0.0,
        ))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.violations

    def report(self, limit=20) -> str:
        """Human-readable summary of the recorded violations."""
        if not self.violations:
            return (
                f"access witness: clean "
                f"({self.touches_checked} touches checked)"
            )
        lines = [
            f"access witness: {len(self.violations)} undeclared "
            f"access(es) detected ({self.touches_checked} touches checked):"
        ]
        for v in self.violations[:limit]:
            lines.append(f"  - {v.describe()}")
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)

    def check(self):
        """Raise :class:`AccessRaceError` if any violation was recorded."""
        if self.violations:
            raise AccessRaceError(self.report())
