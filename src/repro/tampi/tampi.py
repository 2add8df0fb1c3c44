"""Task-Aware MPI operations (see package docstring for the contract)."""

from __future__ import annotations


def iwait(ctx, request):
    """Bind ``request`` to the calling task (``TAMPI_Iwait``).

    Non-blocking and asynchronous: returns immediately; the task will not
    release its dependencies until the request completes.  May be called
    several times to bind multiple requests.
    """
    profiler = ctx.runtime.profiler
    if profiler is not None:
        profiler.iwait_outcome(
            ctx.runtime.rank,
            "bound" if not request.completed else "immediate",
        )
    if not request.completed:
        ctx.runtime.bind_request(ctx.task, request)


def iwaitall(ctx, requests):
    """Bind every request in ``requests`` (``TAMPI_Iwaitall``)."""
    for request in requests:
        if request is not None:
            iwait(ctx, request)


def isend(ctx, comm, dest, tag, nbytes=None, payload=None):
    """``TAMPI_Isend``: non-blocking send bound to the calling task.

    Generator — use as ``req = yield from tampi.isend(...)`` inside a task
    body.  The posting CPU overhead is charged to the executing core; the
    task completes (releases dependencies) only once the message landed.
    """
    request = yield from comm.isend(dest, tag, nbytes=nbytes, payload=payload)
    iwait(ctx, request)
    return request


def irecv(ctx, comm, source, tag, nbytes=0):
    """``TAMPI_Irecv``: non-blocking receive bound to the calling task.

    The received payload is available as ``request.data`` once the task's
    successors run (never inside this task — the paper stresses the data
    must not be consumed by the binding task itself).
    """
    request = yield from comm.irecv(source, tag, nbytes=nbytes)
    iwait(ctx, request)
    return request

