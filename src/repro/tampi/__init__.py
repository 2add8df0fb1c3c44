"""``repro.tampi`` — the Task-Aware MPI library on the simulator.

Reproduces the TAMPI contract the paper relies on (Section II-B):

* :func:`iwait` / :func:`iwaitall` bind the completion of the *calling
  task* to the completion of MPI requests.  They are non-blocking and
  asynchronous: the task body may finish first, and its dependencies are
  released only once every bound request completed.
* :func:`isend` / :func:`irecv` are the convenience wrappers that perform
  the non-blocking operation and immediately bind the resulting request.

All functions take the :class:`~repro.tasking.runtime.TaskContext` handed
to generator task bodies, plus the rank's communicator.
"""

from .tampi import irecv, isend, iwait, iwaitall

__all__ = ["irecv", "isend", "iwait", "iwaitall"]
