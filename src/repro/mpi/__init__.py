"""``repro.mpi`` — a from-scratch simulated MPI library.

Substitutes for Intel MPI on the simulated cluster with the API surface
the mini-app uses on ``COMM_WORLD``: non-blocking point-to-point messaging
matched on exact (source, tag) envelopes with non-overtaking order, a
blocking ``recv``, ``waitany``/``waitall``, and tree-cost ``barrier`` and
sum-``allreduce`` collectives.  All operations are generators used with
``yield from`` inside simulation processes, mirroring how mpi4py calls
appear in real code.
"""

from .comm import RankComm, World, WorldStats, payload_nbytes
from .requests import Request

__all__ = [
    "RankComm",
    "Request",
    "World",
    "WorldStats",
    "payload_nbytes",
]
