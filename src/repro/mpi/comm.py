"""The simulated MPI world and per-rank communicator facades.

A :class:`World` owns message matching for every rank on one simulated
cluster.  Each rank's program uses a :class:`RankComm`, whose operations are
generators to be invoked with ``yield from`` inside a simulation process::

    req = yield from comm.isend(dest=1, tag=7, nbytes=4096, payload=arr)
    ...
    yield from comm.waitall([req])

Semantics follow MPI on ``COMM_WORLD``: non-blocking sends/receives matched
on their exact (source, tag) envelope, per-channel non-overtaking order, and
tree-cost ``barrier``/``allreduce`` collectives that synchronize all ranks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .requests import Request


def payload_nbytes(value) -> int:
    """Best-effort byte size of a payload (for timing purposes)."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return 8 * len(value)
    return 8


class _Channel:
    """State of one directed (source, destination) rank pair."""

    __slots__ = ("clamp", "posted", "unexpected")

    def __init__(self):
        #: Latest arrival time so far (MPI's non-overtaking guarantee).
        self.clamp = 0.0
        #: The destination's receives from this source, in posting order.
        self.posted = []  # of (tag, Request)
        #: Landed messages no receive matched yet, in arrival order.
        self.unexpected = []  # of (tag, payload)


class _CollectiveOp:
    """One in-progress collective across all ranks."""

    __slots__ = ("kind", "entries", "events", "nbytes_max", "times")

    def __init__(self, kind):
        self.kind = kind
        self.entries = {}  # rank -> value
        self.events = {}  # rank -> Event (local ranks only when spanning)
        self.nbytes_max = 0
        #: rank -> entry time; only maintained for partition-spanning
        #: collectives, where completion is ``max(times) + delay`` rather
        #: than an ``env.timeout`` at the moment the last entry lands.
        self.times = {}


@dataclass
class WorldStats:
    """Aggregate communication counters (for analysis and tests)."""

    messages: int = 0
    bytes_sent: int = 0
    intra_node_messages: int = 0
    inter_node_messages: int = 0
    collectives: int = 0


class World:
    """All communication state of one simulated MPI world."""

    def __init__(
        self, env, machine, network, profiler=None, faults=None,
        partition=None,
    ):
        self.env = env
        self.machine = machine
        self.network = network
        #: Optional partitioned-run link (:mod:`repro.simx.parallel`): an
        #: object with ``pmap`` (the rank→worker map), ``wid`` (this
        #: worker), and ``post(dst_worker, record)`` /
        #: ``broadcast(record)`` for boundary traffic.  ``None`` in the
        #: (default) serial kernel — every partition branch below is one
        #: ``is None`` test on that path.
        self.partition = partition
        self._owner = partition.pmap.owner if partition is not None else None
        self._wid = partition.wid if partition is not None else 0
        #: Whether the ranks live on more than one PDES worker (then
        #: collectives complete from entries replicated across workers).
        self._spans = partition is not None and len(set(self._owner)) > 1
        #: Optional :class:`repro.obs.Profiler` (records per-call wait
        #: intervals and per-message in-flight windows).
        self.profiler = profiler
        #: Optional :class:`repro.faults.FaultInjector` — adds
        #: deterministic extra in-flight delay (degradation windows,
        #: jitter, loss retransmissions) to every point-to-point message.
        self.faults = faults
        self.size = machine.num_ranks
        #: Each rank's node (``machine.node_of``, read once per message).
        self._node_of = [machine.node_of(r) for r in range(self.size)]
        #: Directed channels, keyed by the packed int ``(src << 16) | dst``
        #: instead of a pair: one small-int hash per message rather than a
        #: tuple allocation + tuple hash on the hottest send path.
        self._channels = defaultdict(_Channel)
        #: Injection-port free time per rank (dense list — every message
        #: indexes it, a dict would rehash the rank each time).
        self._nic_free = [0.0] * self.size
        self._pending_colls = {}  # collective index -> _CollectiveOp
        self._coll_seq = [0] * self.size  # rank -> next collective index
        self.stats = WorldStats()
        self.comms = [RankComm(self, rank) for rank in range(self.size)]

    def close(self):
        """Drop the per-rank facades: each one points back at this world."""
        self.comms = []

    # ------------------------------------------------------------------
    def comm(self, rank: int) -> "RankComm":
        """The communicator facade of ``rank``."""
        return self.comms[rank]

    # ------------------------------------------------------------------
    # Point-to-point internals
    # ------------------------------------------------------------------
    def _post_send(self, src, dst, tag, nbytes, payload, req):
        """Schedule the delivery of one message.

        Messages serialize through the sender's injection port (a rank can
        only push one message's bytes at a time — the physical effect that
        makes one-message-per-face configurations pay for their count),
        then take a latency to land.  Per-channel arrival order is kept
        monotonic for MPI's non-overtaking guarantee.
        """
        env = self.env
        now = env._now
        node_of = self._node_of
        same_node = node_of[src] == node_of[dst]
        nic_free = self._nic_free
        free = nic_free[src]
        inject_start = free if free > now else now
        inject_end = inject_start + self.network.injection_time(
            nbytes, same_node
        )
        nic_free[src] = inject_end
        latency = (
            self.network.latency_intra
            if same_node
            else self.network.latency_inter
        )
        base_arrival = inject_end + latency
        if self.faults is not None:
            extra = self.faults.message_delay(
                src, dst, nbytes, same_node, now
            )
            if extra > 0:
                if self.profiler is not None:
                    self.profiler.fault_delay(
                        src, dst, base_arrival, base_arrival + extra
                    )
                base_arrival += extra
        # Injected delay precedes the non-overtaking clamp: a delayed
        # message holds back everything behind it on the same channel,
        # like a real retransmission would.
        channel = self._channels[(src << 16) | dst]
        clamp = channel.clamp
        arrival = base_arrival if base_arrival > clamp else clamp
        channel.clamp = arrival

        stats = self.stats
        stats.messages += 1
        stats.bytes_sent += nbytes
        if same_node:
            stats.intra_node_messages += 1
        else:
            stats.inter_node_messages += 1

        if self.profiler is not None:
            self.profiler.message_posted(src, dst, now, arrival, nbytes)

        owner = self._owner
        if owner is not None and owner[dst] != self._wid:
            # Cross-partition: ship the delivery to the owning worker at
            # the exact absolute heap time the serial kernel would use —
            # ``now + (arrival - now)``, not ``arrival``, because the
            # serial path schedules a *relative* timeout and float
            # addition does not associate.  The send request stays local
            # and completes at that same instant (rendezvous semantics:
            # the sender unblocks when the message has landed).
            sched = now + (arrival - now)
            self.partition.post(
                owner[dst], ("p2p", dst, src, tag, payload, sched)
            )
            env.schedule_at(sched, lambda _ev: req._complete())
            return
        timer = env.timeout(arrival - now)
        timer.callbacks.append(
            lambda _ev: self._deliver(channel, tag, payload, req)
        )

    def _deliver(self, channel, tag, payload, send_req):
        """Land one message: match the first posted receive with its tag,
        else queue the message as unexpected."""
        posted = channel.posted
        for k, (want, req) in enumerate(posted):
            if want == tag:
                del posted[k]
                # Real MPIs hash the posted queue by source, so only this
                # source's earlier receives cost a scan step.  Deep
                # per-source queues — the one-message-per-face pattern —
                # still pay.
                scan = k * self.network.match_scan_cost
                if scan > 0:
                    timer = self.env.timeout(scan)
                    timer.callbacks.append(
                        lambda _ev, r=req: r._complete(payload)
                    )
                else:
                    req._complete(payload)
                break
        else:
            channel.unexpected.append((tag, payload))
        # The send completes when the message has landed (rendezvous-ish
        # model: safe-to-reuse-buffer semantics).  A message ingressed
        # from another worker has no local send request: its sender
        # completes the request on its own clock (:meth:`_post_send`).
        if send_req is not None:
            send_req._complete()

    # ------------------------------------------------------------------
    # Collectives internals
    # ------------------------------------------------------------------
    def _collective_op(self, index, kind, rank) -> _CollectiveOp:
        op = self._pending_colls.get(index)
        if op is None:
            op = self._pending_colls[index] = _CollectiveOp(kind)
        elif op.kind != kind:
            raise RuntimeError(
                f"collective mismatch at index {index}: rank {rank} "
                f"called {kind!r} but others called {op.kind!r}"
            )
        return op

    def _enter_collective(self, rank, kind, value, nbytes):
        """Register one rank's entry; returns the rank's completion event."""
        index = self._coll_seq[rank]
        self._coll_seq[rank] = index + 1
        op = self._collective_op(index, kind, rank)
        if rank in op.entries:
            raise RuntimeError(
                f"rank {rank} entered collective {index} twice"
            )
        op.entries[rank] = value
        op.nbytes_max = max(op.nbytes_max, nbytes)
        event = self.env.event()
        op.events[rank] = event
        if self._spans:
            now = self.env._now
            op.times[rank] = now
            # Replicate this entry on every other worker; the op
            # completes wherever the full entry set is assembled first
            # (here mid-window, or at a peer's next barrier ingest).
            self.partition.broadcast(
                ("coll", index, kind, rank, value, nbytes, now)
            )
        if len(op.entries) == self.size:
            del self._pending_colls[index]
            self._finish_collective(op)
        return event

    def _finish_collective(self, op):
        """Complete ``op`` once every rank has entered it.

        ``allreduce`` folds the entries with ``+`` in rank order; every
        rank receives the same result.  Partition-spanning collectives
        run this on every participating worker with identical replicated
        entries; each schedules completion events only for the ranks it
        hosts, at the common absolute time ``max(entry times) + delay`` —
        the exact float the serial kernel produces when the last entry's
        completion timeout is scheduled.  That time always lands at or
        beyond the current safe horizon (``delay >= collective_round >
        lookahead``), so workers that complete the op at different
        barriers stay consistent.
        """
        size = self.size
        result = None
        if op.kind == "allreduce":
            entries = op.entries
            result = entries[0]
            for rank in range(1, size):
                result = result + entries[rank]
        delay = self.network.collective_time(op.nbytes_max, size)
        env = self.env
        if self._spans:
            if self._owner[0] == self._wid:
                # Counted once across the fleet — by the owner of rank 0
                # (the WorldStats merge sums workers).
                self.stats.collectives += 1
            done = max(op.times.values()) + delay
            for event in op.events.values():
                env.schedule_at(done, lambda _ev, e=event: e.succeed(result))
            return
        self.stats.collectives += 1
        for event in op.events.values():
            timer = env.timeout(delay)
            timer.callbacks.append(lambda _ev, e=event: e.succeed(result))

    # ------------------------------------------------------------------
    # Partitioned-kernel ingress (called by the window runner at window
    # barriers; see repro.simx.parallel.runner)
    # ------------------------------------------------------------------
    def ingest_p2p(self, dst, src, tag, payload, sched):
        """Accept one cross-partition message for local delivery at its
        exact serial heap time ``sched``."""
        channel = self._channels[(src << 16) | dst]
        self.env.schedule_at(
            sched, lambda _ev: self._deliver(channel, tag, payload, None)
        )

    def ingest_collective_entry(self, index, kind, rank, value, nbytes, time):
        """Accept one remote rank's collective entry into the local
        replica.  No local sequence number is consumed — ``index`` was
        assigned by the entering rank on its own worker (per-rank entry
        order is partition-invariant, so indices agree everywhere)."""
        op = self._collective_op(index, kind, rank)
        op.entries[rank] = value
        op.nbytes_max = max(op.nbytes_max, nbytes)
        op.times[rank] = time
        if len(op.entries) == self.size:
            del self._pending_colls[index]
            self._finish_collective(op)


class RankComm:
    """Per-rank communicator facade (the object rank programs use)."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank
        self.env = world.env

    def _trace(self, name, t0):
        """Record one call (callers test ``world.profiler`` first)."""
        self.world.profiler.mpi_call(self.rank, name, t0, self.env._now)

    # ------------------------------------------------------------------
    # Point-to-point (generators: use with ``yield from``)
    # ------------------------------------------------------------------
    def isend(self, dest, tag, nbytes=None, payload=None):
        """Non-blocking send; returns a :class:`Request`."""
        world = self.world
        if not 0 <= dest < world.size:
            raise ValueError(f"invalid destination rank {dest}")
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        env = self.env
        t0 = env._now
        yield world.network.send_cpu_time(nbytes)
        req = Request(env, "send")
        world._post_send(self.rank, dest, tag, nbytes, payload, req)
        if world.profiler is not None:
            self._trace("Isend", t0)
        return req

    def irecv(self, source, tag, nbytes=0):
        """Non-blocking receive of the message ``(source, tag)``; returns
        a :class:`Request` whose ``data`` is the payload once completed.

        ``nbytes`` is only a hint used to charge posting overhead.
        """
        world = self.world
        if not 0 <= source < world.size:
            raise ValueError(f"invalid source rank {source}")
        env = self.env
        t0 = env._now
        yield world.network.recv_cpu_time(nbytes)
        req = Request(env, "recv")
        channel = world._channels[(source << 16) | self.rank]
        unexpected = channel.unexpected
        for k, (want, payload) in enumerate(unexpected):
            if want == tag:
                del unexpected[k]
                scan = k * world.network.match_scan_cost
                if scan > 0:  # walking this source's unexpected messages
                    yield float(scan)
                req._complete(payload)
                break
        else:
            channel.posted.append((tag, req))
        if world.profiler is not None:
            self._trace("Irecv", t0)
        return req

    def recv(self, source, tag, nbytes=0):
        """Blocking receive; returns the completed :class:`Request`."""
        t0 = self.env._now
        req = yield from self.irecv(source, tag, nbytes)
        yield req.event
        if self.world.profiler is not None:
            self._trace("Recv", t0)
        return req

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def waitall(self, requests):
        """Block until every request in ``requests`` completes."""
        t0 = self.env._now
        pending = [r for r in requests if r is not None and not r.completed]
        if pending:
            yield self.env.all_of([r.event for r in pending])
        if self.world.profiler is not None:
            self._trace("Waitall", t0)

    def waitany(self, requests):
        """Block until some request completes; returns (index, request).

        Entries that are ``None`` are skipped (consumed slots), matching the
        ``MPI_Waitany`` idiom in miniAMR's communicate loop.
        """
        t0 = self.env._now
        live = [(i, r) for i, r in enumerate(requests) if r is not None]
        if not live:
            raise ValueError("waitany on empty request list")
        for i, r in live:
            if r.completed:
                if self.world.profiler is not None:
                    self._trace("Waitany", t0)
                return i, r
        yield self.env.any_of([r.event for _i, r in live])
        for i, r in live:
            if r.completed:
                if self.world.profiler is not None:
                    self._trace("Waitany", t0)
                return i, r
        raise RuntimeError("waitany: no request completed")  # pragma: no cover

    # ------------------------------------------------------------------
    # Collectives (generators: use with ``yield from``)
    # ------------------------------------------------------------------
    def _collective(self, kind, value, nbytes):
        world = self.world
        t0 = self.env._now
        yield world.network.send_cpu_time(nbytes)
        event = world._enter_collective(self.rank, kind, value, nbytes)
        result = yield event
        if world.profiler is not None:
            self._trace(kind.capitalize(), t0)
        return result

    def barrier(self):
        """Synchronize all ranks."""
        return (yield from self._collective("barrier", None, 0))

    def allreduce(self, value, nbytes=None):
        """Sum ``value`` across ranks (in rank order); every rank gets the
        result."""
        if nbytes is None:
            nbytes = payload_nbytes(value)
        return (yield from self._collective("allreduce", value, nbytes))
