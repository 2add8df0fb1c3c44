"""The simulated MPI world and per-rank communicator facades.

A :class:`World` owns message matching for every rank on one simulated
cluster.  Each rank's program uses a :class:`RankComm`, whose operations are
generators to be invoked with ``yield from`` inside a simulation process::

    req = yield from comm.isend(dest=1, tag=7, nbytes=4096, payload=arr)
    ...
    yield from comm.wait(req)

Semantics follow MPI: non-blocking sends/receives with envelope matching on
(source, tag), wildcard ``ANY_SOURCE``/``ANY_TAG``, per-channel
non-overtaking order, and tree-cost collectives that synchronize all ranks
of the communicator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .datatypes import ANY_SOURCE, ANY_TAG, SUM, Status
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


class _Message:
    __slots__ = ("source", "tag", "nbytes", "payload", "send_req")

    def __init__(self, source, tag, nbytes, payload, send_req):
        self.source = source
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.send_req = send_req


class _RemoteSent:
    """Stand-in send request of a message ingressed from another worker.

    The sending worker completes the real send request on its own clock
    (:meth:`World._post_send`), so on the receiving side ``_deliver``
    must only skip its completion step — a permanently-completed stub
    does exactly that without shipping the live request across workers.
    """

    __slots__ = ()
    completed = True


_REMOTE_SENT = _RemoteSent()


class _Endpoint:
    """Matching state of one (communicator, rank) destination."""

    __slots__ = ("posted", "unexpected")

    def __init__(self):
        self.posted = deque()  # of (Request, source, tag)
        self.unexpected = deque()  # of _Message


def _match(want_source, want_tag, source, tag) -> bool:
    return (want_source in (ANY_SOURCE, source)) and (
        want_tag in (ANY_TAG, tag)
    )


class _CollectiveOp:
    """One in-progress collective across all ranks of a communicator."""

    __slots__ = ("kind", "entries", "events", "meta", "nbytes_max", "times")

    def __init__(self, kind):
        self.kind = kind
        self.entries = {}  # rank -> value
        self.events = {}  # rank -> Event (local ranks only when spanning)
        self.meta = {}  # rank -> extra (e.g. root)
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
    by_tag_kind: dict = field(default_factory=dict)


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
        self._spans_cache = {}  # comm_id -> bool (members span workers?)
        #: Optional :class:`repro.obs.Profiler` (records per-call wait
        #: intervals and per-message in-flight windows).
        self.profiler = profiler
        #: Optional :class:`repro.faults.FaultInjector` — adds
        #: deterministic extra in-flight delay (degradation windows,
        #: jitter, loss retransmissions) to every point-to-point message.
        self.faults = faults
        self.size = machine.num_ranks
        self._endpoints = {}
        #: Non-overtaking clamp per directed channel.  Keyed by the packed
        #: int ``(comm_id << 32) | (src << 16) | dst`` instead of a
        #: 3-tuple: one small-int hash per message rather than a tuple
        #: allocation + tuple hash on the hottest send path.
        self._channels = {}
        #: Injection-port free time per world rank (dense list — every
        #: message indexes it, a dict would rehash the rank each time).
        self._nic_free = [0.0] * self.size
        self._pending_colls = {}  # (comm_id, index, kind-insensitive) -> op
        self._coll_seq = {}  # (comm_id, rank) -> next collective index
        self._comm_sizes = {0: self.size}
        #: comm_id -> list mapping comm-local rank to world rank (None for
        #: COMM_WORLD, which is the identity).
        self._comm_ranks = {0: None}
        self._next_comm_id = 1
        self.stats = WorldStats()
        self.comms = [RankComm(self, rank, 0) for rank in range(self.size)]

    def close(self):
        """Drop the COMM_WORLD facades: each one points back at this world."""
        self.comms = []

    # ------------------------------------------------------------------
    def comm(self, rank: int) -> "RankComm":
        """The COMM_WORLD facade of ``rank``."""
        return self.comms[rank]

    def _endpoint(self, comm_id, rank) -> _Endpoint:
        key = (comm_id, rank)
        ep = self._endpoints.get(key)
        if ep is None:
            ep = self._endpoints[key] = _Endpoint()
        return ep

    # ------------------------------------------------------------------
    # Point-to-point internals
    # ------------------------------------------------------------------
    def _post_send(self, comm_id, src, dst, tag, nbytes, payload, req):
        """Schedule message delivery; returns the arrival delay.

        Messages serialize through the sender's injection port (a rank can
        only push one message's bytes at a time — the physical effect that
        makes one-message-per-face configurations pay for their count),
        then take a latency to land.  Per-channel arrival order is kept
        monotonic for MPI's non-overtaking guarantee.
        """
        env = self.env
        now = env._now
        wmap = self._comm_ranks.get(comm_id)
        wsrc = wmap[src] if wmap else src
        wdst = wmap[dst] if wmap else dst
        same_node = self.machine.same_node(wsrc, wdst)
        nic_free = self._nic_free
        free = nic_free[wsrc]
        inject_start = free if free > now else now
        inject_end = inject_start + self.network.injection_time(
            nbytes, same_node
        )
        nic_free[wsrc] = inject_end
        latency = (
            self.network.latency_intra
            if same_node
            else self.network.latency_inter
        )
        key = (comm_id << 32) | (src << 16) | dst
        base_arrival = inject_end + latency
        if self.faults is not None:
            extra = self.faults.message_delay(
                wsrc, wdst, nbytes, same_node, now
            )
            if extra > 0:
                if self.profiler is not None:
                    self.profiler.fault_delay(
                        wsrc, wdst, base_arrival, base_arrival + extra
                    )
                base_arrival += extra
        # Injected delay precedes the non-overtaking clamp: a delayed
        # message holds back everything behind it on the same channel,
        # like a real retransmission would.
        channels = self._channels
        clamp = channels.get(key, 0.0)
        arrival = base_arrival if base_arrival > clamp else clamp
        channels[key] = arrival

        stats = self.stats
        stats.messages += 1
        stats.bytes_sent += nbytes
        if same_node:
            stats.intra_node_messages += 1
        else:
            stats.inter_node_messages += 1

        if self.profiler is not None:
            self.profiler.message_posted(
                wsrc, wdst, now, arrival, nbytes
            )

        owner = self._owner
        if owner is not None and owner[wdst] != self._wid:
            # Cross-partition: ship the delivery to the owning worker at
            # the exact absolute heap time the serial kernel would use —
            # ``now + (arrival - now)``, not ``arrival``, because the
            # serial path schedules a *relative* timeout and float
            # addition does not associate.  The send request stays local
            # and completes at that same instant (rendezvous semantics:
            # the sender unblocks when the message has landed).
            sched = now + (arrival - now)
            self.partition.post(
                owner[wdst],
                ("p2p", comm_id, dst, src, tag, nbytes, payload, sched),
            )
            env.schedule_at(sched, lambda _ev, r=req: r._complete())
            return arrival - now
        msg = _Message(src, tag, nbytes, payload, req)
        timer = env.timeout(arrival - now)
        timer.callbacks.append(
            lambda _ev: self._deliver(comm_id, dst, msg)
        )
        return arrival - now

    def _deliver(self, comm_id, dst, msg):
        ep = self._endpoint(comm_id, dst)
        scanned = 0
        for i, (req, source, tag) in enumerate(ep.posted):
            # Bucketed matching (real MPIs hash the posted queue by
            # source): only entries that could match this source cost a
            # scan step.  Deep per-source queues — the one-message-per-face
            # pattern — still pay.
            if source in (ANY_SOURCE, msg.source):
                scanned += 1
            if _match(source, tag, msg.source, msg.tag):
                del ep.posted[i]
                scan = (scanned - 1) * self.network.match_scan_cost
                if scan > 0:
                    timer = self.env.timeout(scan)
                    timer.callbacks.append(
                        lambda _ev, r=req, m=msg: self._complete_recv(r, m)
                    )
                else:
                    self._complete_recv(req, msg)
                break
        else:
            ep.unexpected.append(msg)
        # The send completes when the message has landed (rendezvous-ish
        # model: safe-to-reuse-buffer semantics).
        if not msg.send_req.completed:
            msg.send_req._complete()

    def _complete_recv(self, req, msg):
        req.status = Status(source=msg.source, tag=msg.tag, nbytes=msg.nbytes)
        req._complete(msg.payload)

    # ------------------------------------------------------------------
    # Collectives internals
    # ------------------------------------------------------------------
    def _enter_collective(self, comm_id, rank, kind, value, nbytes, meta):
        """Register one rank's entry; returns the rank's completion event."""
        if self._owner is not None and kind in ("dup", "split"):
            raise NotImplementedError(
                f"{kind} is not supported under pdes_workers > 1: derived "
                "communicator ids could not stay in sync across worker "
                "replicas"
            )
        seq_key = (comm_id, rank)
        index = self._coll_seq.get(seq_key, 0)
        self._coll_seq[seq_key] = index + 1

        op_key = (comm_id, index)
        op = self._pending_colls.get(op_key)
        if op is None:
            op = self._pending_colls[op_key] = _CollectiveOp(kind)
        elif op.kind != kind:
            raise RuntimeError(
                f"collective mismatch on comm {comm_id} index {index}: "
                f"rank {rank} called {kind!r} but others called {op.kind!r}"
            )
        if rank in op.entries:
            raise RuntimeError(
                f"rank {rank} entered collective {index} twice"
            )
        op.entries[rank] = value
        op.meta[rank] = meta
        op.nbytes_max = max(op.nbytes_max, nbytes)
        event = self.env.event()
        op.events[rank] = event

        size = self._comm_sizes[comm_id]
        if self._owner is not None and self._comm_spans(comm_id):
            now = self.env._now
            op.times[rank] = now
            # Replicate this entry on every other worker; the op
            # completes wherever the full entry set is assembled first
            # (here mid-window, or at a peer's next barrier ingest).
            self.partition.broadcast(
                ("coll", comm_id, index, kind, rank, value, nbytes, meta,
                 now)
            )
            if len(op.entries) == size:
                del self._pending_colls[op_key]
                self._finish_collective_spanning(comm_id, op, size)
            return event
        if len(op.entries) == size:
            del self._pending_colls[op_key]
            self._finish_collective(comm_id, op, size)
        return event

    def _comm_spans(self, comm_id) -> bool:
        """Whether the communicator's members live on >1 PDES worker."""
        spans = self._spans_cache.get(comm_id)
        if spans is None:
            owner = self._owner
            wmap = self._comm_ranks.get(comm_id)
            members = (
                wmap if wmap is not None
                else range(self._comm_sizes[comm_id])
            )
            spans = len({owner[r] for r in members}) > 1
            self._spans_cache[comm_id] = spans
        return spans

    # ------------------------------------------------------------------
    # Partitioned-kernel ingress (called by the window runner at window
    # barriers; see repro.simx.parallel.runner)
    # ------------------------------------------------------------------
    def ingest_p2p(self, comm_id, dst, src, tag, nbytes, payload, sched):
        """Accept one cross-partition message for local delivery at its
        exact serial heap time ``sched``."""
        msg = _Message(src, tag, nbytes, payload, _REMOTE_SENT)
        self.env.schedule_at(
            sched, lambda _ev: self._deliver(comm_id, dst, msg)
        )

    def ingest_collective_entry(
        self, comm_id, index, kind, rank, value, nbytes, meta, time
    ):
        """Accept one remote rank's collective entry into the local
        replica.  No local sequence number is consumed — ``index`` was
        assigned by the entering rank on its own worker (per-rank entry
        order is partition-invariant, so indices agree everywhere)."""
        op_key = (comm_id, index)
        op = self._pending_colls.get(op_key)
        if op is None:
            op = self._pending_colls[op_key] = _CollectiveOp(kind)
        elif op.kind != kind:
            raise RuntimeError(
                f"collective mismatch on comm {comm_id} index {index}: "
                f"rank {rank} called {kind!r} but others called {op.kind!r}"
            )
        op.entries[rank] = value
        op.meta[rank] = meta
        op.nbytes_max = max(op.nbytes_max, nbytes)
        op.times[rank] = time
        size = self._comm_sizes[comm_id]
        if len(op.entries) == size:
            del self._pending_colls[op_key]
            self._finish_collective_spanning(comm_id, op, size)

    def _finish_collective_spanning(self, comm_id, op, size):
        """Complete a partition-spanning collective from the full replica.

        Every participating worker assembles identical entries and runs
        this with identical inputs; each schedules completion events only
        for the member ranks it hosts, at the common absolute time
        ``max(entry times) + delay`` — the exact float the serial kernel
        produces when the last entry's completion timeout is scheduled.
        The completion time always lands at or beyond the current safe
        horizon (``delay >= collective_round > lookahead``), so workers
        that complete the op at different barriers stay consistent.
        """
        wmap = self._comm_ranks.get(comm_id)
        lowest = 0 if wmap is None else min(wmap)
        if self._owner[lowest] == self._wid:
            # Counted once across the fleet — by the owner of the lowest
            # member world rank (the WorldStats merge sums workers).
            self.stats.collectives += 1
        delay = self.network.collective_time(op.nbytes_max, size)
        done = max(op.times.values()) + delay
        results = self._collective_results(comm_id, op, size)
        env = self.env
        for rank, event in op.events.items():
            env.schedule_at(
                done, lambda _ev, e=event, r=results[rank]: e.succeed(r)
            )

    def _finish_collective(self, comm_id, op, size):
        env = self.env
        self.stats.collectives += 1
        delay = self.network.collective_time(op.nbytes_max, size)
        results = self._collective_results(comm_id, op, size)
        for rank, event in op.events.items():
            timer = env.timeout(delay)
            timer.callbacks.append(
                lambda _ev, e=event, r=results[rank]: e.succeed(r)
            )

    def _new_comm(self, world_ranks):
        """Allocate a derived communicator over ``world_ranks``."""
        comm_id = self._next_comm_id
        self._next_comm_id += 1
        self._comm_sizes[comm_id] = len(world_ranks)
        self._comm_ranks[comm_id] = list(world_ranks)
        return comm_id

    def _collective_results(self, comm_id, op, size):
        kind = op.kind
        values = [op.entries[r] for r in range(size)]
        if kind == "barrier":
            return {r: None for r in range(size)}
        if kind in ("allreduce", "reduce"):
            reducer = op.meta[0]["op"]
            result = reducer.reduce(values)
            if kind == "allreduce":
                return {r: result for r in range(size)}
            root = op.meta[0]["root"]
            return {r: (result if r == root else None) for r in range(size)}
        if kind == "reduce_scatter":
            reducer = op.meta[0]["op"]
            # values[r] is a per-destination list; rank d receives the
            # reduction of values[*][d].
            return {
                d: reducer.reduce([values[s][d] for s in range(size)])
                for d in range(size)
            }
        if kind == "bcast":
            root = op.meta[0]["root"]
            return {r: values[root] for r in range(size)}
        if kind == "gather":
            root = op.meta[0]["root"]
            return {
                r: (list(values) if r == root else None) for r in range(size)
            }
        if kind == "scatter":
            root = op.meta[0]["root"]
            sendbuf = values[root]
            return {r: sendbuf[r] for r in range(size)}
        if kind == "allgather":
            return {r: list(values) for r in range(size)}
        if kind == "alltoall":
            return {
                r: [values[s][r] for s in range(size)] for r in range(size)
            }
        if kind == "dup":
            wmap = self._comm_ranks.get(comm_id)
            ranks = list(wmap) if wmap else list(range(size))
            new_id = self._new_comm(ranks)
            return {r: (new_id, r) for r in range(size)}
        if kind == "split":
            wmap = self._comm_ranks.get(comm_id)
            to_world = (lambda r: wmap[r]) if wmap else (lambda r: r)
            groups = {}
            for r in range(size):
                color, key = values[r]
                if color is None:
                    continue
                groups.setdefault(color, []).append((key, r))
            results = {r: None for r in range(size)}
            for color in sorted(groups):
                members = sorted(groups[color])
                world_ranks = [to_world(r) for _k, r in members]
                new_id = self._new_comm(world_ranks)
                for new_rank, (_key, r) in enumerate(members):
                    results[r] = (new_id, new_rank)
            return results
        raise ValueError(f"unknown collective kind {kind!r}")


class RankComm:
    """Per-rank communicator facade (the object rank programs use)."""

    def __init__(self, world: World, rank: int, comm_id: int):
        self.world = world
        self.rank = rank
        self.comm_id = comm_id

    # ------------------------------------------------------------------
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.world._comm_sizes[self.comm_id]

    @property
    def env(self):
        return self.world.env

    def _trace(self, name, t0):
        world = self.world
        if world.profiler is not None:
            # The profiler keys everything by world rank; map comm-local
            # ranks of derived communicators back through the world.
            wmap = world._comm_ranks.get(self.comm_id)
            rank = wmap[self.rank] if wmap else self.rank
            world.profiler.mpi_call(rank, name, t0, self.env.now)

    # ------------------------------------------------------------------
    # Point-to-point (generators: use with ``yield from``)
    # ------------------------------------------------------------------
    def isend(self, dest, tag, nbytes=None, payload=None):
        """Non-blocking send; returns a :class:`Request`."""
        if not 0 <= dest < self.Get_size():
            raise ValueError(f"invalid destination rank {dest}")
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        env = self.env
        t0 = env.now
        yield env.timeout(self.world.network.send_cpu_time(nbytes))
        req = Request(env, "send")
        self.world._post_send(
            self.comm_id, self.rank, dest, tag, nbytes, payload, req
        )
        self._trace("Isend", t0)
        return req

    def irecv(self, source=ANY_SOURCE, tag=ANY_TAG, nbytes=0):
        """Non-blocking receive; returns a :class:`Request`.

        ``nbytes`` is only a hint used to charge posting overhead.
        """
        env = self.env
        t0 = env.now
        yield env.timeout(self.world.network.recv_cpu_time(nbytes))
        req = Request(env, "recv")
        ep = self.world._endpoint(self.comm_id, self.rank)
        scanned = 0
        for i, msg in enumerate(ep.unexpected):
            if source in (ANY_SOURCE, msg.source):
                scanned += 1
            if _match(source, tag, msg.source, msg.tag):
                del ep.unexpected[i]
                scan = (scanned - 1) * self.world.network.match_scan_cost
                if scan > 0:  # walking this source's unexpected messages
                    yield env.timeout(scan)
                self.world._complete_recv(req, msg)
                break
        else:
            ep.posted.append((req, source, tag))
        self._trace("Irecv", t0)
        return req

    def send(self, dest, tag, nbytes=None, payload=None):
        """Blocking send (completes when the message has landed)."""
        req = yield from self.isend(dest, tag, nbytes, payload)
        yield req.event
        return req

    def recv(self, source=ANY_SOURCE, tag=ANY_TAG, nbytes=0):
        """Blocking receive; returns the completed :class:`Request`."""
        t0 = self.env.now
        req = yield from self.irecv(source, tag, nbytes)
        yield req.event
        self._trace("Recv", t0)
        return req

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def wait(self, request):
        """Block until ``request`` completes; returns it."""
        t0 = self.env.now
        yield request.event
        self._trace("Wait", t0)
        return request

    def waitall(self, requests):
        """Block until every request in ``requests`` completes."""
        t0 = self.env.now
        pending = [r for r in requests if r is not None and not r.completed]
        if pending:
            yield self.env.all_of([r.event for r in pending])
        self._trace("Waitall", t0)
        return list(requests)

    def waitany(self, requests):
        """Block until some request completes; returns (index, request).

        Entries that are ``None`` are skipped (consumed slots), matching the
        ``MPI_Waitany`` idiom in miniAMR's communicate loop.
        """
        t0 = self.env.now
        live = [(i, r) for i, r in enumerate(requests) if r is not None]
        if not live:
            raise ValueError("waitany on empty request list")
        for i, r in live:
            if r.completed:
                self._trace("Waitany", t0)
                return i, r
        yield self.env.any_of([r.event for _i, r in live])
        for i, r in live:
            if r.completed:
                self._trace("Waitany", t0)
                return i, r
        raise RuntimeError("waitany: no request completed")  # pragma: no cover

    def test(self, request) -> bool:
        """Non-blocking completion check (no simulated time consumed)."""
        return request.completed

    # ------------------------------------------------------------------
    # Collectives (generators: use with ``yield from``)
    # ------------------------------------------------------------------
    def _collective(self, kind, value, nbytes, meta):
        env = self.env
        t0 = env.now
        yield env.timeout(self.world.network.send_cpu_time(nbytes))
        event = self.world._enter_collective(
            self.comm_id, self.rank, kind, value, nbytes, meta
        )
        result = yield event
        self._trace(kind.capitalize(), t0)
        return result

    def barrier(self):
        """Synchronize all ranks of the communicator."""
        return (yield from self._collective("barrier", None, 0, {}))

    def allreduce(self, value, op=SUM, nbytes=None):
        """Reduce ``value`` across ranks; every rank gets the result."""
        if nbytes is None:
            nbytes = payload_nbytes(value)
        return (
            yield from self._collective("allreduce", value, nbytes, {"op": op})
        )

    def reduce(self, value, op=SUM, root=0, nbytes=None):
        """Reduce to ``root``; other ranks receive ``None``."""
        if nbytes is None:
            nbytes = payload_nbytes(value)
        return (
            yield from self._collective(
                "reduce", value, nbytes, {"op": op, "root": root}
            )
        )

    def bcast(self, value, root=0, nbytes=None):
        """Broadcast ``root``'s value to all ranks."""
        if nbytes is None:
            nbytes = payload_nbytes(value)
        return (
            yield from self._collective("bcast", value, nbytes, {"root": root})
        )

    def gather(self, value, root=0, nbytes=None):
        """Gather one value per rank at ``root`` (others get ``None``)."""
        if nbytes is None:
            nbytes = payload_nbytes(value)
        return (
            yield from self._collective(
                "gather", value, nbytes, {"root": root}
            )
        )

    def scatter(self, values, root=0, nbytes=None):
        """Scatter ``root``'s list (one element per rank)."""
        if values is not None and len(values) != self.Get_size():
            raise ValueError("scatter needs one value per rank at the root")
        if nbytes is None:
            nbytes = payload_nbytes(values)
        return (
            yield from self._collective(
                "scatter", values, nbytes, {"root": root}
            )
        )

    def reduce_scatter(self, values, op=SUM, nbytes=None):
        """Element-wise reduce across ranks; rank d keeps element d."""
        if len(values) != self.Get_size():
            raise ValueError("reduce_scatter needs one value per rank")
        if nbytes is None:
            nbytes = sum(payload_nbytes(v) for v in values)
        return (
            yield from self._collective(
                "reduce_scatter", values, nbytes, {"op": op}
            )
        )

    def allgather(self, value, nbytes=None):
        """Gather one value per rank; every rank gets the full list."""
        if nbytes is None:
            nbytes = payload_nbytes(value)
        return (yield from self._collective("allgather", value, nbytes, {}))

    # ------------------------------------------------------------------
    # Communicator management
    # ------------------------------------------------------------------
    def dup(self):
        """Duplicate the communicator (collective); returns a new facade."""
        new_id, new_rank = yield from self._collective("dup", None, 0, {})
        return RankComm(self.world, new_rank, new_id)

    def split(self, color, key=0):
        """Split into sub-communicators by ``color`` (collective).

        Ranks passing the same color form a new communicator, ordered by
        ``(key, rank)``.  A ``None`` color (MPI_UNDEFINED) yields ``None``.
        """
        result = yield from self._collective("split", (color, key), 0, {})
        if result is None:
            return None
        new_id, new_rank = result
        return RankComm(self.world, new_rank, new_id)

    def alltoall(self, values, nbytes=None):
        """Personalized exchange: rank r receives ``values[r]`` of each."""
        if len(values) != self.Get_size():
            raise ValueError("alltoall needs one value per rank")
        if nbytes is None:
            nbytes = sum(payload_nbytes(v) for v in values)
        return (yield from self._collective("alltoall", values, nbytes, {}))
