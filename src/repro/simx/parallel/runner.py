"""The partitioned-kernel runner: worker processes, window loop, merge.

``run_partitioned`` splits one simulated run's ranks across
``RunSpec.pdes_workers`` OS processes.  Each worker builds the *full*
World and shared application state (replicated state evolves identically
everywhere) but instantiates rank programs — and therefore simulation
processes and events — only for its own rank subset.  The workers then
advance in lockstep **conservative time windows**:

1. flush cross-partition records (messages, collective entries) posted
   during the previous window;
2. barrier; ingest every inbound record, sorted by ``(timestamp,
   source worker, posting index)`` so the ingress order is identical
   across runs; publish the local next-event time;
3. barrier; compute the global minimum next-event time ``M`` — if it is
   ``inf`` the run is over (the ingest in step 2 proves nothing is in
   flight) — else execute every local event strictly before ``M +
   lookahead``.

The lookahead (:func:`repro.simx.parallel.lookahead`) under-approximates
the minimum latency of any cross-partition effect, so no event executed
inside a window can be invalidated by a record that arrives at the next
barrier: delivery order and every timestamp are identical to the serial
kernel, bit for bit.  The merged :class:`~repro.core.RunResult` is
byte-identical to the serial one on all serializable fields.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
import traceback
from ctypes import c_double

from .partition import PartitionMap, lookahead
from .sync import Mailboxes, SpinBarrier

_INF = float("inf")


def effective_workers(rs, machine) -> int:
    """How many workers a partitioned run of ``rs`` actually uses.

    Clamped to the rank count — a worker with no ranks would only add
    barrier latency.  ``1`` means the run takes the serial path.
    """
    return max(1, min(rs.pdes_workers, machine.num_ranks))


def can_partition() -> bool:
    """Whether this process may host PDES workers at all.

    Daemonic processes may not spawn children; a partitioned spec run
    from one (e.g. a sweep-engine pool child that was not given a slot
    width) silently degrades to the byte-identical serial kernel.
    """
    return not multiprocessing.current_process().daemon


class _WorkerLink:
    """The ``World``-facing handle of one worker (see ``World.partition``)."""

    __slots__ = ("pmap", "wid", "mail")

    def __init__(self, pmap, wid, mail):
        self.pmap = pmap
        self.wid = wid
        self.mail = mail

    def post(self, dst_worker, record):
        self.mail.post(dst_worker, record)

    def broadcast(self, record):
        self.mail.broadcast(record)


def _drive_windows(sim, mail, barrier, mins, wid, la, bus=None):
    """Run one worker's share of the window protocol to completion.

    Returns ``(windows, stall_wall_seconds)``.  ``stall`` is wall-clock
    time blocked at the two per-window barriers — the partitioned run's
    own idle class, reported via ``ProfileReport.pdes``.  With a
    telemetry ``bus`` attached (``REPRO_TELEMETRY``), every executed
    window additionally emits one ``pdes_window`` record: wall duration,
    barrier stall, and batches shipped.  Here ``wid`` is the *partition*
    id, a different domain from the engine pool slot ids.
    """
    env, world = sim.env, sim.world
    perf = time.perf_counter
    windows = 0
    stall = 0.0
    while True:
        w_t0 = perf() if bus is not None else 0.0
        shipped = mail.flush()
        t0 = perf()
        barrier.wait()
        w_stall = perf() - t0
        records = []
        # A record is ("p2p", dst, src, tag, payload, sched) or
        # ("coll", index, kind, rank, value, nbytes, time): its simulated
        # time is always the last field.
        for src, box in mail.drain():
            for idx, rec in enumerate(box):
                records.append((rec[-1], src, idx, rec))
        # Deterministic ingress order: primary by timestamp, ties broken
        # by (sending worker, posting index) — both run-invariant.
        records.sort(key=lambda r: (r[0], r[1], r[2]))
        for _t, _src, _idx, rec in records:
            if rec[0] == "p2p":
                world.ingest_p2p(*rec[1:])
            else:
                world.ingest_collective_entry(*rec[1:])
        # Publish *after* ingest: a termination verdict (all inf) then
        # proves nothing was in flight anywhere.
        mins[wid] = env.peek()
        t0 = perf()
        barrier.wait()
        w_stall += perf() - t0
        stall += w_stall
        m = min(mins)
        if m == _INF:
            return windows, stall
        windows += 1
        env.run_window(m + la)
        if bus is not None:
            bus.emit(
                "pdes_window", window=windows - 1, dur=perf() - w_t0,
                stall=w_stall, batches=shipped,
            )


def _worker_main(wid, rs, barrier_slots, queues, sent, mins, result_queue,
                 fp=None):
    """Entry point of one PDES worker process."""
    barrier = SpinBarrier(barrier_slots, wid, _num_workers(rs))
    bus = None
    try:
        if fp is not None:
            # Grandchild of the sweep engine: no queue reaches this far,
            # so attach straight to the stream file (line-atomic).
            from ...obs.telemetry import TelemetryBus

            bus = TelemetryBus.from_env(wid=wid, run=fp)
        from ...core.driver import gc_suspended

        t_start = time.perf_counter()
        with gc_suspended():
            payload = _run_worker(
                wid, rs, barrier, queues, sent, mins, bus=bus
            )
        payload["elapsed"] = time.perf_counter() - t_start
        result_queue.put(("ok", wid, payload))
    except BaseException:
        barrier.abort()  # unblock peers spinning at a window barrier
        result_queue.put(("error", wid, traceback.format_exc()))
    finally:
        if bus is not None:
            bus.close()


def _num_workers(rs) -> int:
    spec = rs.machine
    machine = spec.machine(
        num_nodes=rs.num_nodes, ranks_per_node=rs.ranks_per_node
    )
    return effective_workers(rs, machine)


def _run_worker(wid, rs, barrier, queues, sent, mins, bus=None) -> dict:
    # Imported here (not at module top) so worker bootstrap under the
    # spawn start method resolves the package cleanly and the driver
    # module keeps its lazy one-way dependency on this package.
    from ...core.driver import _build_simulation
    from ...core.results import RuntimeStats

    spec = rs.machine
    machine = spec.machine(
        num_nodes=rs.num_nodes, ranks_per_node=rs.ranks_per_node
    )
    num_workers = effective_workers(rs, machine)
    pmap = PartitionMap.build(machine, num_workers, rs.pdes_partition)
    network = spec.network.scaled_to(rs.num_nodes)
    la = lookahead(pmap, machine, network)
    mail = Mailboxes(wid, num_workers, queues, sent)
    link = _WorkerLink(pmap, wid, mail)

    sim = _build_simulation(
        rs, machine, local_ranks=pmap.local_ranks(wid), partition=link
    )
    windows, stall = _drive_windows(
        sim, mail, barrier, mins, wid, la, bus=bus
    )

    stuck = [p.name for p in sim.procs if p.is_alive]
    if stuck:
        raise RuntimeError(
            f"worker {wid}: out of events with processes still alive: "
            f"{stuck} (rank deadlock or lost cross-partition message)"
        )
    if sim.witness is not None:
        sim.witness.check()
    sim.env.flush_metrics()
    if sim.profiler is not None:
        # Deferred edges reference live Task objects; resolve them to
        # task-id ints before the profiler crosses the process boundary.
        sim.profiler.materialize_edges()

    shared = sim.shared
    payload = {
        "now": sim.env.now,
        "windows": windows,
        "stall": stall,
        "flops": shared.flops,  # local ranks' share; exact integer floats
        "stats": sim.world.stats,
        "runtime_stats": [
            (p.rank, RuntimeStats.from_runtime(p.rt.stats))
            for p in sim.programs
        ],
        "fault_stats": (
            sim.injector.stats if sim.injector is not None else None
        ),
        "profiler": sim.profiler,
    }
    for p in sim.programs:
        if p.rank == 0:
            payload["refine_time"] = p.refine_seconds
            payload["checksums"] = list(shared.checksum_log)
    if wid == 0:
        # Replicated structure state — identical on every worker; one
        # snapshot suffices.
        payload["num_blocks"] = shared.structure.num_blocks()
        payload["imbalance"] = _imbalance(shared)
    return payload


def _imbalance(shared) -> float:
    from ...amr.balance import max_imbalance

    return max_imbalance(shared.structure)


def _merge_world_stats(stats_list):
    """Component-wise sum of the per-worker ``WorldStats``.

    Every counter is sender-side (collectives are counted exactly once,
    by the owner of rank 0), so the sums equal the
    serial counters.
    """
    merged = stats_list[0]
    for s in stats_list[1:]:
        merged.messages += s.messages
        merged.bytes_sent += s.bytes_sent
        merged.intra_node_messages += s.intra_node_messages
        merged.inter_node_messages += s.inter_node_messages
        merged.collectives += s.collectives
    return merged


def _merge_profilers(workers):
    """Fold the per-worker profilers into one, remapping task ids.

    Each worker numbers tasks from 1; worker ``w``'s ids are shifted past
    every earlier worker's id span (worker order is deterministic, so the
    remapped ids are too).
    """
    base = workers[0]["profiler"]
    if base is None:
        return None
    offset = max((t for t in base.tasks), default=-1) + 1
    for w in workers[1:]:
        prof = w["profiler"]
        span = max((t for t in prof.tasks), default=-1) + 1
        base.absorb(prof, offset)
        offset += span
    return base


def run_partitioned(rs):
    """Execute a resolved RunSpec across ``rs.pdes_workers`` processes.

    Returns the merged :class:`~repro.core.RunResult` — byte-identical
    on all serializable fields to the serial run of the same spec.
    """
    from ...core.driver import _finish_result
    from ...core.results import CommStats
    from ...faults.injectors import FaultStats

    spec = rs.machine
    machine = spec.machine(
        num_nodes=rs.num_nodes, ranks_per_node=rs.ranks_per_node
    )
    num_workers = effective_workers(rs, machine)
    pmap = PartitionMap.build(machine, num_workers, rs.pdes_partition)
    network = spec.network.scaled_to(rs.num_nodes)
    la = lookahead(pmap, machine, network)

    # Telemetry rides the environment (never the spec): the fingerprint
    # is computed only when a stream is attached, so disabled runs pay
    # nothing.
    from ...obs.telemetry import TELEMETRY_ENV

    fp = rs.fingerprint() if os.environ.get(TELEMETRY_ENV) else None

    # fork shares the (already imported) package pages with the workers;
    # spawn is the portable fallback and everything shipped to
    # ``_worker_main`` is picklable for it.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    barrier_slots = SpinBarrier.make_slots(ctx, num_workers)
    queues, sent = Mailboxes.make_shared(ctx, num_workers)
    mins = ctx.RawArray(c_double, num_workers)
    result_queue = ctx.Queue()

    procs = [
        ctx.Process(
            target=_worker_main,
            args=(wid, rs, barrier_slots, queues, sent, mins, result_queue,
                  fp),
            daemon=True,
        )
        for wid in range(num_workers)
    ]
    for p in procs:
        p.start()

    payloads = {}
    error = None
    try:
        while len(payloads) < num_workers and error is None:
            try:
                kind, wid, data = result_queue.get(timeout=1.0)
            except queue_mod.Empty:
                for w, p in enumerate(procs):
                    if (
                        w not in payloads
                        and not p.is_alive()
                        and p.exitcode not in (0, None)
                    ):
                        error = (
                            f"PDES worker {w} died with exit code "
                            f"{p.exitcode}"
                        )
                        break
                continue
            if kind == "error":
                error = f"PDES worker {wid} failed:\n{data}"
            else:
                payloads[wid] = data
    finally:
        if error is not None:
            for p in procs:
                if p.is_alive():
                    p.terminate()
        for p in procs:
            p.join(timeout=30)
    if error is not None:
        raise RuntimeError(error)

    workers = [payloads[w] for w in range(num_workers)]
    if fp is not None:
        from ...obs.telemetry import TelemetryBus

        bus = TelemetryBus.from_env(run=fp)
        if bus is not None:
            bus.emit(
                "pdes_run", workers=num_workers,
                windows=workers[0]["windows"], lookahead=la,
                stall=sum(w["stall"] for w in workers),
                elapsed=max(w["elapsed"] for w in workers),
            )
            bus.close()
    total_time = max(w["now"] for w in workers)
    owner0 = pmap.owner_of(0)

    fault_stats = None
    if workers[0]["fault_stats"] is not None:
        fault_stats = FaultStats()
        for w in workers:
            fault_stats.merge(w["fault_stats"])

    profiler = _merge_profilers(workers)
    runtime_stats = [
        stats
        for _rank, stats in sorted(
            (pair for w in workers for pair in w["runtime_stats"]),
            key=lambda pair: pair[0],
        )
    ]

    return _finish_result(
        rs, machine, profiler, fault_stats,
        makespan=total_time,
        pdes={
            "workers": num_workers,
            "windows": workers[0]["windows"],
            "lookahead": la,
            "stall_wall_seconds": [w["stall"] for w in workers],
            "elapsed_wall_seconds": [w["elapsed"] for w in workers],
        },
        refine_time=workers[owner0]["refine_time"],
        flops=sum(w["flops"] for w in workers),
        num_blocks=workers[0]["num_blocks"],
        imbalance=workers[0]["imbalance"],
        checksums=workers[owner0]["checksums"],
        comm_stats=CommStats.from_world(
            _merge_world_stats([w["stats"] for w in workers])
        ),
        runtime_stats=runtime_stats,
    )
