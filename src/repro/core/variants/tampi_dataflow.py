"""The TAMPI+OSS data-flow variant — the paper's contribution.

Every phase is taskified and connected through data dependencies
(Algorithm 3 for communication, Algorithm 4 for the main loop):

* **receive tasks** call ``TAMPI_Irecv`` and declare an *out* dependency on
  their receive-buffer section; they complete (and release unpackers) only
  when the message lands;
* **pack tasks** read a block face (*in* on the block/group handle) and
  write a send-buffer section (*out*);
* **send tasks** call ``TAMPI_Isend`` with a multi-dependency *in* on every
  buffer section of their message; the buffer is reusable when they
  complete;
* **unpack tasks** read the receive buffer and update the block ghosts;
* **intra-process copy tasks** link the two blocks they touch;
* **stencil / checksum / split / consolidate** tasks depend on blocks at
  (block, variable-group) granularity — the paper's deliberate choice
  ("dependencies only consider the mesh blocks and their range of
  variables, not faces").

The ``--separate_buffers`` option namespaces buffer handles per direction,
removing the false dependencies of miniAMR's shared buffer space;
``--send_faces`` + ``--max_comm_tasks`` control communication granularity.
The checksum uses OmpSs-2's taskwait-with-dependencies to validate the
*previous* checksum stage (Section IV-C), avoiding a full barrier.
"""

from __future__ import annotations

import numpy as np

from ... import tampi
from ...amr.comm_plan import direction_tag, group_nbytes, message_groups
from ...tasking import AccessMode
from ...verify.witness import READ, WRITE
from ..app import BaseRankProgram

# Spawns pass finished ``(mode, handle)`` tuples, ordered ins, outs,
# inouts, commutatives: the tracker wires edges (and so sets the release
# order) in access order.
IN, OUT, INOUT = AccessMode.IN, AccessMode.OUT, AccessMode.INOUT
COMMUTATIVE = AccessMode.COMMUTATIVE


class TampiDataflowProgram(BaseRankProgram):
    """MPI + OmpSs-2 + TAMPI full taskification."""

    name = "tampi_dataflow"

    #: Enable the delayed-checksum optimization (Section IV-C).
    delayed_checksum = True

    def __init__(self, shared, rank, comm, runtime):
        super().__init__(shared, rank, comm, runtime)
        #: Pending delayed checksum: (handles, partials, vslice layout).
        self._pending_checksum = None
        self._csum_seq = 0

    # ------------------------------------------------------------------
    # ``block_handle`` is inherited from BaseRankProgram so the shared
    # data ops report their accesses with the very handles declared here.
    def _buffer_ns(self, axis):
        """Buffer namespace: per-direction iff --separate_buffers."""
        return axis if self.cfg.separate_buffers else 0

    # ------------------------------------------------------------------
    def communicate(self, group):
        cfg = self.cfg
        vs = cfg.group_slice(group)
        plans = self.plans_for_group(group)
        rt = self.rt
        # Cache-locality key: tasks touching the same block chain on a
        # core under the immediate-successor policy (the IPC mechanism the
        # paper identifies in Section V-B).
        boost = self.cost.locality_ipc_boost

        for dplan in plans:
            axis = dplan.axis
            ns = self._buffer_ns(axis)

            # --- Receive tasks (Algorithm 3 line 4) --------------------
            # Unpackers are spawned LAST (lines 19-20): creating them
            # before the pack tasks would make a pack whose source block
            # also receives a ghost depend on this stage's unpack — a
            # cross-rank dependency cycle.
            recv_jobs = []  # (slot, mgroup, rbuf)
            for peer in sorted(dplan.recvs):
                groups = message_groups(
                    dplan.recvs[peer], cfg.send_faces, cfg.max_comm_tasks
                )
                for gi, mgroup in enumerate(groups):
                    rbuf = ("rbuf", ns, peer, gi)
                    slot = {}
                    yield rt.charge_spawn()
                    rt.spawn(
                        ("recv d{} p{} m{}", axis, peer, gi),
                        body=self._recv_body(
                            slot, peer, direction_tag(axis, gi),
                            group_nbytes(mgroup), rbuf,
                        ),
                        accesses=((OUT, rbuf),),
                        phase="recv",
                    )
                    recv_jobs.append((slot, mgroup, rbuf))

            # --- Pack tasks + send tasks (lines 9-12) ------------------
            for peer in sorted(dplan.sends):
                groups = message_groups(
                    dplan.sends[peer], cfg.send_faces, cfg.max_comm_tasks
                )
                for gi, mgroup in enumerate(groups):
                    sections = [
                        ("sbuf", ns, peer, gi, fi)
                        for fi in range(len(mgroup))
                    ]
                    slots = [None] * len(mgroup)
                    for fi, t in enumerate(mgroup):
                        src_handle = self.block_handle(t.src, group)
                        yield rt.charge_spawn()
                        rt.spawn(
                            ("pack d{} {.coords}", axis, t.src),
                            cost=self.copy_cost(t.nbytes),
                            body=self._pack_body(slots, fi, t, vs, sections[fi]),
                            accesses=((IN, src_handle), (OUT, sections[fi])),
                            affinity=t.src,
                            locality_factor=boost,
                            phase="pack",
                        )
                    # Multi-dependency on every section of the message.
                    yield rt.charge_spawn()
                    rt.spawn(
                        ("send d{} p{} m{}", axis, peer, gi),
                        body=self._send_body(
                            slots, peer, direction_tag(axis, gi),
                            group_nbytes(mgroup), sections,
                        ),
                        accesses=tuple([(IN, s) for s in sections]),
                        phase="send",
                    )

            # --- Intra-process copies (line 16) ------------------------
            # Ghost fills write disjoint planes of the destination block;
            # with --commutative_ghosts they take a commutative access
            # (mutual exclusion, any order) instead of inout.
            dst_mode = COMMUTATIVE if cfg.commutative_ghosts else INOUT
            for t in dplan.local:
                src_handle = self.block_handle(t.src, group)
                dst_handle = self.block_handle(t.dst, group)
                yield rt.charge_spawn()
                rt.spawn(
                    ("intra d{} {.coords}", axis, t.dst),
                    cost=self.copy_cost(t.nbytes),
                    body=self._local_copy_body(t, vs),
                    accesses=((IN, src_handle), (dst_mode, dst_handle)),
                    affinity=t.dst,
                    locality_factor=boost,
                    phase="intra",
                )

            # --- Unpack tasks (lines 19-20) ----------------------------
            for slot, mgroup, rbuf in recv_jobs:
                for fi, t in enumerate(mgroup):
                    dst_handle = self.block_handle(t.dst, group)
                    yield rt.charge_spawn()
                    rt.spawn(
                        ("unpack d{} {.coords}", axis, t.dst),
                        cost=self.copy_cost(t.nbytes),
                        body=self._unpack_body(slot, fi, t, vs, rbuf),
                        accesses=((IN, rbuf), (dst_mode, dst_handle)),
                        affinity=t.dst,
                        locality_factor=boost,
                        phase="unpack",
                    )

    # Task bodies ------------------------------------------------------
    # Generator bodies report their touches before the first yield, so
    # the witness's executing-task stack attributes them correctly even
    # though the task later suspends inside TAMPI.
    def _recv_body(self, slot, peer, tag, nbytes, rbuf):
        def body(ctx):
            self.touch(WRITE, rbuf)
            slot["req"] = yield from tampi.irecv(
                ctx, self.comm, peer, tag, nbytes
            )

        return body

    def _send_body(self, slots, peer, tag, nbytes, sections):
        def body(ctx):
            for section in sections:
                self.touch(READ, section)
            yield from tampi.isend(
                ctx, self.comm, peer, tag, nbytes=nbytes, payload=slots
            )

        return body

    def _pack_body(self, slots, fi, transfer, vs, section):
        def run():
            self.touch(WRITE, section)
            slots[fi] = self.make_face_payload(transfer, vs)

        return run

    def _unpack_body(self, slot, fi, transfer, vs, rbuf):
        def run():
            self.touch(READ, rbuf)
            data = slot["req"].data
            plane = data[fi] if data is not None else None
            self.apply_face_payload(transfer, plane, vs)

        return run

    def _local_copy_body(self, transfer, vs):
        def run():
            self.copy_local_face(transfer, vs)

        return run

    # ------------------------------------------------------------------
    def stencil(self, group):
        cfg = self.cfg
        vs = cfg.group_slice(group)
        nvars = cfg.group_size(group)
        cost = self.stencil_cost(nvars)
        boost = self.cost.locality_ipc_boost
        rt = self.rt
        for bid in sorted(self.blocks):
            yield rt.charge_spawn()
            rt.spawn(
                ("stencil {.coords}", bid),
                cost=cost,
                body=self._stencil_body(bid, vs),
                accesses=((INOUT, self.block_handle(bid, group)),),
                affinity=bid,
                locality_factor=boost,
                phase="stencil",
            )
            self.count_stencil_flops(nvars)

    def _stencil_body(self, bid, vs):
        def run():
            self.apply_stencil(bid, vs)

        return run

    # ------------------------------------------------------------------
    # Checksum (Section IV-C): task-local reductions + delayed validation
    # ------------------------------------------------------------------
    def checksum(self, stage_index):
        cfg = self.cfg
        self._csum_seq += 1
        seq = self._csum_seq
        partials = []
        handles = []
        rt = self.rt
        for group in range(cfg.num_groups):
            vs = cfg.group_slice(group)
            cost = self.checksum_cost(cfg.group_size(group))
            for bid in sorted(self.blocks):
                handle = ("csum", seq, bid, group)
                handles.append(handle)
                yield rt.charge_spawn()
                rt.spawn(
                    ("checksum {.coords}", bid),
                    cost=cost,
                    body=self._csum_body(partials, bid, vs, handle),
                    accesses=((IN, self.block_handle(bid, group)),
                              (OUT, handle)),
                    affinity=bid,
                    locality_factor=self.cost.locality_ipc_boost,
                    phase="checksum",
                )

        current = (handles, partials)
        if self.delayed_checksum:
            # Validate the PREVIOUS checksum stage; the current one keeps
            # executing in the background (taskwait-with-deps).
            if self._pending_checksum is not None:
                yield from self._validate_pending()
            self._pending_checksum = current
        else:
            self._pending_checksum = current
            yield from self._validate_pending()

    def _csum_body(self, partials, bid, vs, handle):
        def run():
            self.touch(WRITE, handle)
            partials.append((bid, vs, self.block_checksum(bid, vs)))

        return run

    def _validate_pending(self):
        handles, partials = self._pending_checksum
        self._pending_checksum = None
        yield from self.rt.taskwait_with_deps(ins=handles)
        total = np.zeros(self.cfg.num_vars, dtype=np.float64)
        # Partials arrive in task-execution order; FP addition is not
        # associative, so sum them in a canonical order to keep checksums
        # bitwise identical under every legal schedule.
        for bid, vs, part in sorted(partials, key=lambda p: (p[0], p[1].start)):
            total[vs] += part
        yield from self.validate_checksum(total)

    def checksum_local(self):  # pragma: no cover - not used by this variant
        raise NotImplementedError

    def finalize(self):
        if self._pending_checksum is not None:
            yield from self._validate_pending()
        yield from super().finalize()

    # ------------------------------------------------------------------
    def join_all(self):
        yield from self.rt.taskwait()

    def refine_control_factor(self) -> float:
        """The taskified refinement removes most serial control work from
        the critical path (the paper measures ~80%)."""
        return self.cost.taskified_refine_factor

    # ------------------------------------------------------------------
    def refine_data_ops(self, splits, consolidations):
        cfg = self.cfg
        nbytes = cfg.block_bytes()
        groups = range(cfg.num_groups)
        rt = self.rt
        for bid in splits:
            accesses = [(IN, self.block_handle(bid, g)) for g in groups]
            accesses += [
                (OUT, self.block_handle(c, g))
                for c in bid.children()
                for g in groups
            ]
            yield rt.charge_spawn()
            rt.spawn(
                ("split {.coords}", bid),
                cost=self.copy_cost(nbytes),
                body=self._split_body(bid),
                accesses=tuple(accesses),
                phase="split",
            )
        for parent in consolidations:
            accesses = [
                (IN, self.block_handle(c, g))
                for c in parent.children()
                for g in groups
            ]
            accesses += [(OUT, self.block_handle(parent, g)) for g in groups]
            yield rt.charge_spawn()
            rt.spawn(
                ("consolidate {.coords}", parent),
                cost=self.copy_cost(nbytes),
                body=self._merge_body(parent),
                accesses=tuple(accesses),
                phase="consolidate",
            )

    def _split_body(self, bid):
        def run():
            self.do_split(bid)

        return run

    def _merge_body(self, parent):
        def run():
            self.do_consolidate(parent)

        return run

    # ------------------------------------------------------------------
    # Taskified block transfer (refinement exchange, Section IV-B)
    # ------------------------------------------------------------------
    def transfer_blocks(self, moves, tag_base):
        """Pack/send/recv/unpack as tasks with TAMPI; the main thread only
        coordinates.  Parallelism is closed before returning, as the paper
        does at the end of the exchange."""
        cfg = self.cfg
        rt = self.rt
        groups = range(cfg.num_groups)
        nbytes = cfg.block_bytes()

        for bid, src, dst, idx in moves:
            if dst == self.rank:
                rbuf = ("xrbuf", idx)
                slot = {}
                yield rt.charge_spawn()
                rt.spawn(
                    ("xrecv {.coords}", bid),
                    body=self._recv_body(
                        slot, src, tag_base + idx, nbytes, rbuf
                    ),
                    accesses=((OUT, rbuf),),
                    phase="exchange-recv",
                )
                yield rt.charge_spawn()
                rt.spawn(
                    ("xunpack {.coords}", bid),
                    cost=self.copy_cost(nbytes),
                    body=self._xunpack_body(slot, bid, rbuf),
                    accesses=(
                        (IN, rbuf),
                        *[(OUT, self.block_handle(bid, g)) for g in groups],
                    ),
                    phase="exchange-unpack",
                )
            elif src == self.rank:
                sbuf = ("xsbuf", idx)
                slot = [None]
                yield rt.charge_spawn()
                rt.spawn(
                    ("xpack {.coords}", bid),
                    cost=self.copy_cost(nbytes),
                    body=self._xpack_body(slot, bid, sbuf),
                    accesses=(
                        *[(IN, self.block_handle(bid, g)) for g in groups],
                        (OUT, sbuf),
                    ),
                    phase="exchange-pack",
                )
                yield rt.charge_spawn()
                rt.spawn(
                    ("xsend {.coords}", bid),
                    body=self._xsend_body(
                        slot, dst, tag_base + idx, nbytes, sbuf
                    ),
                    accesses=((IN, sbuf),),
                    phase="exchange-send",
                )
        yield from rt.taskwait()
        # Sent blocks have left this rank.
        for bid, src, dst, _idx in moves:
            if src == self.rank and bid in self.blocks:
                del self.blocks[bid]

    def _xpack_body(self, slot, bid, sbuf):
        def run():
            self.touch_block_all_groups(READ, bid)
            self.touch(WRITE, sbuf)
            block = self.blocks[bid]
            slot[0] = block.data if block.is_real else block.surrogate

        return run

    def _xsend_body(self, slot, dst, tag, nbytes, sbuf):
        def body(ctx):
            self.touch(READ, sbuf)
            yield from tampi.isend(
                ctx, self.comm, dst, tag, nbytes=nbytes, payload=slot[0]
            )

        return body

    def _xunpack_body(self, slot, bid, rbuf):
        def run():
            self.touch(READ, rbuf)
            self.touch_block_all_groups(WRITE, bid)
            self.blocks[bid] = self._block_from_payload(
                bid, slot["req"].data
            )

        return run
