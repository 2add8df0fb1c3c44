"""The MPI+OpenMP fork-join hybrid variant.

Matches the experimental hybrid in the official miniAMR repository (plus
the fairness additions the paper made): ``omp parallel for`` with static
scheduling around the stencil, intra-process copies, face pack/unpack, the
local checksum reduction, and block split/consolidate in refinement.  All
MPI stays on the master thread, and every parallel region is an implicit
barrier — the structure whose scaling limits the paper demonstrates.
"""

from __future__ import annotations

import numpy as np

from ...amr.comm_plan import direction_tag, group_nbytes, message_groups
from ...tasking import ForkJoinTeam
from ..app import BaseRankProgram


class ForkJoinProgram(BaseRankProgram):
    """MPI + OpenMP fork-join (master-only MPI)."""

    name = "fork_join"

    def __init__(self, shared, rank, comm, runtime):
        super().__init__(shared, rank, comm, runtime)
        self.team = ForkJoinTeam(runtime)

    # ------------------------------------------------------------------
    def communicate(self, group):
        cfg = self.cfg
        vs = cfg.group_slice(group)
        plans = self.plans_for_group(group)

        for dplan in plans:
            axis = dplan.axis

            # Master posts every receive up front.
            recv_reqs = []
            recv_groups = []
            for peer in sorted(dplan.recvs):
                groups = message_groups(
                    dplan.recvs[peer], cfg.send_faces, cfg.max_comm_tasks
                )
                for gi, mgroup in enumerate(groups):
                    req = yield from self.comm.irecv(
                        peer, direction_tag(axis, gi), group_nbytes(mgroup)
                    )
                    recv_reqs.append(req)
                    recv_groups.append(mgroup)

            # Parallel pack (fork-join region), then master sends.
            send_jobs = []  # (peer, gi, mgroup, payload_slots)
            pack_costs = []
            pack_bodies = []
            for peer in sorted(dplan.sends):
                groups = message_groups(
                    dplan.sends[peer], cfg.send_faces, cfg.max_comm_tasks
                )
                for gi, mgroup in enumerate(groups):
                    slots = [None] * len(mgroup)
                    send_jobs.append((peer, gi, mgroup, slots))
                    for fi, t in enumerate(mgroup):
                        pack_costs.append(self.copy_cost(t.nbytes))
                        pack_bodies.append(
                            self._pack_body(slots, fi, t, vs)
                        )
            if pack_costs:
                yield from self.team.parallel_for(
                    pack_costs, pack_bodies, label="pack", phase="pack"
                )

            send_reqs = []
            for peer, gi, mgroup, slots in send_jobs:
                req = yield from self.comm.isend(
                    peer,
                    direction_tag(axis, gi),
                    nbytes=group_nbytes(mgroup),
                    payload=slots,
                )
                send_reqs.append(req)

            # Parallel intra-process copies.
            if dplan.local:
                costs = [self.copy_cost(t.nbytes) for t in dplan.local]
                bodies = [self._copy_body(t, vs) for t in dplan.local]
                yield from self.team.parallel_for(
                    costs, bodies, label="intra", phase="intra"
                )

            # Master waits for every receive, then a parallel unpack.
            yield from self.comm.waitall(recv_reqs)
            unpack_costs = []
            unpack_bodies = []
            for req, mgroup in zip(recv_reqs, recv_groups):
                planes = req.data if req.data is not None else [None] * len(
                    mgroup
                )
                for t, plane in zip(mgroup, planes):
                    unpack_costs.append(self.copy_cost(t.nbytes))
                    unpack_bodies.append(self._unpack_body(t, plane, vs))
            if unpack_costs:
                yield from self.team.parallel_for(
                    unpack_costs, unpack_bodies, label="unpack", phase="unpack"
                )

            yield from self.comm.waitall(send_reqs)

    def _pack_body(self, slots, fi, transfer, vs):
        def run():
            slots[fi] = self.make_face_payload(transfer, vs)

        return run

    def _copy_body(self, transfer, vs):
        def run():
            self.copy_local_face(transfer, vs)

        return run

    def _unpack_body(self, transfer, plane, vs):
        def run():
            self.apply_face_payload(transfer, plane, vs)

        return run

    # ------------------------------------------------------------------
    def stencil(self, group):
        cfg = self.cfg
        vs = cfg.group_slice(group)
        nvars = cfg.group_size(group)
        bids = sorted(self.blocks)
        if not bids:
            return
        cost = self.stencil_cost(nvars)
        costs = [cost] * len(bids)
        bodies = [self._stencil_body(bid, vs) for bid in bids]
        yield from self.team.parallel_for(
            costs, bodies, label="stencil", phase="stencil"
        )
        for _ in bids:
            self.count_stencil_flops(nvars)

    def _stencil_body(self, bid, vs):
        def run():
            self.apply_stencil(bid, vs)

        return run

    # ------------------------------------------------------------------
    def checksum_local(self):
        cfg = self.cfg
        bids = sorted(self.blocks)
        total = np.zeros(cfg.num_vars, dtype=np.float64)
        for group in range(cfg.num_groups):
            vs = cfg.group_slice(group)
            if not bids:
                continue
            cost = self.checksum_cost(cfg.group_size(group))
            partials = []
            bodies = [
                self._csum_body(partials, bid, vs) for bid in bids
            ]
            yield from self.team.parallel_for(
                [cost] * len(bids), bodies, label="checksum", phase="checksum"
            )
            # Partials land in chunk-execution order; FP addition is not
            # associative, so reduce in canonical block order to keep the
            # checksum bitwise identical under every legal schedule.
            for _bid, part in sorted(partials, key=lambda p: p[0]):
                total[vs] += part
        return total

    def _csum_body(self, partials, bid, vs):
        def run():
            partials.append((bid, self.block_checksum(bid, vs)))

        return run

    # ------------------------------------------------------------------
    def refine_data_ops(self, splits, consolidations):
        """Split/consolidate copies in parallel regions (the fairness
        addition the paper made to the fork-join variant)."""
        nbytes = self.cfg.block_bytes()
        if splits:
            costs = [self.copy_cost(nbytes)] * len(splits)
            bodies = [self._split_body(bid) for bid in splits]
            yield from self.team.parallel_for(
                costs, bodies, label="split", phase="split"
            )
        if consolidations:
            costs = [self.copy_cost(nbytes)] * len(consolidations)
            bodies = [self._merge_body(p) for p in consolidations]
            yield from self.team.parallel_for(
                costs, bodies, label="consolidate", phase="consolidate"
            )

    def _split_body(self, bid):
        def run():
            self.do_split(bid)

        return run

    def _merge_body(self, parent):
        def run():
            self.do_consolidate(parent)

        return run
