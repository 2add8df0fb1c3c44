"""The MPI-only reference variant (one rank per core).

Faithful to Algorithm 2: per direction, post all receives, pack and send
every outgoing message, perform intra-process copies while transfers are in
flight, drain receives with ``MPI_Waitany`` unpacking as they land, and
wait for the sends before the next direction.  Everything runs sequentially
on the rank's single core.
"""

from __future__ import annotations

import numpy as np

from ...amr.checksum import local_checksum
from ...amr.comm_plan import direction_tag, group_nbytes, message_groups
from ..app import BaseRankProgram


class MpiOnlyProgram(BaseRankProgram):
    """The reference implementation (with the Rico et al. data layout)."""

    name = "mpi_only"

    # ------------------------------------------------------------------
    def communicate(self, group):
        cfg = self.cfg
        vs = cfg.group_slice(group)
        plans = self.plans_for_group(group)

        for dplan in plans:
            axis = dplan.axis

            # 1. Post receives for every remote neighbor in this direction.
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

            # 2. Pack faces into the send buffer and send.
            send_reqs = []
            for peer in sorted(dplan.sends):
                groups = message_groups(
                    dplan.sends[peer], cfg.send_faces, cfg.max_comm_tasks
                )
                for gi, mgroup in enumerate(groups):
                    payload = []
                    for t in mgroup:
                        yield self.charge(self.copy_cost(t.nbytes))
                        payload.append(self.make_face_payload(t, vs))
                    req = yield from self.comm.isend(
                        peer,
                        direction_tag(axis, gi),
                        nbytes=group_nbytes(mgroup),
                        payload=payload,
                    )
                    send_reqs.append(req)

            # 3. Intra-process exchanges while MPI transfers are in flight.
            for t in dplan.local:
                yield self.charge(self.copy_cost(t.nbytes))
                self.copy_local_face(t, vs)

            # 4. Drain receives with Waitany, unpacking as messages land.
            pending = list(recv_reqs)
            for _ in range(len(pending)):
                idx, req = yield from self.comm.waitany(pending)
                pending[idx] = None
                mgroup = recv_groups[idx]
                planes = req.data if req.data is not None else [None] * len(
                    mgroup
                )
                for t, plane in zip(mgroup, planes):
                    yield self.charge(self.copy_cost(t.nbytes))
                    self.apply_face_payload(t, plane, vs)

            # 5. Sends must finish before the buffers are reused.
            yield from self.comm.waitall(send_reqs)

    # ------------------------------------------------------------------
    def stencil(self, group):
        cfg = self.cfg
        vs = cfg.group_slice(group)
        nvars = cfg.group_size(group)
        cost = self.stencil_cost(nvars)
        for bid in sorted(self.blocks):
            yield self.charge(cost)
            self.apply_stencil(bid, vs)
            self.count_stencil_flops(nvars)

    # ------------------------------------------------------------------
    def checksum_local(self):
        cfg = self.cfg
        total = np.zeros(cfg.num_vars, dtype=np.float64)
        blocks = [self.blocks[b] for b in sorted(self.blocks)]
        for group in range(cfg.num_groups):
            vs = cfg.group_slice(group)
            yield self.charge(
                self.checksum_cost(cfg.group_size(group)) * max(len(blocks), 1)
            )
            total[vs] = local_checksum(blocks, vs)
        return total

    # ------------------------------------------------------------------
    def refine_data_ops(self, splits, consolidations):
        nbytes = self.cfg.block_bytes()
        for bid in splits:
            yield self.charge(self.copy_cost(nbytes))
            self.do_split(bid)
        for parent in consolidations:
            yield self.charge(self.copy_cost(nbytes))
            self.do_consolidate(parent)
