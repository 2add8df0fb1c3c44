"""Shared machinery of the three miniAMR parallelization variants.

:class:`SharedState` holds the per-simulation replicated metadata (mesh
structure, plan boards, FLOP counter); :class:`BaseRankProgram` implements
the variant-independent skeleton of Algorithm 1 — the main loop, refinement
coordination, the ACK-based block exchange, checksum validation — and
declares the hooks (communicate / stencil / checksum reduction / data ops)
each variant overrides.
"""

from __future__ import annotations

import numpy as np

from ..amr.balance import PARTITIONERS, plan_moves
from ..amr.block import (
    Block,
    consolidate_blocks,
    prolong_plane,
    restrict_plane,
    split_block,
)
from ..amr.checksum import validate
from ..amr.comm_plan import EXCHANGE_TAG_BASE, build_all_rank_plans
from ..amr.ids import HI, LO
from ..amr.mesh import MeshStructure, PlanBoard, apply_plan, plan_refinement
from ..amr.objects import MovingObject
from ..simx.events import DONE
from ..verify.witness import READ, WRITE

#: Tag offsets inside the exchange tag space.
_ACK_TAG = EXCHANGE_TAG_BASE
_DATA_TAG = EXCHANGE_TAG_BASE + (1 << 17)
_COARSEN_TAG = EXCHANGE_TAG_BASE + (2 << 17)


def moves_by_rank(moves, num_ranks):
    """Each rank's view of a global move list: the moves it sends or
    receives, in global order (the data-flow variant spawns its receive
    and send tasks interleaved in that order)."""
    views = {r: [] for r in range(num_ranks)}
    for move in moves:
        _bid, src, dst, _idx = move
        views[src].append(move)
        views[dst].append(move)
    return views


class SharedState:
    """Replicated simulation metadata shared by every rank program.

    The mesh *structure* is replicated (a documented substitution — see
    DESIGN.md); block *data* lives only in the per-rank programs and moves
    exclusively through simulated messages.
    """

    def __init__(self, config, machine, spec, world):
        self.config = config
        self.machine = machine
        self.spec = spec
        self.world = world
        self.structure = MeshStructure(config)
        self.board = PlanBoard(config.num_ranks)
        #: Total stencil FLOPs executed (all ranks).
        self.flops = 0.0
        #: Global checksums in validation order (shared by construction —
        #: every rank computes the same values).
        self.checksum_log = []

    def commplans(self, epoch, nvars):
        """Per-rank direction plans for the current mesh (computed once)."""
        return self.board.get(
            ("commplan", epoch, nvars),
            lambda: build_all_rank_plans(self.structure, self.config, nvars),
        )


class BaseRankProgram:
    """One rank's program: state + the variant-independent control flow."""

    #: Variant identifier (overridden).
    name = "base"

    def __init__(self, shared: SharedState, rank: int, comm, runtime):
        self.shared = shared
        self.cfg = shared.config
        self.rank = rank
        self.comm = comm
        self.rt = runtime
        self.env = comm.env
        self.cost = cost = shared.spec.cost
        self.numa = shared.machine.placement(rank).spans_numa
        self.profiler = runtime.profiler
        # Bound once: every inline charge and face copy reads them.  The
        # runtime has already layered any fault injector onto its noise,
        # so faults stretch inline charges too.
        self._stretch = runtime.noise.stretch
        bw = cost.copy_bandwidth
        if self.numa:
            bw /= cost.numa_penalty
        self._copy_bandwidth = bw

        self.blocks = {}
        for bid in shared.structure.blocks_of_rank(rank):
            self.blocks[bid] = Block.initial(bid, self.cfg)

        #: (vslice.start, vslice.stop) -> variable-group index, used by the
        #: access-witness instrumentation to name the touched handle.
        self._group_of_slice = {}
        for g in range(self.cfg.num_groups):
            s = self.cfg.group_slice(g)
            self._group_of_slice[(s.start, s.stop)] = g

        #: Per-rank copies of the moving objects (advanced identically on
        #: every rank, like miniAMR's replicated object state).
        self.objects = [MovingObject(spec) for spec in self.cfg.objects]
        self.prev_checksum = None
        self.epoch = 0
        self._plan_cache = {}
        #: Simulated seconds this rank spent inside refinement phases.
        self.refine_seconds = 0.0
        #: Ablation: join all local work after every stage (destroys the
        #: cross-stage overlap the data-flow model provides).
        self.stage_barrier = False

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------
    def charge(self, seconds):
        """What the calling thread yields to consume ``seconds`` of CPU
        time (with system noise): the stretched delay, or for no time
        :data:`~repro.simx.events.DONE`.  The busy interval is recorded
        up front, ending where the sleep will.
        """
        if seconds <= 0:
            return DONE
        delay = self._stretch(seconds)
        if self.profiler is not None:
            t0 = self.env.now
            self.profiler.inline_busy(self.rank, t0, t0 + delay)
        return delay

    def stencil_cost(self, nvars) -> float:
        return self.cost.stencil_time(
            self.cfg.cells_per_block,
            nvars,
            numa=self.numa,
            flops_per_cell=float(self.cfg.stencil),
        )

    def copy_cost(self, nbytes) -> float:
        # The division CostSpec.copy_time makes, with its bandwidth bound.
        return nbytes / self._copy_bandwidth

    def checksum_cost(self, nvars) -> float:
        nbytes = self.cfg.cells_per_block * nvars * 8
        return self.cost.checksum_time(nbytes, numa=self.numa)

    def count_stencil_flops(self, nvars):
        self.shared.flops += self.cost.stencil_flops(
            self.cfg.cells_per_block, nvars, float(self.cfg.stencil)
        )

    # ------------------------------------------------------------------
    # Dependency handles & access-witness instrumentation
    # ------------------------------------------------------------------
    def block_handle(self, bid, group):
        """The dependency handle of (mesh block, variable group).

        Defined here (not only in the data-flow variant) so the shared
        data ops below can report their actual accesses to the access
        witness using the same handles the task graph declares.
        """
        return ("blk", bid, group)

    def touch_block(self, kind, bid, vslice):
        """Report an actual (block, variable-group) access to the witness."""
        w = self.rt.witness
        if w is not None:
            group = self._group_of_slice[(vslice.start, vslice.stop)]
            w.touch(kind, self.block_handle(bid, group))

    def touch_block_all_groups(self, kind, bid):
        """Report an access spanning every variable group of a block."""
        w = self.rt.witness
        if w is not None:
            for g in range(self.cfg.num_groups):
                w.touch(kind, self.block_handle(bid, g))

    def touch(self, kind, handle):
        """Report an actual access to an arbitrary handle (e.g. a comm
        buffer section) to the witness."""
        w = self.rt.witness
        if w is not None:
            w.touch(kind, handle)

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def plans_for_group(self, group):
        """This rank's three DirectionPlans for a variable group.

        Cached per ``nvars`` for the current epoch, so each rank asks the
        board once per ``(epoch, nvars)`` — uneven variable groups
        alternate between two sizes.
        """
        nvars = self.cfg.group_size(group)
        plans = self._plan_cache.get(nvars)
        if plans is None:
            all_plans = self.shared.commplans(self.epoch, nvars)
            plans = self._plan_cache[nvars] = all_plans[self.rank]
        return plans

    # ------------------------------------------------------------------
    # Face payload helpers (real mode; synthetic returns None)
    # ------------------------------------------------------------------
    def make_face_payload(self, transfer, vslice):
        """Extract (and restrict if needed) the source face of a transfer."""
        if self.rt.witness is not None:
            self.touch_block(READ, transfer.src, vslice)
        src = self.blocks[transfer.src]
        if src.data is None:  # synthetic: no face to copy
            return None
        src_side = LO if transfer.side == HI else HI
        if transfer.rel == "same":
            return src.extract_face(transfer.axis, src_side, vslice)
        if transfer.rel == "finer":
            plane = src.extract_face(transfer.axis, src_side, vslice)
            return restrict_plane(plane)
        # src coarser: send the destination's quadrant of our face
        return src.extract_face_quadrant(
            transfer.axis, src_side, vslice, transfer.quadrant
        )

    def apply_face_payload(self, transfer, plane, vslice):
        """Write a received (or locally copied) face into the dst ghosts."""
        # Touched even when synthetic payloads skip the array write: the
        # algorithm's access pattern is the same, so the witness stays
        # useful in synthetic mode.
        if self.rt.witness is not None:
            self.touch_block(WRITE, transfer.dst, vslice)
        dst = self.blocks[transfer.dst]
        if dst.data is None or plane is None:
            return
        if transfer.rel == "same":
            dst.insert_ghost(transfer.axis, transfer.side, vslice, plane)
        elif transfer.rel == "finer":
            dst.insert_ghost_quadrant(
                transfer.axis, transfer.side, vslice, transfer.quadrant, plane
            )
        else:  # coarser source: prolong the quadrant to a full fine plane
            dst.insert_ghost(
                transfer.axis, transfer.side, vslice, prolong_plane(plane)
            )

    def copy_local_face(self, transfer, vslice):
        """Intra-rank ghost copy (both blocks owned by this rank)."""
        plane = self.make_face_payload(transfer, vslice)
        self.apply_face_payload(transfer, plane, vslice)

    # ------------------------------------------------------------------
    # Main loop (Algorithm 1 / Algorithm 4)
    # ------------------------------------------------------------------
    def run(self):
        """The rank's program (a simulation process generator)."""
        cfg = self.cfg
        self.rt.timestep = "init"
        yield from self.initial_refinement()
        stage_index = 0
        for ts in range(cfg.num_tsteps):
            self.rt.timestep = ts
            if self.profiler is not None:
                self.profiler.phase_begin(self.rank, "timestep", self.env.now)
            for _stage in range(cfg.stages_per_ts):
                for group in range(cfg.num_groups):
                    yield from self.communicate(group)
                    yield from self.stencil(group)
                stage_index += 1
                if self.stage_barrier:
                    yield from self.join_all()
                if cfg.checksum_freq and stage_index % cfg.checksum_freq == 0:
                    yield from self.checksum(stage_index)
            if self.profiler is not None:
                self.profiler.phase_end(self.rank, "timestep", self.env.now)
            last = ts + 1 == cfg.num_tsteps
            if cfg.refine_freq and (ts + 1) % cfg.refine_freq == 0 and not last:
                yield from self.refinement_phase(move_objects=True)
        yield from self.finalize()

    def initial_refinement(self):
        """Refine until the objects are resolved (before the main loop)."""
        for _ in range(self.cfg.max_refine_level):
            changed = yield from self.refinement_phase(move_objects=False)
            if not changed:
                break

    def finalize(self):
        """Drain outstanding work and synchronize before exiting."""
        yield from self.join_all()
        yield from self.comm.barrier()

    # ------------------------------------------------------------------
    # Refinement & load balancing (Section IV-B)
    # ------------------------------------------------------------------
    def refinement_phase(self, move_objects):
        """One refinement stage; returns True if the mesh changed."""
        cfg = self.cfg
        yield from self.join_all()  # explicit barrier before refinement
        t_enter = self.env.now
        if self.profiler is not None:
            self.profiler.phase_begin(self.rank, "refine", self.env.now)

        # Global synchronization: nobody may still be using the old
        # structure when the shared plan mutates it (miniAMR performs
        # collectives here too — the dense areas in Fig 1).
        yield from self.comm.allreduce(len(self.blocks))

        if move_objects:
            for obj in self.objects:
                obj.advance(cfg.refine_freq)

        self.epoch += 1
        nblocks_before = len(self.blocks)
        plan, moves_of, splits_of, consolidations_of = self.shared.board.get(
            ("refine", self.epoch), self._compute_refine_bundle
        )
        splits = splits_of[self.rank]
        consolidations = consolidations_of[self.rank]

        # Serial control work: marking, connectivity surgery.  This is the
        # poorly-parallelizable part every variant pays on its main thread;
        # MPI-only amortizes it over many more ranks (paper Section IV-B).
        my_changes = len(splits) + len(consolidations)
        control = (
            self.cost.refine_control_per_block * nblocks_before
            + self.cost.refine_change_overhead * my_changes
        )
        control *= self.refine_control_factor()
        yield self.charge(control)

        # Move coarsen children to their designated consolidator rank.
        yield from self.transfer_blocks(moves_of[self.rank], _COARSEN_TAG)

        # Split / consolidate payloads (variant-specific parallelism).
        yield from self.refine_data_ops(splits, consolidations)
        yield from self.join_all()

        # Load balancing over the post-refinement mesh.
        balance_moves, balance_views = self.shared.board.get(
            ("balance", self.epoch), self._compute_balance_moves
        )
        yield from self.exchange_blocks(balance_views[self.rank])

        self._plan_cache = {}
        self.refine_seconds += self.env.now - t_enter
        if self.profiler is not None:
            self.profiler.phase_end(self.rank, "refine", self.env.now)
        return not plan.is_empty or bool(balance_moves)

    def refine_control_factor(self) -> float:
        """Fraction of serial refinement control work this variant pays."""
        return 1.0

    def _compute_refine_bundle(self):
        """Plan and apply one refinement: ``(plan, moves, splits,
        consolidations)``, the last three mapping each rank to its
        coarsen-child moves (global order), sorted splits and sorted
        consolidations."""
        structure = self.shared.structure
        plan = plan_refinement(
            structure, self.objects, uniform=self.cfg.uniform_refine
        )
        split_owner, coarsen_owner = apply_plan(structure, plan)
        ranks = range(self.cfg.num_ranks)
        splits = {r: [] for r in ranks}
        for bid in sorted(split_owner):
            splits[split_owner[bid]].append(bid)
        # Children that must travel to their consolidator, with stable
        # indices for tagging: (bid, src, dst, index).
        moves = []
        consolidations = {r: [] for r in ranks}
        for parent in sorted(coarsen_owner):
            info = coarsen_owner[parent]
            dst = info["rank"]
            consolidations[dst].append(parent)
            for child, src in sorted(info["child_owners"].items()):
                if src != dst:
                    moves.append((child, src, dst, len(moves)))
        return (
            plan, moves_by_rank(moves, self.cfg.num_ranks), splits,
            consolidations,
        )

    def _compute_balance_moves(self):
        structure = self.shared.structure
        partitioner = PARTITIONERS[self.cfg.lb_method]
        target = partitioner(structure, self.cfg.num_ranks)
        moveplan = plan_moves(structure, target)
        moves = [
            (bid, src, dst, i)
            for i, (bid, (src, dst)) in enumerate(sorted(moveplan.moves.items()))
        ]
        # Apply the new ownership to the shared structure now; the data
        # follows through the exchange protocol below.
        for bid, _src, dst, _i in moves:
            structure.set_owner(bid, dst)
        return moves, moves_by_rank(moves, self.cfg.num_ranks)

    # ------------------------------------------------------------------
    # Block transfer (plain, used for coarsen-child moves)
    # ------------------------------------------------------------------
    def transfer_blocks(self, moves, tag_base):
        """Ship whole blocks between ranks (serial baseline implementation;
        the data-flow variant overrides this with tasks + TAMPI).

        ``moves`` holds only moves this rank sends or receives.
        """
        incoming = [
            (bid, src, idx) for bid, src, dst, idx in moves if dst == self.rank
        ]
        outgoing = [
            (bid, dst, idx) for bid, src, dst, idx in moves if src == self.rank
        ]
        nbytes = self.cfg.block_bytes()

        recv_reqs = []
        for bid, src, idx in incoming:
            req = yield from self.comm.irecv(src, tag_base + idx, nbytes)
            recv_reqs.append((bid, req))

        send_reqs = []
        for bid, dst, idx in outgoing:
            block = self.blocks[bid]
            yield self.charge(self.copy_cost(nbytes))  # pack
            payload = block.data if block.is_real else block.surrogate
            req = yield from self.comm.isend(
                dst, tag_base + idx, nbytes=nbytes, payload=payload
            )
            send_reqs.append((bid, req))

        for bid, req in recv_reqs:
            yield req.event
            yield self.charge(self.copy_cost(nbytes))  # unpack
            self.blocks[bid] = self._block_from_payload(bid, req.data)

        yield from self.comm.waitall([r for _b, r in send_reqs])
        for bid, _req in send_reqs:
            del self.blocks[bid]

    def _block_from_payload(self, bid, payload):
        if self.cfg.payload == "synthetic":
            return Block(bid, surrogate=np.asarray(payload, dtype=np.float64))
        return Block(bid, data=payload)

    # ------------------------------------------------------------------
    # Load-balance exchange (ACK protocol, Section IV-B)
    # ------------------------------------------------------------------
    def exchange_blocks(self, moves):
        """Multi-round ACK-gated block exchange of this rank's ``moves``.

        Receivers acknowledge each pending incoming block (positively while
        they have capacity); senders ship acknowledged blocks; a global
        reduction decides whether another round is needed (the paper:
        "the exchange function may return with blocks pending ... so a
        subsequent call is required").
        """
        cfg = self.cfg
        pending_in = [
            (bid, src, idx) for bid, src, dst, idx in moves if dst == self.rank
        ]
        pending_out = [
            (bid, dst, idx) for bid, src, dst, idx in moves if src == self.rank
        ]
        nbytes = cfg.block_bytes()
        rounds = 0

        while True:
            rounds += 1
            accepted_in, deferred_in = self._acceptance(pending_in)

            # Control messages: ACKs are plain (non-task) MPI, as in the
            # paper ("standard blocking MPI operations for control
            # messages, sequentially issued by the main thread").
            ack_sends = []
            for bid, src, idx in pending_in:
                ok = (bid, src, idx) in accepted_in
                req = yield from self.comm.isend(
                    src, _ACK_TAG + idx, nbytes=8, payload=ok
                )
                ack_sends.append(req)

            granted_out = []
            for bid, dst, idx in pending_out:
                req = yield from self.comm.recv(dst, _ACK_TAG + idx, nbytes=8)
                if req.data:
                    granted_out.append((bid, dst, idx))
            yield from self.comm.waitall(ack_sends)

            # Data movement (variant hook: tasks + TAMPI in the data-flow
            # port, serial pack/send here).
            yield from self.exchange_data(granted_out, accepted_in, _DATA_TAG)

            pending_out = [m for m in pending_out if m not in granted_out]
            pending_in = deferred_in
            remaining = yield from self.comm.allreduce(
                len(pending_out) + len(pending_in)
            )
            if remaining == 0:
                break
        return rounds

    def _acceptance(self, pending_in):
        """Split pending incoming moves into (accepted, deferred)."""
        cap = self.cfg.max_blocks_per_rank
        if cap <= 0:
            return list(pending_in), []
        room = max(cap - len(self.blocks), 0)
        accepted = list(pending_in[:room])
        deferred = list(pending_in[room:])
        return accepted, deferred

    def exchange_data(self, granted_out, accepted_in, tag_base):
        """Ship granted blocks (serial baseline; overridden by TAMPI+OSS)."""
        moves = [
            (bid, self.rank, dst, idx) for bid, dst, idx in granted_out
        ] + [(bid, src, self.rank, idx) for bid, src, idx in accepted_in]
        yield from self.transfer_blocks(moves, tag_base)

    # ------------------------------------------------------------------
    # Checksums (Section IV-C)
    # ------------------------------------------------------------------
    def checksum(self, stage_index):
        """Strict checksum: local reduce, join, global reduce, validate."""
        local = yield from self.checksum_local()
        yield from self.join_all()
        yield from self.validate_checksum(local)

    def validate_checksum(self, local_total):
        total = yield from self.comm.allreduce(
            local_total, nbytes=local_total.nbytes
        )
        drift = validate(
            self.prev_checksum, total, self.cfg.checksum_tolerance
        )
        self.prev_checksum = total
        if self.rank == 0:
            self.shared.checksum_log.append((self.env.now, total, drift))
        return total

    # ------------------------------------------------------------------
    # Variant hooks
    # ------------------------------------------------------------------
    def communicate(self, group):  # pragma: no cover - abstract
        raise NotImplementedError

    def stencil(self, group):  # pragma: no cover - abstract
        raise NotImplementedError

    def checksum_local(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def refine_data_ops(self, splits, consolidations):
        """Split this rank's ``splits`` and consolidate its
        ``consolidations`` (both sorted)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def join_all(self):
        """Wait for all outstanding local parallel work (no-op when the
        variant has none)."""
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # Shared payload ops used by the variants' data stages
    # ------------------------------------------------------------------
    def do_split(self, bid):
        """Split one owned block into its 8 children (payload op)."""
        self.touch_block_all_groups(READ, bid)
        block = self.blocks.pop(bid)
        self.blocks.update(split_block(block, self.cfg))
        for child in bid.children():
            self.touch_block_all_groups(WRITE, child)

    def do_consolidate(self, parent):
        """Consolidate 8 owned children into their parent (payload op)."""
        children = {}
        for cid in parent.children():
            self.touch_block_all_groups(READ, cid)
            children[cid] = self.blocks.pop(cid)
        self.touch_block_all_groups(WRITE, parent)
        self.blocks[parent] = consolidate_blocks(parent, children, self.cfg)

    def block_checksum(self, bid, vslice):
        """Checksum one block's variable group (a witnessed read)."""
        self.touch_block(READ, bid, vslice)
        return self.blocks[bid].checksum(vslice)

    def apply_stencil(self, bid, vslice):
        """Functional stencil on one block (real mode; no-op otherwise)."""
        self.touch_block(READ, bid, vslice)
        self.touch_block(WRITE, bid, vslice)
        block = self.blocks[bid]
        if block.is_real:
            block.fill_boundary_ghosts(
                vslice, self.shared.structure.open_faces(bid)
            )
            block.apply_stencil_kind(vslice, self.cfg.stencil)
