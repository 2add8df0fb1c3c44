"""Compute-side cost model.

Charges simulated CPU time for the work the mini-app performs: stencil
sweeps, face pack/unpack copies, intra-process ghost copies, checksum
reductions, block split/consolidate copies, refinement control work, and
runtime overheads (task spawn/dispatch, fork-join regions).

The absolute numbers are calibrated to a MareNostrum4-like node; what the
reproduction relies on are the *ratios* (compute vs copy vs message costs,
NUMA and locality factors), which set the shape of every experiment.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

#: Bytes per grid variable (double precision).
VAR_BYTES = 8

#: Floating-point operations per cell per variable for the 7-point stencil
#: (six additions plus one multiply-by-1/7).
STENCIL_FLOPS_PER_CELL = 7.0


@dataclass(frozen=True)
class CostSpec:
    """Tunable parameters of the compute cost model."""

    #: Effective stencil throughput of one core in FLOP/s (memory bound,
    #: far below peak; Xeon 8160 cores sustain a few GFLOP/s on stencils).
    stencil_flops_per_sec: float = 2.0e9
    #: Effective single-core copy bandwidth for pack/unpack/ghost copies.
    copy_bandwidth: float = 1.0e10
    #: Effective single-core reduction bandwidth for checksums.
    reduce_bandwidth: float = 7.0e9
    #: Multiplicative IPC boost when a task runs right after a task that
    #: touched the same block on the same core (immediate-successor reuse;
    #: the paper credits this for a significant IPC increase).
    locality_ipc_boost: float = 1.60
    #: Compute slowdown when a rank's threads span NUMA domains.
    numa_penalty: float = 1.45
    #: Runtime cost, charged to the creating thread, of instantiating one
    #: task (dependency registration).
    task_spawn_overhead: float = 3.0e-7
    #: Runtime cost, charged to the executing core, of dispatching a task.
    task_dispatch_overhead: float = 6.0e-7
    #: Cost of opening/closing one fork-join parallel region (per thread
    #: barrier round); multiplied by log2(nthreads).
    forkjoin_region_overhead: float = 2.2e-6
    #: Serial control work per block during a refinement stage (marking,
    #: connectivity updates) — the poorly-parallelizable part.
    refine_control_per_block: float = 2.8e-6
    #: Control work per refine/coarsen structural change (octree surgery).
    refine_change_overhead: float = 9.0e-6
    #: Fraction of refinement control work that the taskified version
    #: removes from the critical path (the paper reports ~80%).
    taskified_refine_factor: float = 0.2
    #: System-noise amplitude: each CPU charge is stretched by up to this
    #: fraction (uniform, deterministic per rank).  Bulk-synchronous codes
    #: amplify noise with scale; task pools absorb it (the paper observes
    #: noise-induced gaps in its own traces, Section V-B).
    noise_amplitude: float = 0.05
    #: Expected OS-noise spikes (daemon preemptions) per CPU-second of
    #: work — rate-normalized so every variant receives the same expected
    #: noise per unit of work regardless of task granularity.
    noise_spike_rate: float = 25.0
    #: Duration of one noise spike.
    noise_spike_time: float = 1.5e-4

    # ------------------------------------------------------------------
    # Stencil
    # ------------------------------------------------------------------
    def stencil_flops(
        self, cells: int, nvars: int, flops_per_cell=STENCIL_FLOPS_PER_CELL
    ) -> float:
        """Total FLOPs of one stencil application on ``cells`` × ``nvars``.

        ``flops_per_cell`` follows the stencil width: 7 for the 7-point
        average, 27 for the 27-point one.
        """
        return cells * nvars * flops_per_cell

    def stencil_time(
        self, cells: int, nvars: int, *, locality: bool = False,
        numa: bool = False, flops_per_cell=STENCIL_FLOPS_PER_CELL,
    ) -> float:
        """Time of one stencil task over a block's interior."""
        rate = self.stencil_flops_per_sec
        if locality:
            rate *= self.locality_ipc_boost
        if numa:
            rate /= self.numa_penalty
        return self.stencil_flops(cells, nvars, flops_per_cell) / rate

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def copy_time(self, nbytes: int, *, numa: bool = False) -> float:
        """Time to copy ``nbytes`` (pack/unpack/ghost/split/consolidate)."""
        bw = self.copy_bandwidth
        if numa:
            bw /= self.numa_penalty
        return nbytes / bw

    def checksum_time(self, nbytes: int, *, numa: bool = False) -> float:
        """Time of a local checksum reduction over ``nbytes``."""
        bw = self.reduce_bandwidth
        if numa:
            bw /= self.numa_penalty
        return nbytes / bw

    # ------------------------------------------------------------------
    # Runtime overheads
    # ------------------------------------------------------------------
    def forkjoin_overhead(self, nthreads: int) -> float:
        """Cost of one parallel region open+close with ``nthreads``."""
        if nthreads <= 1:
            return 0.0
        return self.forkjoin_region_overhead * math.ceil(math.log2(nthreads))

    # ------------------------------------------------------------------
    def with_overrides(self, **kwargs) -> "CostSpec":
        """Return a copy with selected parameters replaced (ablations)."""
        return replace(self, **kwargs)


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

#: Draws an LCG stream computes at a time.
LCG_BATCH = 256

#: ``(A, C)``: ``A[k] * s + C[k]`` (mod 2**64) is the state ``k + 1`` steps
#: after ``s``.  Built by the process's first draw, not at import.
_jump_tables = None


def _lcg_batches(state):
    global _jump_tables
    if _jump_tables is None:
        a, c, steps = 1, 0, []
        for _ in range(LCG_BATCH):
            a = a * _LCG_MULT & _LCG_MASK
            c = (c * _LCG_MULT + _LCG_INC) & _LCG_MASK
            steps.append((a, c))
        _jump_tables = tuple(np.array(steps, dtype=np.uint64).T.copy())
    mults, incs = _jump_tables
    while True:  # uint64 arithmetic wraps mod 2**64, as the masks do
        states = mults * np.uint64(state) + incs
        state = int(states[-1])
        batch = array("d", (states / 2.0**64).tobytes())
        del states  # suspended, a stream keeps only the 2 KB batch
        yield batch


def lcg_uniforms(state: int):
    """A C-level callable drawing the next uniform in [0, 1) of the LCG
    ``s <- (s * M + C) mod 2**64`` started at ``state``: bitwise the
    ``s / 2.0**64`` of the scalar recurrence, computed in batches."""
    return chain.from_iterable(_lcg_batches(state)).__next__


class NoiseModel:
    """Deterministic per-rank system-noise generator.

    Stretches CPU charges by a bounded uniform factor and injects rare
    OS-noise spikes, drawing from a per-rank LCG stream
    (:func:`lcg_uniforms`) so runs are exactly repeatable.
    The spike probability is proportional to the charged time, making the
    expected noise per CPU-second identical across variants — what differs
    is how each programming model *amplifies* it.
    """

    __slots__ = ("spec", "_draw", "_amp", "_spike_rate", "_spike_time")

    def __init__(self, spec: CostSpec, rank: int):
        self.spec = spec
        self._draw = lcg_uniforms(
            (rank * 2654435761 + 0x9E3779B97F4A7C15) & _LCG_MASK
        )
        # Scalars copied out of the (frozen) spec: stretch() runs once per
        # CPU charge, i.e. at least once per task.
        self._amp = spec.noise_amplitude
        self._spike_rate = spec.noise_spike_rate
        self._spike_time = spec.noise_spike_time

    def stretch(self, seconds: float) -> float:
        """Return ``seconds`` with this rank's next noise sample applied."""
        if seconds <= 0:
            return seconds
        extra = 0.0
        if self._amp > 0:
            extra += seconds * self._amp * self._draw()
        if self._spike_rate > 0:
            p = seconds * self._spike_rate
            if p > 1.0:
                p = 1.0
            if self._draw() < p:
                extra += self._spike_time
        return seconds + extra
