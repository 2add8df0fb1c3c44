"""The runtime side of fault injection: seeded streams and hook points.

One :class:`FaultInjector` is instantiated per run from the spec's
:class:`~repro.faults.plan.FaultPlan` and threaded through the stack by
:func:`repro.core.driver.execute`:

* the tasking runtime wraps its per-rank noise model in a
  :class:`FaultyNoise`, so **every** CPU charge — task bodies, dispatch
  overheads, and inline main-thread work — funnels through
  :meth:`FaultInjector.cpu_stretch`;
* the simulated MPI world calls :meth:`FaultInjector.message_delay` when
  posting each point-to-point message, so degradation windows, jitter,
  and loss-retry delays land directly in the :mod:`repro.simx` event
  timing that drives request completion — and therefore every blocking
  wait *and* every TAMPI release path downstream.

Determinism: every stochastic decision draws from an LCG stream
(:func:`~repro.machine.costmodel.lcg_uniforms`) keyed by
``(plan.seed, fault kind, rank)`` via a splitmix64 mix.  Streams are
per-kind so enabling message loss never shifts the jitter draws, and
per-rank so rank-local event orderings cannot leak across ranks.  The
simulation itself is deterministic, hence so is the sequence of hook
calls — the whole faulted run is bit-reproducible for a given
``(spec, seed)`` and the test suite enforces it.

The injector also keeps :class:`FaultStats` — the *injected* delay
ledger that :mod:`repro.obs` reconciles against the *observed* idle-gap
attribution (blocker classes ``fault_noise`` / ``fault_retry``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..machine.costmodel import lcg_uniforms

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 scramble step (seeds the per-stream LCG states)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class FaultRng:
    """A seeded LCG stream; ``uniform()`` draws the next sample in [0, 1)."""

    __slots__ = ("uniform",)

    def __init__(self, seed: int, kind: str, rank: int):
        tag = sum(ord(c) << (8 * i) for i, c in enumerate(kind[:8]))
        state = _splitmix64(seed & _MASK64)
        state = _splitmix64(state ^ tag)
        self.uniform = lcg_uniforms(_splitmix64(state ^ (rank & _MASK64)))


@dataclass
class FaultStats:
    """The injected-delay ledger of one faulted run (JSON-safe).

    The float totals accumulate *per rank* and fold with ``math.fsum``,
    which is correctly rounded regardless of summation order.  That
    makes the ledger partition-invariant: a run split across PDES
    workers (:mod:`repro.simx.parallel`) accumulates each rank's stream
    on the worker that owns it, merges the per-rank dicts, and reports
    bit-identical totals to the serial run.  Event counters are plain
    ints (order-free) and sum on :meth:`merge`.
    """

    #: CPU charges that received any injected extra time.
    cpu_noise_events: int = 0
    #: Injected OS-noise bursts.
    cpu_bursts: int = 0
    #: Messages that received any injected delay.
    messages_delayed: int = 0
    #: Messages that crossed a degradation window.
    messages_degraded: int = 0
    #: Transient losses (= retransmissions) across all messages.
    messages_lost: int = 0
    #: Injected CPU seconds keyed by the stretched rank.
    cpu_seconds_by_rank: dict = field(default_factory=dict)
    #: Injected in-flight seconds keyed by the *sending* rank.
    network_seconds_by_rank: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def injected_cpu_seconds(self) -> float:
        """Extra CPU seconds injected (noise + bursts + stragglers)."""
        return math.fsum(self.cpu_seconds_by_rank.values())

    @property
    def injected_network_seconds(self) -> float:
        """Extra in-flight seconds injected into messages (degradation
        + jitter + loss-retry delays)."""
        return math.fsum(self.network_seconds_by_rank.values())

    def add_cpu(self, rank: int, extra: float):
        d = self.cpu_seconds_by_rank
        d[rank] = d.get(rank, 0.0) + extra

    def add_network(self, rank: int, extra: float):
        d = self.network_seconds_by_rank
        d[rank] = d.get(rank, 0.0) + extra

    def merge(self, other: "FaultStats"):
        """Fold another worker's ledger in (per-rank streams live on one
        worker each, so the dicts are disjoint — but plain addition keeps
        this correct even if they were not)."""
        self.cpu_noise_events += other.cpu_noise_events
        self.cpu_bursts += other.cpu_bursts
        self.messages_delayed += other.messages_delayed
        self.messages_degraded += other.messages_degraded
        self.messages_lost += other.messages_lost
        for rank, v in other.cpu_seconds_by_rank.items():
            self.add_cpu(rank, v)
        for rank, v in other.network_seconds_by_rank.items():
            self.add_network(rank, v)

    def to_dict(self) -> dict:
        return {
            "injected_cpu_seconds": self.injected_cpu_seconds,
            "cpu_noise_events": self.cpu_noise_events,
            "cpu_bursts": self.cpu_bursts,
            "injected_network_seconds": self.injected_network_seconds,
            "messages_delayed": self.messages_delayed,
            "messages_degraded": self.messages_degraded,
            "messages_lost": self.messages_lost,
        }


class FaultInjector:
    """Executes one :class:`FaultPlan` against one simulated run."""

    def __init__(self, plan, network, num_ranks, profiler=None):
        self.plan = plan
        #: The run's (scaled) :class:`~repro.machine.NetworkSpec` —
        #: degradation extras are computed against its base latencies
        #: and bandwidths.
        self.network = network
        self.num_ranks = num_ranks
        #: Optional :class:`repro.obs.Profiler`; when present the
        #: injector records per-rank injected-delay intervals that the
        #: idle-gap attribution uses as ``fault_noise`` / ``fault_retry``
        #: evidence.
        self.profiler = profiler
        self.stats = FaultStats()
        self._stragglers = frozenset(plan.straggler_ranks)
        seed = plan.seed
        self._noise_rngs = [
            FaultRng(seed, "cpunoise", r) for r in range(num_ranks)
        ]
        self._burst_rngs = [
            FaultRng(seed, "cpuburst", r) for r in range(num_ranks)
        ]
        self._jitter_rngs = [
            FaultRng(seed, "jitter", r) for r in range(num_ranks)
        ]
        self._loss_rngs = [
            FaultRng(seed, "loss", r) for r in range(num_ranks)
        ]

    # ------------------------------------------------------------------
    # CPU side (called through FaultyNoise on every charge)
    # ------------------------------------------------------------------
    def cpu_stretch(self, rank: int, seconds: float, now: float) -> float:
        """Return ``seconds`` with this rank's injected CPU faults applied.

        ``seconds`` is the baseline-noise-stretched charge beginning at
        simulated time ``now``; the injected extra is appended to the
        charge's tail, which is exactly where it sits on the timeline —
        the recorded ``fault_noise`` evidence interval is
        ``[now + seconds, now + seconds + extra]``.
        """
        if seconds <= 0:
            return seconds
        plan = self.plan
        extra = 0.0
        if rank in self._stragglers and plan.straggler_factor > 1.0:
            extra += seconds * (plan.straggler_factor - 1.0)
        if plan.cpu_noise_factor > 0:
            extra += (
                seconds
                * plan.cpu_noise_factor
                * self._noise_rngs[rank].uniform()
            )
        if plan.cpu_burst_rate > 0 and plan.cpu_burst_time > 0:
            p = min(seconds * plan.cpu_burst_rate, 1.0)
            if self._burst_rngs[rank].uniform() < p:
                extra += plan.cpu_burst_time
                self.stats.cpu_bursts += 1
        if extra <= 0:
            return seconds
        self.stats.add_cpu(rank, extra)
        self.stats.cpu_noise_events += 1
        if self.profiler is not None:
            self.profiler.fault_cpu(
                rank, now + seconds, now + seconds + extra
            )
        return seconds + extra

    # ------------------------------------------------------------------
    # Network side (called from World._post_send per message)
    # ------------------------------------------------------------------
    def _degradation_extra(self, nbytes, same_node, now) -> float:
        plan = self.plan
        if not plan.degrade_windows:
            return 0.0
        for t0, t1 in plan.degrade_windows:
            if t0 <= now < t1:
                break
        else:
            return 0.0
        net = self.network
        latency = net.latency_intra if same_node else net.latency_inter
        bw = net.bandwidth_intra if same_node else net.bandwidth_inter
        extra = latency * (plan.degrade_latency_factor - 1.0)
        extra += nbytes * (plan.degrade_bandwidth_factor - 1.0) / bw
        if extra > 0:
            self.stats.messages_degraded += 1
        return extra

    def message_delay(self, src, dst, nbytes, same_node, now) -> float:
        """Extra in-flight seconds for one message posted at ``now``.

        Combines (in order) degradation-window slowdown, per-message
        jitter, and transient-loss retransmission delays.  Streams are
        keyed by the *sending* world rank.  ``dst`` participates in no
        draw — it is accepted so the accounting hooks can attribute the
        delay to both endpoints.
        """
        plan = self.plan
        extra = self._degradation_extra(nbytes, same_node, now)
        if plan.message_jitter > 0:
            extra += plan.message_jitter * self._jitter_rngs[src].uniform()
        if plan.message_loss_rate > 0:
            timeout = plan.retry_timeout
            rng = self._loss_rngs[src]
            lost = 0
            while (
                lost < plan.max_retries
                and rng.uniform() < plan.message_loss_rate
            ):
                extra += timeout
                timeout *= plan.retry_backoff
                lost += 1
            if lost:
                self.stats.messages_lost += lost
        if extra > 0:
            self.stats.add_network(src, extra)
            self.stats.messages_delayed += 1
        return extra


class FaultyNoise:
    """A rank noise model with the fault injector layered on top.

    Drop-in replacement for :class:`~repro.machine.costmodel.NoiseModel`
    inside :class:`~repro.tasking.runtime.RankRuntime` — same
    ``stretch(seconds)`` contract, so task execution and the inline
    ``charge()`` path of :class:`~repro.core.app.BaseRankProgram` are
    both covered without either knowing faults exist.
    """

    __slots__ = ("base", "injector", "rank", "env")

    def __init__(self, base, injector, rank, env):
        self.base = base
        self.injector = injector
        self.rank = rank
        self.env = env

    @property
    def spec(self):
        """The underlying cost spec (NoiseModel interface parity)."""
        return self.base.spec

    def stretch(self, seconds: float) -> float:
        return self.injector.cpu_stretch(
            self.rank, self.base.stretch(seconds), self.env.now
        )
