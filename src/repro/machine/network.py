"""Interconnect performance model.

A simple but expressive LogGP-flavoured model:

* point-to-point transit time  =  latency + size / bandwidth, with distinct
  (latency, bandwidth) pairs for intra-node (shared memory) and inter-node
  (fabric) paths;
* per-message *CPU* overheads on the sender and receiver sides (posting,
  matching, completion) — these are what make "one message per face"
  configurations expensive (paper Table II, column *all*);
* collectives cost a tree-depth multiple of the point-to-point cost and act
  as a synchronization across all participants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkSpec:
    """Parameters of the interconnect model (times in seconds, bytes/s)."""

    #: One-way latency between different nodes (fabric).
    latency_inter: float = 1.6e-6
    #: One-way latency inside a node (shared-memory transport).
    latency_intra: float = 4.0e-7
    #: Fabric bandwidth per message stream (bytes/s).
    bandwidth_inter: float = 11.0e9
    #: Shared-memory copy bandwidth for intra-node messages (bytes/s).
    bandwidth_intra: float = 35.0e9
    #: Sender-side CPU time to post one message.
    send_overhead: float = 6.0e-7
    #: Receiver-side CPU time to match/complete one message.
    recv_overhead: float = 6.0e-7
    #: Extra per-byte CPU cost at each side (pinning, copies).
    byte_overhead: float = 1.0e-11
    #: Base latency of a collective "round" (per tree level).
    collective_round: float = 2.5e-6
    #: Extra one-way inter-node latency per log2(nodes) level — models
    #: fat-tree hop count and congestion growing with machine size.
    hop_latency: float = 8.0e-7
    #: Fixed per-message injection gap at the sender (message-rate limit).
    injection_gap: float = 2.5e-7
    #: Cost per posted/unexpected queue entry scanned during MPI matching —
    #: long match queues are the classic penalty of one-message-per-face
    #: communication patterns.
    match_scan_cost: float = 6.0e-8

    def injection_time(self, nbytes: int, same_node: bool) -> float:
        """Time a message occupies the sender's injection port."""
        bw = self.bandwidth_intra if same_node else self.bandwidth_inter
        return self.injection_gap + nbytes / bw

    def __post_init__(self):
        for name in (
            "latency_inter",
            "latency_intra",
            "bandwidth_inter",
            "bandwidth_intra",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # ------------------------------------------------------------------
    def scaled_to(self, num_nodes: int) -> "NetworkSpec":
        """Network as seen by a ``num_nodes`` job (hop/congestion term).

        Effective inter-node latency grows by :attr:`hop_latency` per
        fat-tree level; intra-node paths are unaffected.
        """
        import dataclasses

        if num_nodes <= 1:
            return self
        extra = self.hop_latency * math.log2(num_nodes)
        return dataclasses.replace(
            self, latency_inter=self.latency_inter + extra
        )

    def transit_time(self, nbytes: int, same_node: bool) -> float:
        """Wire time for a message of ``nbytes`` (excludes CPU overheads)."""
        if nbytes < 0:
            raise ValueError("message size must be >= 0")
        if same_node:
            return self.latency_intra + nbytes / self.bandwidth_intra
        return self.latency_inter + nbytes / self.bandwidth_inter

    def send_cpu_time(self, nbytes: int) -> float:
        """CPU time charged to the sender for posting a message."""
        return float(self.send_overhead + nbytes * self.byte_overhead)

    def recv_cpu_time(self, nbytes: int) -> float:
        """CPU time charged to the receiver for matching a message."""
        return float(self.recv_overhead + nbytes * self.byte_overhead)

    def collective_time(self, nbytes: int, nranks: int) -> float:
        """Time of a tree-based collective over ``nranks`` participants.

        Models allreduce/bcast/barrier-style collectives as
        ``ceil(log2(P))`` rounds of (round latency + payload transfer).
        """
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        if nranks == 1:
            return self.collective_round
        rounds = math.ceil(math.log2(nranks))
        per_round = self.collective_round + nbytes / self.bandwidth_inter
        return rounds * per_round
