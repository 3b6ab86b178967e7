"""Alpha-beta communication cost model with NIC port sharing.

The simulator charges virtual time for every message and collective using
the classic latency/bandwidth ("alpha-beta") model: a message of ``m`` bytes
costs ``alpha + m / beta``.  Collectives are charged as their standard
binomial-tree / ring costs.

Port sharing is the one machine idiosyncrasy the paper's evaluation leans
on: on Tianhe-2 one network port is shared by 24 processes while Tianhe-1A
shares one port among 12, so per-process effective bandwidth on Tianhe-2 is
*lower* even though the link itself is faster — which is why encoding time
in Fig. 13 is *longer* on Tianhe-2 despite smaller checkpoints.  We model it
by dividing link bandwidth by the number of processes concurrently driving
the port (``procs_per_port``) for operations where all ranks communicate at
once (group encoding, the buddy mirror exchange).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkParams:
    """Static network characteristics of a machine.

    Attributes
    ----------
    latency_s:
        One-way small-message latency (the "alpha" term), seconds.
    bandwidth_Bps:
        Point-to-point link bandwidth, bytes/second (the paper's Table 2
        "P2P Bandwidth" row).
    procs_per_port:
        How many processes share one NIC port.  1 means a dedicated port.
    """

    latency_s: float = 2.0e-6
    bandwidth_Bps: float = 7.1e9
    procs_per_port: int = 1
    #: Fractional bandwidth-term overhead added per tree round during the
    #: stripe encode: synchronization and scheduling slack of the N
    #: concurrent reduces.  Calibrated so that encode time grows slowly with
    #: group size as in the paper's Fig. 13 (~1.2-1.4x from group 4 to 16).
    stripe_round_overhead: float = 0.15

    def __post_init__(self) -> None:
        # NaN passes a plain `< 0` check, and message and collective clocks
        # are set from these terms directly, never through a finite check
        if not 0 <= self.latency_s < math.inf:
            raise ValueError("latency must be finite and >= 0")
        if not 0 < self.bandwidth_Bps < math.inf:
            raise ValueError("bandwidth must be finite and > 0")
        if type(self.procs_per_port) is not int or self.procs_per_port < 1:  # bool excluded
            raise ValueError("procs_per_port must be an integer >= 1")
        if not 0 <= self.stripe_round_overhead < math.inf:
            raise ValueError("stripe_round_overhead must be finite and >= 0")

    @property
    def per_process_bandwidth_Bps(self) -> float:
        """Effective bandwidth when every process on a node drives the port."""
        return self.bandwidth_Bps / self.procs_per_port


class NetworkModel:
    """Computes virtual-time costs for the runtime's communication ops."""

    def __init__(self, params: NetworkParams):
        self.params = params

    # -- point to point ----------------------------------------------------
    def p2p_time(self, nbytes: int, *, contended: bool = False) -> float:
        """Cost of one point-to-point message of ``nbytes``."""
        bw = (
            self.params.per_process_bandwidth_Bps
            if contended
            else self.params.bandwidth_Bps
        )
        return self.params.latency_s + nbytes / bw

    # -- collectives --------------------------------------------------------
    def _rounds(self, nprocs: int) -> int:
        return max(1, math.ceil(math.log2(max(2, nprocs)))) if nprocs > 1 else 0

    def bcast_time(self, nbytes: int, nprocs: int) -> float:
        """Binomial-tree broadcast."""
        r = self._rounds(nprocs)
        return r * self.p2p_time(nbytes)

    def reduce_time(self, nbytes: int, nprocs: int) -> float:
        """Binomial-tree reduce of an ``nbytes`` buffer."""
        r = self._rounds(nprocs)
        return r * self.p2p_time(nbytes)

    def allreduce_time(self, nbytes: int, nprocs: int) -> float:
        """Reduce + broadcast (the simple, pessimistic composition)."""
        return self.reduce_time(nbytes, nprocs) + self.bcast_time(nbytes, nprocs)

    def gather_time(self, nbytes_per_rank: int, nprocs: int) -> float:
        """Root receives (p-1) messages serially through its port."""
        if nprocs <= 1:
            return 0.0
        return (nprocs - 1) * self.p2p_time(nbytes_per_rank)

    def allgather_time(self, nbytes_per_rank: int, nprocs: int) -> float:
        """Ring allgather: (p-1) rounds of per-rank-size messages."""
        if nprocs <= 1:
            return 0.0
        return (nprocs - 1) * self.p2p_time(nbytes_per_rank)

    def barrier_time(self, nprocs: int) -> float:
        return 2 * self._rounds(nprocs) * self.params.latency_s

    # -- group encoding (paper section 2.1 / figure 13) ---------------------
    def stripe_encode_time(self, data_bytes: int, group_size: int) -> float:
        """Cost of the stripe-based rotating-root group encode.

        With the RAID-5 slot rotation every rank sends its whole
        ``data_bytes`` exactly once across the ``N`` concurrent binomial
        trees, so the dominant term is ``data_bytes`` over the (possibly
        port-shared) per-process bandwidth.  Deeper trees add latency plus a
        small per-round scheduling overhead (``stripe_round_overhead``).
        This reproduces Fig. 13's shape: encode time grows slowly with group
        size, is dominated by data volume, and worsens under heavier port
        sharing (Tianhe-2 vs Tianhe-1A).
        """
        n = group_size
        if n < 2:
            return 0.0
        rounds = self._rounds(n)
        bw = self.params.per_process_bandwidth_Bps
        volume_term = (data_bytes / bw) * (
            1.0 + self.params.stripe_round_overhead * rounds
        )
        return rounds * self.params.latency_s + volume_term

    def single_root_encode_time(self, data_bytes: int, group_size: int) -> float:
        """Cost of the naive alternative: one reduce of the *whole* buffer
        rooted at a single rank per checkpoint (no stripe rotation).

        The root's port must sink the full reduced buffer at every tree
        level, so the data term scales with tree depth — this is the
        single-node contention the stripe layout avoids.
        """
        n = group_size
        if n < 2:
            return 0.0
        rounds = self._rounds(n)
        return rounds * (
            self.params.latency_s + data_bytes / self.params.per_process_bandwidth_Bps
        )
