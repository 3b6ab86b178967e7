"""Machine descriptions: paper Table 2 plus the local test cluster.

Peak figures and memory are Table 2 verbatim; the port-sharing ratios come
from section 6.6 ("a network port of Tianhe-2 is shared by 24 processes,
while in Tianhe-1A one port is only shared by 12").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.netmodel import NetworkParams
from repro.sim.node import NodeSpec
from repro.util import GiB


@dataclass(frozen=True)
class MachineSpec:
    """A named machine with its node spec and scale used in the paper."""

    name: str
    node: NodeSpec
    paper_ranks: int  # process count used in the paper's runs
    #: paper-measured full-memory HPL efficiency (section 6.4), used to
    #: calibrate the efficiency model at paper scale
    full_memory_efficiency: float

    @property
    def peak_flops(self) -> float:
        """Peak of one node."""
        return self.node.flops

    def nodes_for_ranks(self, n_ranks: int) -> int:
        return -(-n_ranks // self.node.cores)


TIANHE_1A = MachineSpec(
    name="Tianhe-1A",
    node=NodeSpec(
        cores=12,
        flops=140e9,
        mem_bytes=48 * GiB,
        net=NetworkParams(
            latency_s=2.0e-6, bandwidth_Bps=6.9e9, procs_per_port=12
        ),
    ),
    paper_ranks=1536,
    full_memory_efficiency=0.8638,  # 15.55 TF of 18.0 TF peak (section 6.4)
)

TIANHE_2 = MachineSpec(
    name="Tianhe-2",
    node=NodeSpec(
        cores=24,
        flops=422.4e9,
        mem_bytes=64 * GiB,
        net=NetworkParams(
            latency_s=2.0e-6, bandwidth_Bps=7.1e9, procs_per_port=24
        ),
    ),
    paper_ranks=24576,
    full_memory_efficiency=0.8494,  # 367.04 TF (section 6.4)
)

#: The paper's local cluster (section 6.1): 2-way Xeon E5-2670 v3 (24
#: cores), 64 GB, EDR InfiniBand.  Peak ~0.88 TF/node (2.3 GHz x 16 DP
#: flops/cycle x 24 cores).
LOCAL_CLUSTER = MachineSpec(
    name="local-cluster",
    node=NodeSpec(
        cores=24,
        flops=883.2e9,
        mem_bytes=64 * GiB,
        net=NetworkParams(
            latency_s=1.0e-6, bandwidth_Bps=12.0e9, procs_per_port=24
        ),
    ),
    paper_ranks=128,
    full_memory_efficiency=0.79,  # implied by Table 3's original-HPL row
)

#: Dimensionally scaled testbed for *live* simulator sweeps (Figs. 7/12).
#: The paper's efficiency law E(N) = N/(aN+b) holds when the O(N^2)
#: bandwidth term dominates communication overhead.  Our live runs use N a
#: thousand times smaller than the paper's, so keeping real NIC parameters
#: would put them in the latency-dominated regime instead; scaling
#: bandwidth down by the same factor as N (and zeroing latency) preserves
#: the comm/compute *ratio* and with it the model's regime.  Used only for
#: live model-validation sweeps — the Table-2 machines above price
#: everything else.
SCALED_TESTBED = MachineSpec(
    name="scaled-testbed",
    node=NodeSpec(
        cores=24,
        flops=120e9,  # 5 GF/core: slows compute so the O(N^2) bandwidth
        # term is a visible-but-not-dominant overhead at laptop N, exactly
        # the regime the paper's machines sit in at N ~ 10^5
        mem_bytes=64 * GiB,
        net=NetworkParams(
            latency_s=1e-9, bandwidth_Bps=12.0e9, procs_per_port=1
        ),
    ),
    paper_ranks=128,
    full_memory_efficiency=0.79,
)

ALL_MACHINES = {
    m.name: m for m in (TIANHE_1A, TIANHE_2, LOCAL_CLUSTER, SCALED_TESTBED)
}
