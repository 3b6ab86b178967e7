"""Rack/switch topology: correlated failure domains and locality costs.

Paper §3.3 weighs two group-mapping forces: "for better communication
performance, a group tends to select some neighbouring nodes.  But for high
reliability, a group should also spread its nodes as far as possible to
tolerate a single rack or switch failure" — and leaves exploring the
trade-off to future work.  This module supplies the substrate for that
exploration:

* a :class:`Topology` assigning nodes to racks,
* rack-granular failures (losing a switch loses every node behind it),
* an inter-rack bandwidth penalty for the network model, so rack-spread
  groups pay a measurable encode-time cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.sim.errors import SimError


@dataclass(frozen=True)
class Topology:
    """Nodes arranged in equal racks.

    ``nodes_per_rack`` nodes share a rack (and its switch); the rack of
    node ``i`` is ``i // nodes_per_rack``.  ``inter_rack_bw_factor`` scales
    effective bandwidth for traffic crossing racks (< 1 = slower).
    """

    nodes_per_rack: int
    inter_rack_bw_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.nodes_per_rack < 1:
            raise ValueError("nodes_per_rack must be >= 1")
        if not 0 < self.inter_rack_bw_factor <= 1.0:
            raise ValueError("inter_rack_bw_factor must be in (0, 1]")

    def rack_of(self, node_id: int) -> int:
        return node_id // self.nodes_per_rack

    def nodes_in_rack(self, rack: int, n_nodes: int) -> List[int]:
        lo = rack * self.nodes_per_rack
        return [i for i in range(lo, lo + self.nodes_per_rack) if i < n_nodes]

    def max_members_in_one_rack(
        self, group_world_ranks: Sequence[int], ranklist: Sequence[int]
    ) -> int:
        """The group's exposure to a single rack loss: how many stripes die
        together in the worst rack."""
        counts: Dict[int, int] = {}
        for r in group_world_ranks:
            rack = self.rack_of(ranklist[r])
            counts[rack] = counts.get(rack, 0) + 1
        return max(counts.values())

    def encode_bw_factor(
        self, group_world_ranks: Sequence[int], ranklist: Sequence[int]
    ) -> float:
        """Effective-bandwidth factor for this group's encode traffic:
        intra-rack groups run at full port speed, fully spread groups pay
        the inter-rack penalty, partial spreads interpolate by the fraction
        of member pairs that cross racks."""
        members = list(group_world_ranks)
        n = len(members)
        if n < 2:
            return 1.0
        cross = 0
        total = 0
        for i in range(n):
            for j in range(i + 1, n):
                total += 1
                if self.rack_of(ranklist[members[i]]) != self.rack_of(
                    ranklist[members[j]]
                ):
                    cross += 1
        frac_cross = cross / total
        return 1.0 - frac_cross * (1.0 - self.inter_rack_bw_factor)


def fail_rack(cluster, topology: Topology, rack: int) -> List[int]:
    """Power off every active node in ``rack`` (switch loss).

    Returns the failed node ids.  Spares in the rack die too — they are
    behind the same switch.
    """
    n_nodes = max(n.node_id for n in cluster.all_nodes()) + 1
    victims = [
        nid
        for nid in topology.nodes_in_rack(rack, n_nodes)
        if cluster.node(nid).alive
    ]
    if not victims:
        raise SimError(f"rack {rack} has no live nodes")
    for nid in victims:
        cluster.fail_node(nid)
    return victims
