"""Group partitioning strategies and reliability analysis (paper §3.3).

All processes are partitioned into encoding groups of size ``N``.  The paper
weighs three forces: a larger group leaves more memory for the application
(Fig. 6) but encodes slower and is more likely to suffer a second failure;
and, to tolerate a permanent *node* loss, the processes of one group must
sit on **distinct physical nodes**.

Strategies
----------
``"stride"``
    Group ``g`` takes ranks ``{g, g+G, g+2G, ...}`` where ``G`` is the group
    count.  With block rank-to-node placement (consecutive ranks share a
    node) this naturally spreads a group across nodes — the layout the paper
    uses, favouring neighbouring nodes for performance.
``"block"``
    Group ``g`` takes consecutive ranks ``{gN, ..., gN+N-1}``.  Cheap to
    reason about, but violates node-distinctness when several ranks share a
    node — the validator rejects it in that case.
``"topology"``
    Like stride, but built from the ranklist itself: ranks are bucketed by
    node and groups are filled one rank per node round-robin, so
    node-distinctness holds for any placement.
``"rack-spread"``
    The paper's future-work mapping: groups additionally spread across
    racks/switches so a single *rack* loss takes at most one stripe from
    any group — at the cost of inter-rack encode bandwidth (requires a
    :class:`repro.sim.topology.Topology` and the ranklist).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

STRATEGIES = ("stride", "block", "topology", "rack-spread")


@dataclass(frozen=True)
class GroupLayout:
    """A partition of world ranks into encoding groups; immutable, so every
    rank of a job can share one.

    ``groups[g]`` lists world ranks in group-rank order; ``group_of`` and
    ``group_rank_of`` are per-world-rank lookups.
    """

    groups: Tuple[Tuple[int, ...], ...]
    #: world rank -> (group, group rank)
    _where: Dict[int, Tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        where = {r: (g, i) for g, members in enumerate(self.groups) for i, r in enumerate(members)}
        object.__setattr__(self, "_where", where)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def group_size(self) -> int:
        return len(self.groups[0]) if self.groups else 0

    def group_of(self, rank: int) -> int:
        return self._where[rank][0]

    def group_rank_of(self, rank: int) -> int:
        return self._where[rank][1]

    def validate_node_distinct(self, ranklist: Sequence[int]) -> None:
        """Raise if any group places two ranks on one node — such a group
        cannot tolerate that node's loss (paper §3.3)."""
        for g, members in enumerate(self.groups):
            nodes = [ranklist[r] for r in members]
            if len(set(nodes)) != len(nodes):
                raise ValueError(
                    f"group {g} has co-located ranks (nodes {nodes}); "
                    "a single node failure would lose two stripes"
                )


def partition_groups(
    n_ranks: int,
    group_size: int,
    *,
    strategy: str = "stride",
    ranklist: Optional[Sequence[int]] = None,
    topology=None,
) -> GroupLayout:
    """Partition ``n_ranks`` world ranks into groups of ``group_size``.

    ``n_ranks`` must be divisible by ``group_size``.  The ``"topology"``
    strategy requires ``ranklist`` (node id per rank); ``"rack-spread"``
    additionally requires ``topology``.
    """
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    if n_ranks % group_size:
        raise ValueError(
            f"{n_ranks} ranks not divisible into groups of {group_size}"
        )
    n_groups = n_ranks // group_size

    if strategy == "stride":
        groups = [
            [g + i * n_groups for i in range(group_size)] for g in range(n_groups)
        ]
    elif strategy == "block":
        groups = [
            list(range(g * group_size, (g + 1) * group_size))
            for g in range(n_groups)
        ]
    elif strategy == "topology":
        if ranklist is None:
            raise ValueError("topology strategy needs the ranklist")
        if len(ranklist) != n_ranks:
            raise ValueError("ranklist length mismatch")
        by_node: Dict[int, List[int]] = {}
        for r, nid in enumerate(ranklist):
            by_node.setdefault(nid, []).append(r)
        # round-robin one rank per node until all ranks are placed
        buckets = [sorted(v) for _, v in sorted(by_node.items())]
        order: List[int] = []
        depth = 0
        while len(order) < n_ranks:
            for b in buckets:
                if depth < len(b):
                    order.append(b[depth])
            depth += 1
        groups = [
            [order[g * group_size + i] for i in range(group_size)]
            for g in range(n_groups)
        ]
    elif strategy == "rack-spread":
        if ranklist is None or topology is None:
            raise ValueError("rack-spread strategy needs ranklist and topology")
        if len(ranklist) != n_ranks:
            raise ValueError("ranklist length mismatch")
        # bucket ranks by rack, then deal one rank per rack round-robin so
        # consecutive picks land in distinct racks; slice into groups
        by_rack: Dict[int, List[int]] = {}
        for r, nid in enumerate(ranklist):
            by_rack.setdefault(topology.rack_of(nid), []).append(r)
        buckets = [sorted(v) for _, v in sorted(by_rack.items())]
        order: List[int] = []
        depth = 0
        while len(order) < n_ranks:
            progressed = False
            for b in buckets:
                if depth < len(b):
                    order.append(b[depth])
                    progressed = True
            if not progressed:
                raise ValueError("rack bucketing failed to cover all ranks")
            depth += 1
        groups = [
            [order[g * group_size + i] for i in range(group_size)]
            for g in range(n_groups)
        ]
    else:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")

    layout = GroupLayout(groups=tuple(map(tuple, groups)))
    if ranklist is not None and strategy != "block":
        layout.validate_node_distinct(ranklist)
    return layout


def group_reliability(
    group_size: int,
    n_groups: int,
    p_node_fail: float,
) -> Dict[str, float]:
    """Failure-tolerance statistics for a grouped system (paper §3.3).

    Assuming independent node failures with probability ``p_node_fail``
    within one checkpoint interval and one rank per node:

    * ``p_group_ok``: a single group survives (0 or 1 of its nodes fail);
    * ``p_system_ok``: every group survives — the probability the grouped
      checkpoint can ride out the interval;
    * ``max_tolerable``: the best case — one failure per group, i.e. the
      paper's "if each group has only two processes, the system can
      tolerate failures for half of the processes at the same time".
    """
    if not 0 <= p_node_fail <= 1:
        raise ValueError("p_node_fail must be a probability")
    if group_size < 2 or n_groups < 1:
        raise ValueError("need group_size >= 2 and n_groups >= 1")
    p = p_node_fail
    n = group_size
    p_ok = (1 - p) ** n + n * p * (1 - p) ** (n - 1)
    return {
        "p_group_ok": p_ok,
        "p_system_ok": p_ok**n_groups,
        "max_tolerable": float(n_groups),
        "fraction_tolerable": n_groups / (n_groups * n),
    }
