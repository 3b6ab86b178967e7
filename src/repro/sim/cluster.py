"""Simulated cluster: a pool of nodes plus spares.

The cluster outlives individual jobs — that is the whole point: SHM on
healthy nodes must survive a job abort so the next incarnation of the job
can attach to its checkpoints.  The job daemon draws replacement nodes from
the spare pool exactly as the paper's master-node daemon swaps lost nodes
out of the ranklist (section 5.2).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.sim.errors import SimError
from repro.sim.node import Node, NodeSpec


class Cluster:
    """A set of compute nodes with a spare pool.

    Parameters
    ----------
    n_nodes:
        Number of nodes initially in the active pool.
    spec:
        Hardware description shared by every node (homogeneous cluster, as
        both Tianhe partitions are).
    n_spares:
        Extra healthy nodes available to replace failures.
    """

    def __init__(
        self,
        n_nodes: int,
        spec: NodeSpec | None = None,
        *,
        n_spares: int = 0,
    ):
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if n_spares < 0:
            raise ValueError("n_spares must be >= 0")
        self.spec = spec or NodeSpec()
        self._nodes: Dict[int, Node] = {}
        for i in range(n_nodes + n_spares):
            self._nodes[i] = Node(i, self.spec)
        self._active_ids: List[int] = list(range(n_nodes))
        self._spare_ids: List[int] = list(range(n_nodes, n_nodes + n_spares))
        #: Non-volatile key/value storage (local disks / parallel FS).
        #: Unlike SHM, contents survive node power-off — disk-based
        #: checkpoint baselines (BLCR, SCR's slower levels) write here.
        self.stable_store: Dict[str, object] = {}

    # -- access ---------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimError(f"no node with id {node_id}") from None

    @property
    def nodes(self) -> List[Node]:
        """Active (non-spare) nodes, in id order."""
        return [self._nodes[i] for i in self._active_ids]

    def all_nodes(self) -> List[Node]:
        return [self._nodes[i] for i in sorted(self._nodes)]

    # -- failure / replacement --------------------------------------------------
    def fail_node(self, node_id: int, when: float = 0.0) -> None:
        """Power off a node (active or spare)."""
        self.node(node_id).fail(when)

    def dead_nodes(self) -> List[int]:
        return [i for i in self._active_ids if not self._nodes[i].alive]

    def replace_dead(self) -> Dict[int, int]:
        """Swap every dead active node for a spare.

        Returns a mapping ``{dead_node_id: replacement_node_id}``.  Raises
        :class:`SimError` when the spare pool runs dry — the condition under
        which even a fault-tolerant job cannot continue.
        """
        replacements: Dict[int, int] = {}
        for dead in self.dead_nodes():
            spare = self._take_spare()
            idx = self._active_ids.index(dead)
            self._active_ids[idx] = spare
            replacements[dead] = spare
        return replacements

    def _take_spare(self) -> int:
        while self._spare_ids:
            cand = self._spare_ids.pop(0)
            if self._nodes[cand].alive:
                return cand
        raise SimError("spare pool exhausted")

    # -- rank placement ---------------------------------------------------------
    def default_ranklist(self, n_ranks: int, *, procs_per_node: int | None = None) -> List[int]:
        """Map ranks onto active nodes block-wise, ``procs_per_node`` ranks
        per node (defaults to the node core count), the layout ``mpirun``
        would produce from a machine file."""
        ppn = procs_per_node or self.spec.cores
        need = -(-n_ranks // ppn)  # ceil
        if need > len(self._active_ids):
            raise SimError(
                f"{n_ranks} ranks at {ppn}/node need {need} nodes, "
                f"cluster has {len(self._active_ids)}"
            )
        return [self._active_ids[r // ppn] for r in range(n_ranks)]

    def ranks_on_node(self, ranklist: Sequence[int], node_id: int) -> List[int]:
        return [r for r, nid in enumerate(ranklist) if nid == node_id]
