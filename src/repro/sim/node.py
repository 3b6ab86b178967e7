"""Simulated compute node: cores, flops rating, SHM.

A :class:`Node` is pure state — threads belonging to ranks mapped onto the
node consult it for compute speed and keep SHM segments in its
:class:`~repro.sim.shm.ShmStore`.  Powering a node off (``fail``) marks it
dead and destroys its SHM, which is precisely the event the checkpoint
protocols must survive.

``NodeSpec`` captures the paper's Table 2 rows; the two Tianhe machines are
predefined in :mod:`repro.models.machines`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.netmodel import NetworkParams
from repro.sim.shm import ShmStore


@dataclass(frozen=True)
class NodeSpec:
    """Static hardware description of a node (one Table 2 column).

    Attributes
    ----------
    cores:
        Processor cores per node.
    flops:
        Peak node performance, floating point ops / second.
    mem_bytes:
        Physical memory capacity.
    net:
        Network parameters seen by processes on this node.
    """

    cores: int = 24
    flops: float = 422.4e9
    mem_bytes: int = 64 * 1024**3
    net: NetworkParams = field(default_factory=NetworkParams)
    #: Local memory copy bandwidth per process, bytes/s.  Prices the
    #: checkpoint flush ("local overwriting time is normally less than one
    #: second", paper section 6.6).
    mem_bw_Bps: float = 10e9

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.flops <= 0:
            raise ValueError("flops must be > 0")
        if self.mem_bytes <= 0:
            raise ValueError("mem_bytes must be > 0")

    @property
    def flops_per_core(self) -> float:
        return self.flops / self.cores

    @property
    def mem_per_core(self) -> int:
        return self.mem_bytes // self.cores


class Node:
    """One node of the simulated cluster."""

    def __init__(self, node_id: int, spec: NodeSpec):
        self.node_id = node_id
        self.spec = spec
        self._alive = True
        self._failed_at: float | None = None
        self.shm = ShmStore(node_id=node_id)

    # -- liveness ------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def failed_at(self) -> float | None:
        """Virtual time of the power-off, if any."""
        return self._failed_at

    def fail(self, when: float = 0.0) -> None:
        """Power the node off: volatile *and* SHM contents are lost.

        ``when`` is the virtual instant of the power-off; the runtime
        delivers the death to each of the node's ranks when *that rank's
        own clock* reaches it (see ``RankContext.check``), so ``when=0.0``
        (the default) means "dead immediately for everyone".  ``_failed_at``
        is published before ``_alive`` so a concurrent reader never
        observes a dead node without a death time.
        """
        if not self._alive:
            return
        self._failed_at = when
        self._alive = False
        self.shm.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._alive else "DOWN"
        return f"Node({self.node_id}, {state})"
