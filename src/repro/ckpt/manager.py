"""Application-facing checkpoint manager: groups + protocol in one object.

Ties together the pieces an application needs (paper §5): partition the
world into node-distinct encoding groups, split a group communicator, and
instantiate the chosen protocol.  SKT-HPL and the examples go through this.

Typical use inside a rank main::

    mgr = CheckpointManager(ctx, ctx.world, group_size=8, method="self")
    a = mgr.alloc("matrix", (rows, cols))
    mgr.commit()
    report = mgr.try_restore()
    start = report.local["iteration"] if report else 0
    for it in range(start, n_iters):
        ... mutate a ...
        if time_to_checkpoint(it):
            mgr.local["iteration"] = it + 1
            mgr.checkpoint()
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.ckpt.disk import DiskCheckpoint, DiskCheckpointSSD
from repro.ckpt.double import DoubleCheckpoint, SingleCheckpoint
from repro.ckpt.buddy import BuddyCheckpoint
from repro.ckpt.grouping import GroupLayout, partition_groups
from repro.ckpt.incremental import IncrementalCheckpoint
from repro.ckpt.multilevel import MultiLevelCheckpoint
from repro.ckpt.protocol import Checkpointer, CheckpointInfo, RestoreReport
from repro.ckpt.self_ckpt import SelfCheckpoint, SelfCheckpointRS
from repro.sim.mpi import Communicator
from repro.sim.runtime import RankContext

#: the one method table: name → protocol class.  Every setting of a
#: method is a class constant, so every class is built the same way.  A
#: class that is a :class:`Checkpointer` gets an encoding group; a bare
#: :class:`~repro.ckpt.protocol.CheckpointProtocol` (disk) needs none.
_METHODS = {
    "self": SelfCheckpoint,
    "self-rs": SelfCheckpointRS,
    "single": SingleCheckpoint,
    "double": DoubleCheckpoint,
    "buddy": BuddyCheckpoint,
    "incremental": IncrementalCheckpoint,
    "disk-hdd": DiskCheckpoint,
    "disk-ssd": DiskCheckpointSSD,
    "multilevel": MultiLevelCheckpoint,
}
METHODS = tuple(_METHODS)


def uses_groups(method: str) -> bool:
    """Does ``method`` encode over a group?  A method the table does not
    know comes with a ``protocol_factory``, which does."""
    return issubclass(_METHODS.get(method, Checkpointer), Checkpointer)


class CheckpointManager:
    """Builds groups and the protocol; delegates the checkpoint surface."""

    def __init__(
        self,
        ctx: RankContext,
        world: Communicator,
        *,
        group_size: int = 8,
        method: str = "self",
        strategy: str = "stride",
        op: str = "xor",
        prefix: str = "ckpt",
        topology=None,
        protocol_factory=None,
    ):
        if method not in METHODS and protocol_factory is None:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        self.ctx = ctx
        self.world = world
        self.method = method

        # a method the table does not know comes with a protocol_factory
        cls = _METHODS.get(method)
        if not uses_groups(method):
            self.group_layout: Optional[GroupLayout] = None
            self.group: Optional[Communicator] = None
            self._impl = cls(ctx, prefix=prefix)
        else:
            # one partition per job: every rank asks for the same one, so
            # it is kept on the world communicator, which they share
            key = (GroupLayout, group_size, strategy, topology)
            layout = world.attrs.get(key)
            if layout is None:
                layout = world.attrs[key] = partition_groups(
                    world.size,
                    group_size,
                    strategy=strategy,
                    ranklist=ctx.job.ranklist,
                    topology=topology,
                )
            self.group_layout = layout
            me = world.rank
            gid = self.group_layout.group_of(me)
            grank = self.group_layout.group_rank_of(me)
            self.group = world.split(color=gid, key=grank)
            # protocol_factory: escape hatch for harnesses (e.g. repro.chaos
            # regression tests) that must run a custom — even deliberately
            # broken — protocol variant through the standard grouping machinery
            self._impl = (protocol_factory or cls)(
                ctx, self.group, op=op, prefix=f"{prefix}.g{gid}"
            )

    # -- delegated surface ---------------------------------------------------------
    def alloc(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        return self._impl.alloc(name, shape, dtype)

    def array(self, name: str) -> np.ndarray:
        return self._impl.array(name)

    def commit(self) -> None:
        self._impl.commit()

    def checkpoint(self) -> CheckpointInfo:
        return self._impl.checkpoint()

    def try_restore(self) -> Optional[RestoreReport]:
        return self._impl.try_restore()

    @property
    def local(self) -> Dict[str, Any]:
        return self._impl.local

    @local.setter
    def local(self, value: Dict[str, Any]) -> None:
        self._impl.local = value

    @property
    def overhead_bytes(self) -> int:
        return self._impl.overhead_bytes

    @property
    def impl(self):
        """The underlying protocol object (for stats inspection)."""
        return self._impl
