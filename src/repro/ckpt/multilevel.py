"""Multi-level checkpointing — the SCR baseline (Moody et al., SC'10).

SCR-style tiering: frequent, cheap level-1 checkpoints in memory (the
double-copy scheme, matching SCR's partner/XOR redundancy and its ~1/3
available-memory footprint from Table 3's "SCR+Memory" row) and occasional
level-2 flushes of the same image to stable storage, which covers failures
beyond what one group can absorb.

Restore prefers the in-memory level and falls back to disk.
"""

from __future__ import annotations

from typing import Optional

from repro.ckpt.disk import BlockDevice, HDD, StableImageStore
from repro.ckpt.double import DoubleCheckpoint
from repro.ckpt.protocol import CheckpointInfo, RestoreReport
from repro.sim.mpi import Communicator
from repro.sim.runtime import RankContext


class MultiLevelCheckpoint(DoubleCheckpoint):
    """Memory (level 1, double-copy) + device (level 2) checkpointing.

    Level 1 *is* the double scheme — its segments, flags, spans (stamped
    ``method="double"``) and layout magic, under the ``<prefix>.L1`` name
    space; this class adds the level-2 image beneath it.
    """

    #: every ``FLUSH_EVERY``-th checkpoint is also written to the device
    #: (SCR's "checkpoint frequency by level" knob)
    FLUSH_EVERY = 10
    #: the level-2 device
    DEVICE: BlockDevice = HDD

    def __init__(
        self,
        ctx: RankContext,
        group_comm: Communicator,
        *,
        op: str = "xor",
        prefix: str = "scr",
    ):
        super().__init__(ctx, group_comm, op=op, prefix=f"{prefix}.L1")
        self._images = StableImageStore(ctx, self.DEVICE, f"{prefix}.L2")

    def checkpoint(self) -> CheckpointInfo:
        info = super().checkpoint()
        if self.n_checkpoints % self.FLUSH_EVERY == 0:
            # the slot this epoch just committed holds the packed image
            self._images.save(info.epoch, self._b[info.epoch % self.N_SLOTS])
            self.ctx.phase("ckpt.level2")
        return info

    def try_restore(self) -> Optional[RestoreReport]:
        """World-coordinated two-level restore.

        All ranks must take the *same* path (the level-1 restore runs
        collectives), so feasibility of the in-memory level is agreed
        world-wide first: if any group cannot recover from memory, every
        rank falls back to the level-2 image together.
        """
        self._require_committed()
        world = self.ctx.world
        status = self._exchange_status()
        mem_ok = self.restore_feasible(status)
        all_mem_ok = world.allreduce_obj(mem_ok, lambda a, b: a and b)
        if all_mem_ok:
            return super().try_restore(status)
        # level-2 target: the newest image every rank holds (0 = none)
        target = world.allreduce_obj(self._images.latest_epoch(), min)
        if target == 0:
            # neither level is whole: reset level-1 flags so the next run
            # starts from a clean epoch-0 state
            self._reset_flags()
            return None

        n_missing = len(self._group_missing(status))
        with self.ctx.span("restore", epoch=target, source="disk", missing=n_missing):
            with self.ctx.span("restore.commit"):
                self.local = self.layout.unpack_into(self._images.load(target), self._arrays)
                # the level-1 slots no longer match the restored state: reset
                # their flags so future checkpoints rebuild from epoch 1
                # consistently
                self._reset_flags()
                world.barrier()
                self.ctx.phase("restore.level2")
        return self._restored(target, "disk")
