"""Disk-based full-image checkpointing — the BLCR baseline of Table 3.

BLCR (Berkeley Lab Checkpoint/Restart) serializes the whole process image
to a block device.  We model the device with a bandwidth/latency pair
shared by all processes of a node; the checkpoint time of one rank is::

    latency + image_bytes / (bandwidth / ranks_sharing)

Two devices reproduce Table 3's BLCR+HDD and BLCR+SSD rows.  Contents go
into the cluster's non-volatile ``stable_store``, so recovery after a node
power-off is possible (the paper marks both BLCR rows "YES") — at the cost
of the long write stalls the table shows.

No encoding group is needed: the device itself is the redundancy.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.ckpt.protocol import CheckpointInfo, CheckpointProtocol, RestoreReport
from repro.sim.runtime import RankContext


@dataclass(frozen=True)
class BlockDevice:
    """A node-local storage device shared by the node's ranks."""

    name: str
    write_Bps: float
    read_Bps: float
    latency_s: float = 5e-3

    def write_time(self, nbytes: int, ranks_sharing: int = 1) -> float:
        return self.latency_s + nbytes / (self.write_Bps / max(1, ranks_sharing))

    def read_time(self, nbytes: int, ranks_sharing: int = 1) -> float:
        return self.latency_s + nbytes / (self.read_Bps / max(1, ranks_sharing))


#: Spinning disk: ~280 MB/s sequential, shared by every rank on the node.
HDD = BlockDevice(name="hdd", write_Bps=280e6, read_Bps=320e6)
#: SATA/NVMe-class SSD.
SSD = BlockDevice(name="ssd", write_Bps=740e6, read_Bps=900e6)
#: Parallel file system: high aggregate bandwidth but shared by the WHOLE
#: job, not just a node ("It would be much slower if a distributed file
#: system is used", paper section 6.2).  Use with
#: ``ranks_sharing = total ranks``.
PFS = BlockDevice(name="pfs", write_Bps=10e9, read_Bps=12e9, latency_s=2e-2)


class StableImageStore:
    """One rank's epoch-tagged checkpoint images on a block device, kept in
    the cluster's non-volatile stable store.

    A failure can strike while some ranks have written image ``e`` and
    others are still at ``e-1``; restoring each rank's *latest* image would
    resurrect an inconsistent global state.  The store therefore keeps the
    last **two** epochs per rank, and restores the world-wide
    ``min(max available epoch)`` — every rank is guaranteed to hold that
    image as long as epoch skew is at most one, which a world barrier at
    checkpoint entry enforces.
    """

    def __init__(
        self,
        ctx: RankContext,
        device: BlockDevice,
        prefix: str,
    ):
        self.ctx = ctx
        self.device = device
        self._store: Dict[str, Any] = ctx.job.cluster.stable_store
        self._prefix = f"{prefix}.r{ctx.rank}"

    def _key(self, epoch: int) -> str:
        return f"{self._prefix}.e{epoch}"

    def _sharing(self) -> int:
        """Ranks the device's bandwidth is divided between: this node's."""
        job = self.ctx.job
        return len(job.cluster.ranks_on_node(job.ranklist, self.ctx.node.node_id))

    def save(self, epoch: int, flat: np.ndarray) -> Tuple[float, int]:
        """Write ``flat`` as the image of ``epoch``, charging the device
        time.  Returns ``(seconds, image bytes)``."""
        blob = pickle.dumps(
            {"flat": flat, "epoch": epoch}, protocol=pickle.HIGHEST_PROTOCOL
        )
        t = self.device.write_time(len(blob), self._sharing())
        self.ctx.elapse(t)
        self._store[self._key(epoch)] = blob
        self._store.pop(self._key(epoch - 2), None)
        return t, len(blob)

    def load(self, epoch: int) -> np.ndarray:
        """Read back the flat buffer of ``epoch``, charging the device time."""
        blob = self._store.get(self._key(epoch))
        if blob is None:  # epoch skew exceeded one: cannot happen with the
            raise RuntimeError(  # entry barrier, but fail loudly if it does
                f"rank {self.ctx.rank} lost checkpoint epoch {epoch}"
            )
        self.ctx.elapse(self.device.read_time(len(blob), self._sharing()))
        return pickle.loads(blob)["flat"]

    def latest_epoch(self) -> int:
        best = 0
        prefix = f"{self._prefix}.e"
        for key in self._store:
            if key.startswith(prefix):
                best = max(best, int(key[len(prefix) :]))
        return best


class DiskCheckpoint(CheckpointProtocol):
    """Full-image checkpoint to a block device (BLCR-like).

    The same :class:`~repro.ckpt.protocol.CheckpointProtocol` contract as
    the in-memory protocols, so applications can swap methods, but with no
    encoding group: a checkpoint has no encode step, and its flush is the
    device write.
    """

    METHOD = "disk"

    def __init__(
        self,
        ctx: RankContext,
        device: BlockDevice = HDD,
        *,
        prefix: str = "blcr",
        a2_capacity: int = 4096,
    ):
        super().__init__(ctx, prefix=prefix, a2_capacity=a2_capacity)
        self.device = device
        self._epoch = 0
        self._images = StableImageStore(ctx, device, prefix)

    def _on_commit(self) -> None:
        """Nothing to size or create: images go to the stable store."""

    @property
    def overhead_bytes(self) -> int:
        """Disk checkpointing keeps nothing in RAM."""
        return 0

    @property
    def protected_bytes(self) -> int:
        return self.layout.raw_size

    @property
    def checksum_bytes(self) -> int:
        """The device itself is the redundancy."""
        return 0

    # -- protocol -----------------------------------------------------------------
    def checkpoint(self) -> CheckpointInfo:
        self._require_committed()
        ctx = self.ctx
        epoch = self._epoch + 1
        with ctx.span("ckpt", epoch=epoch, method=self.METHOD):
            ctx.phase("ckpt.begin")
            # entry barrier bounds the epoch skew between ranks to one, which is
            # what lets a restart agree on a common image (StableImageStore)
            ctx.world.barrier()
            with ctx.span("ckpt.commit", nbytes=int(self.protected_bytes)):
                flat = self.layout.pack(self._arrays, self.local)
                t, image_bytes = self._images.save(epoch, flat)
                self._epoch = epoch
                ctx.phase("ckpt.flush")
        return self._checkpointed(epoch, 0.0, t, protected_bytes=image_bytes)

    def try_restore(self) -> Optional[RestoreReport]:
        self._require_committed()
        # the restored epoch is the newest image EVERY rank holds — a
        # straggler that died mid-write simply pins the world one epoch back
        target = self.ctx.world.allreduce_obj(self._images.latest_epoch(), min)
        if target == 0:
            return None
        with self.ctx.span(
            "restore", epoch=target, method=self.METHOD, source="disk", missing=0
        ):
            with self.ctx.span("restore.commit"):
                flat = self._images.load(target)
                self.local = self.layout.unpack_into(flat, self._arrays)
                self._epoch = target
        return self._restored(target, "disk")
