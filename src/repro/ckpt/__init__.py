"""In-memory checkpoint protocols — the paper's core contribution.

Three protocols over the same group-encoded substrate:

* :class:`SingleCheckpoint` (Fig. 2): one checkpoint + one checksum; cheap
  but cannot survive a failure *during* checkpoint update.
* :class:`DoubleCheckpoint` (Fig. 3): two alternating checkpoint/checksum
  pairs; fully fault tolerant, but only ~1/3 of memory remains for the
  application (the state of the art the paper improves on).
* :class:`SelfCheckpoint` (Figs. 4-5): the paper's method — the workspace
  itself, kept in SHM, doubles as the in-flight checkpoint, so one copy plus
  two small checksums suffice; fully fault tolerant with ~(N-1)/2N of memory
  available.

Plus the comparison baselines: :class:`DiskCheckpoint` (BLCR-like full-image
to a block device) and :class:`MultiLevelCheckpoint` (SCR-like tiering).
"""

from repro.ckpt.stripes import (
    checksum_size,
    build_checksums,
    reconstruct,
    slot_of_stripe,
    stripe_in_slot,
)
from repro.ckpt.encoding import EncodeResult, GroupEncoder
from repro.ckpt.kernels import GF256, RSCodec
from repro.ckpt.grouping import GroupLayout, partition_groups, group_reliability
from repro.ckpt.memory_model import (
    available_fraction_double,
    available_fraction_self,
    available_fraction_self_rs,
    available_fraction_single,
    memory_breakdown_self,
    MemoryBreakdown,
)
from repro.ckpt.state import StateLayout
from repro.ckpt.protocol import (
    CheckpointInfo,
    Checkpointer,
    CheckpointProtocol,
    RestoreReport,
)
from repro.ckpt.double import DoubleCheckpoint, SingleCheckpoint
from repro.ckpt.self_ckpt import SelfCheckpoint, SelfCheckpointRS
from repro.ckpt.incremental import IncrementalCheckpoint
from repro.ckpt.buddy import BuddyCheckpoint
from repro.ckpt.disk import BlockDevice, DiskCheckpoint, HDD, PFS, SSD
from repro.ckpt.multilevel import MultiLevelCheckpoint
from repro.ckpt.manager import METHODS, CheckpointManager
from repro.ckpt.interval import (
    expected_runtime,
    optimal_interval_young,
)

__all__ = [
    "checksum_size",
    "build_checksums",
    "reconstruct",
    "slot_of_stripe",
    "stripe_in_slot",
    "EncodeResult",
    "GroupEncoder",
    "GF256",
    "RSCodec",
    "GroupLayout",
    "partition_groups",
    "group_reliability",
    "available_fraction_single",
    "available_fraction_double",
    "available_fraction_self",
    "memory_breakdown_self",
    "MemoryBreakdown",
    "StateLayout",
    "CheckpointInfo",
    "Checkpointer",
    "CheckpointProtocol",
    "RestoreReport",
    "SingleCheckpoint",
    "DoubleCheckpoint",
    "SelfCheckpoint",
    "SelfCheckpointRS",
    "IncrementalCheckpoint",
    "BuddyCheckpoint",
    "available_fraction_self_rs",
    "BlockDevice",
    "DiskCheckpoint",
    "HDD",
    "PFS",
    "SSD",
    "MultiLevelCheckpoint",
    "CheckpointManager",
    "METHODS",
    "optimal_interval_young",
    "expected_runtime",
]
