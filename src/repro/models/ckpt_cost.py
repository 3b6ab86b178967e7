"""Checkpoint cost model: sizes and times behind Fig. 13 and Table 3.

Checkpoint size per process is the protected workspace itself — close to
half the per-process memory under self-checkpoint (Eq. 2), so it barely
changes with group size (the right panel of Fig. 13).  Encoding time comes
from the network model's stripe-encode cost with each machine's
port-sharing factor (the left panel): Tianhe-2 encodes *slower* than
Tianhe-1A despite smaller checkpoints because 24 processes share each port.

Recovery is "similar to that used to calculate the checksum ... a little
longer" (section 6.3: 20 s vs 16 s on Tianhe-2); we model it as the encode
plus the delivery of the rebuilt buffer.
"""

from __future__ import annotations

from repro.ckpt.memory_model import available_fraction_self
from repro.models.machines import MachineSpec
from repro.sim.netmodel import NetworkModel


def checkpoint_size_per_process(machine: MachineSpec, group_size: int) -> int:
    """Bytes each self-checkpoint process protects when HPL fills the
    available memory.

    The application sizes its workspace to the method's available fraction
    of per-core memory; the checkpoint covers the full workspace.  Sizes
    for the other methods live in :mod:`repro.ckpt.memory_model`.
    """
    return int(machine.node.mem_per_core * available_fraction_self(group_size))


def encode_time(machine: MachineSpec, group_size: int, data_bytes: int | None = None) -> float:
    """Modeled group-encode seconds on ``machine`` (Fig. 13, left)."""
    if data_bytes is None:
        data_bytes = checkpoint_size_per_process(machine, group_size)
    net = NetworkModel(machine.node.net)
    return net.stripe_encode_time(data_bytes, group_size)


def recovery_time(machine: MachineSpec, group_size: int) -> float:
    """Modeled recovery seconds: one encode plus delivering the rebuilt
    buffer to the replacement rank."""
    data_bytes = checkpoint_size_per_process(machine, group_size)
    net = NetworkModel(machine.node.net)
    return net.stripe_encode_time(data_bytes, group_size) + net.p2p_time(
        data_bytes, contended=True
    )


def flush_time(machine: MachineSpec, data_bytes: int) -> float:
    """Local overwrite (B <- workspace): 'normally less than one second'
    (section 6.6)."""
    return data_bytes / machine.node.mem_bw_Bps
