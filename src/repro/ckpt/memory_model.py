"""Analytic memory-usage model: paper Table 1 and Equations (2)-(4).

With group size ``N`` and per-process workspace ``M``:

* single checkpoint keeps B (M) + C (M/(N-1)):
      U_single = (N-1) / (2N-1)                      (Eq. 4)
* double checkpoint keeps two (B, C) pairs:
      U_double = (N-1) / (3N-1)                      (Eq. 3)
* self-checkpoint keeps B (M) + two checksums C, D (M/(N-1) each),
  with the workspace itself serving as the in-flight copy:
      U_self   = (N-1) / (2N)                        (Eq. 2)

``U`` is the fraction of total memory left for application data.  As N
grows, U_self approaches 1/2 while U_double approaches 1/3 — the "almost
50% more available memory" headline.
"""

from __future__ import annotations

from dataclasses import dataclass


def _check_n(group_size: int) -> None:
    if group_size < 2:
        raise ValueError("group_size must be >= 2")


def available_fraction_single(group_size: int) -> float:
    """Eq. (4): M / (M + M*N/(N-1))."""
    _check_n(group_size)
    n = group_size
    return (n - 1) / (2 * n - 1)


def available_fraction_double(group_size: int) -> float:
    """Eq. (3): M / (M + 2*M*N/(N-1))."""
    _check_n(group_size)
    n = group_size
    return (n - 1) / (3 * n - 1)


def available_fraction_self(group_size: int) -> float:
    """Eq. (2): M / (2*M*N/(N-1))."""
    _check_n(group_size)
    n = group_size
    return (n - 1) / (2 * n)


def available_fraction_self_rs(group_size: int) -> float:
    """The double-parity (RAID-6) extension: checksums are 2M/(N-2) each,
    total 2M + 4M/(N-2) = 2MN/(N-2), so U = (N-2)/2N.

    Equals :func:`available_fraction_self` at half the group size — same
    memory cost, but any-2-of-N tolerance instead of 1 per half-group.
    """
    if group_size < 4:
        raise ValueError("double-parity groups need >= 4 members")
    n = group_size
    return (n - 2) / (2 * n)


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-part memory of the self-checkpoint scheme (paper Table 1),
    in bytes for a workspace of ``workspace`` bytes."""

    workspace: int  # A1 + A2
    checkpoint: int  # B
    checksum_old: int  # C
    checksum_new: int  # D

    @property
    def total(self) -> int:
        return self.workspace + self.checkpoint + self.checksum_old + self.checksum_new

    @property
    def available_fraction(self) -> float:
        return self.workspace / self.total


def memory_breakdown_self(workspace_bytes: int, group_size: int) -> MemoryBreakdown:
    """Table 1 instantiated: A1+A2 = M, B = M, C = D = M/(N-1);
    total = 2MN/(N-1)."""
    _check_n(group_size)
    if workspace_bytes <= 0:
        raise ValueError("workspace must be positive")
    m = workspace_bytes
    cs = m // (group_size - 1)
    return MemoryBreakdown(
        workspace=m, checkpoint=m, checksum_old=cs, checksum_new=cs
    )
