"""Double parity (RAID-6 style): the ``m = 2`` bindings of
:mod:`repro.ckpt.stripes` — the paper's "more complex encoding methods,
such as RAID-6 and Reed-Solomon, to tolerate more node failures" (§2.1).

In slot row ``r`` the **P parity** (plain XOR) lives on member ``r`` and
the **Q parity** (GF(2^8) Reed-Solomon) on member ``(r+1) mod N``; every
member hosts one P stripe, one Q stripe and ``N-2`` data stripes, and any
**two** members may be lost.  Layout, loops and codec all live in
:mod:`repro.ckpt.stripes` / :mod:`repro.ckpt.kernels`; nothing here but the
parity count.

Space: parity storage per member is ``2m/(N-2)``, so the self-checkpoint
totals become ``2M + 4M/(N-2)`` and the available fraction ``(N-2)/2N`` —
equal to the *single*-failure XOR scheme at group size ``N/2``, but with
any-2-of-N tolerance instead of 1-per-N/2 (the ablation benchmark
quantifies the trade).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.ckpt import stripes
from repro.ckpt.stripes import MemberParity


def padded_size_rs(nbytes: int, group_size: int) -> int:
    """Smallest size >= ``nbytes`` divisible into ``N-2`` word stripes."""
    return stripes.padded_size(nbytes, group_size, 2)


def build_parity(buffers: Sequence[np.ndarray], group_size: int) -> np.ndarray:
    """The ``(N, 2, stripe)`` parity block: ``[j]`` is member ``j``'s
    ``(P, Q)`` pair (P of row ``j``, Q of row ``j-1 mod N``)."""
    if len(buffers) != group_size:
        raise ValueError(f"need {group_size} buffers, got {len(buffers)}")
    return stripes.build_parity(buffers, 2)


def reconstruct_rs(
    survivors: Mapping[int, np.ndarray],
    survivor_parity: Mapping[int, MemberParity],
    missing: Sequence[int],
    group_size: int,
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Rebuild one or two lost members: ``{member: (buffer, (P, Q))}``."""
    return stripes.reconstruct_members(
        survivors, survivor_parity, missing, group_size, 2
    )


def verify_group_rs(
    buffers: Sequence[np.ndarray],
    parity: Sequence[MemberParity],
    group_size: int,
) -> bool:
    """True when the (P, Q) stripes are consistent with the buffers."""
    if len(buffers) != group_size:
        raise ValueError(f"need {group_size} buffers and parity pairs")
    return stripes.verify_parity(buffers, parity, 2)
