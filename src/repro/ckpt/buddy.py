"""Buddy double in-memory checkpointing (Zheng et al. [37, 38]).

The state of the art the paper measures against is FTC-Charm++'s buddy
scheme: ranks are paired; each keeps one checkpoint copy in its own memory
and mirrors a second copy into its buddy's memory.  Either copy alone
restores the pair after a single node loss — no encoding mathematics at
all, just replication.

This is the slotted lifecycle of :mod:`repro.ckpt.double` at two slots —
the same update sequence, world-wide slot validity and restore — with the
buddy's mirror in place of the checksum; only the two steps that move
bytes between members differ.

Memory per rank: 2 slots x (own copy + buddy's mirror) = four
checkpoint-sized buffers beside the workspace, so 1/5 of memory is left
for the application — identical to the encoded double scheme at group
size 2 (Eq. 3 with N = 2: (N-1)/(3N-1) = 1/5; the XOR parity of a
one-stripe row *is* a copy).  The paper's "This scheme can only use one
third of the memory" (§7) describes [38]'s layout, which keeps a single
slot: workspace + own copy + mirror.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.ckpt.double import SlottedCheckpoint


class BuddyCheckpoint(SlottedCheckpoint):
    """Pairwise replicated double checkpoint (FTC-Charm++ style).

    Requires groups of exactly 2 (use ``group_size=2`` in the manager).
    """

    METHOD = "buddy"
    N_SLOTS = 2
    #: my local copy and my buddy's mirror — the redundancy segment is
    #: mirror-sized as it stands: a group of two has M/(N-1) = M of checksum
    KINDS = ("L", "M")

    def __init__(self, *args, **kwargs):
        kwargs.pop("op", None)  # replication needs no encoding operator
        super().__init__(*args, **kwargs)
        if self.group.size != 2:
            raise ValueError(
                f"buddy checkpointing pairs ranks; group size must be 2 "
                f"(got {self.group.size})"
            )

    @property
    def buddy(self) -> int:
        return 1 - self.group.rank

    def _protect_span(self):
        return self.ctx.span("ckpt.exchange", buddy=self.buddy, nbytes=int(self._padded))

    def _protect(self, flat: np.ndarray, epoch: int, mirror: np.ndarray) -> Tuple[float, int]:
        """Exchange full copies with the buddy (the replication "encode")."""
        mirror[:] = self.group.sendrecv(
            flat, dest=self.buddy, source=self.buddy, sendtag=epoch, recvtag=epoch
        )
        # sendrecv charged the exchange already; report the nominal
        # transfer time for stats symmetry with the encoded schemes
        return self.group.net.p2p_time(int(flat.nbytes), contended=True), mirror.nbytes

    def _rebuild(self, mine: np.ndarray, mirror: np.ndarray, missing: List[int]) -> None:
        if not missing:
            return
        if self.group.rank in missing:
            # my copy is on my buddy: it sends both my data (its mirror)
            # and its own data (so my mirror of IT is rebuilt too)
            mine[:], mirror[:] = self.group.recv(self.buddy, tag=999)
        else:
            # send copies its payload: no copies of our own
            self.group.send((mirror, mine), dest=self.buddy, tag=999)
