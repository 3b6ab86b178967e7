"""The slotted in-memory checkpoints (paper Figs. 2-3): single and double.

One protocol, parameterised by how many ``(checkpoint, checksum)`` slots it
keeps (Table 1 compares the schemes by exactly that):

* ``N_SLOTS = 1`` — :class:`SingleCheckpoint` (Fig. 2), the weak baseline.
  ``B`` and ``C`` are updated **in place**, so a failure while the update
  is in flight leaves the only pair inconsistent and the run is
  unrecoverable — the paper's CASE 2.  Cheapest in memory (Eq. 4:
  (N-1)/(2N-1) available).
* ``N_SLOTS = 2`` — :class:`DoubleCheckpoint` (Fig. 3), the state of the
  art.  Each update overwrites the *older* slot, so one consistent pair
  always survives a failure mid-update.  Fully fault tolerant like
  self-checkpoint, but the second full copy caps available memory at
  (N-1)/(3N-1) — barely a third — which is exactly the cost the paper
  eliminates.  This is the scheme the SCR-memory row of Table 3 uses.

The control flags ``[magic, c0, b0, c1, b1 ...]`` make the vulnerable
window observable: ``c_s`` is bumped *before* slot ``s``'s update starts
(declaring it dirty) and ``b_s`` *after* its checkpoint lands.  A slot is
restorable only when every survivor shows ``c_s == b_s`` at one common
epoch.

:class:`~repro.ckpt.buddy.BuddyCheckpoint` is the same lifecycle with a
mirror in place of the checksum.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ckpt.protocol import Checkpointer, CheckpointInfo, RestoreReport, WorldStatus
from repro.sim.errors import UnrecoverableError


class SlottedCheckpoint(Checkpointer):
    """``N_SLOTS`` alternating (copy, redundancy) pairs: the one update
    sequence, validity rule and restore of the single, double and buddy
    schemes."""

    #: epoch ``e`` updates slot ``e mod N_SLOTS``
    N_SLOTS: int
    #: segment kinds of a slot's copy and of its redundancy
    KINDS = ("B", "C")

    @property
    def N_FLAGS(self) -> int:
        return 2 * self.N_SLOTS

    @staticmethod
    def _flag_index(slot: int) -> Tuple[int, int]:
        """Control-segment indices of slot ``slot``'s ``(c_s, b_s)`` flags."""
        return 1 + 2 * slot, 2 + 2 * slot

    def _create_segments(self) -> None:
        # a lone slot keeps the paper's bare names B / C
        slots = range(self.N_SLOTS) if self.N_SLOTS > 1 else ("",)
        copy, redundancy = self.KINDS
        # an update packs the whole copy and fills the whole redundancy, and
        # a slot is read only once its flags say it committed (or rebuilt)
        self._b = [self._shm(f"{copy}{s}", self._padded, zeroed=False) for s in slots]
        self._c = [self._shm(f"{redundancy}{s}", self._cs_size, zeroed=False) for s in slots]

    # -- protect: the step of the update that moves bytes between members
    # (its restore counterpart is ``Checkpointer._rebuild``) ---------------------
    def _protect_span(self):
        """The span the protect step runs under."""
        return self.ctx.span("ckpt.encode", nbytes=int(self._padded))

    def _protect(self, flat: np.ndarray, epoch: int, redundancy: np.ndarray) -> Tuple[float, int]:
        """Fill the slot's redundancy for ``flat``.  Returns the modelled
        seconds (already charged) and the bytes it copied locally, which
        the flush charges."""
        return self.encoder.encode(flat, out=redundancy).seconds, 0

    # -- checkpoint ---------------------------------------------------------------
    def checkpoint(self) -> CheckpointInfo:
        self._require_committed()
        ctx = self.ctx
        e = int(self._ctrl[1:].max()) + 1
        slot = e % self.N_SLOTS  # overwrite the oldest slot
        c_flag, b_flag = self._flag_index(slot)

        with ctx.span("ckpt", epoch=e, method=self.METHOD, slot=slot):
            ctx.phase("ckpt.begin")
            self.ckpt_world_entry_barrier()
            self._ctrl[c_flag] = e  # the slot is dirty from here on
            ctx.phase("ckpt.update")

            with self._protect_span():
                # the dirty slot's copy is the packing buffer: the flush
                # below then moves no bytes, but is still charged the copy
                flat = self._pack_flat(out=self._b[slot])
                encode_s, copied = self._protect(flat, e, self._c[slot])
                ctx.phase("ckpt.update.mid")

            # the flush happens together system-wide (world barrier, keeping
            # all groups' epochs aligned); a failure now catches peers
            # mid-update
            with ctx.span("ckpt.commit", nbytes=int(flat.nbytes)):
                self.ctx.world.barrier()
                flush_s = self._charge_copy(flat.nbytes + copied)
                self._ctrl[b_flag] = e
                ctx.phase("ckpt.flush")
                self.ctx.world.barrier()
                ctx.phase("ckpt.done")

        return self._checkpointed(e, encode_s, flush_s)

    # -- restore ------------------------------------------------------------------
    def valid_slots(self, status: WorldStatus) -> Dict[int, int]:
        """Slots on which every surviving rank agrees on one clean epoch."""
        valid: Dict[int, int] = {}
        for slot in range(self.N_SLOTS):
            cs = {e[2 * slot] for e in status.epochs}
            bs = {e[2 * slot + 1] for e in status.epochs}
            if cs == bs and len(cs) == 1:
                valid[slot] = cs.pop()
        return valid

    def restore_feasible(self, status: WorldStatus) -> bool:
        """Can this group recover from the in-memory slots (or start fresh)
        without raising?  Pure function of the exchanged status, so every
        rank of the world computes the same value for its own group."""
        if not status.epochs:
            return True  # fresh start is fine
        if len(self._group_missing(status)) > self.PARITY:
            return False
        return bool(self.valid_slots(status))

    def _restore_from(self, status: WorldStatus, missing: List[int]) -> Optional[RestoreReport]:
        valid = self.valid_slots(status)
        if not valid:
            raise UnrecoverableError(
                f"no {self.METHOD}-checkpoint slot is consistent across the "
                "survivors (failure during checkpoint update, with no "
                "untouched slot left): flags="
                f"{list(status.epochs)}"
            )
        slot, epoch = max(valid.items(), key=lambda kv: kv[1])
        if epoch == 0:
            return None

        ctx = self.ctx
        with ctx.span("restore", epoch=epoch, source="checkpoint", missing=len(missing)):
            ctx.phase("restore.begin")
            # normalize flags: an interrupted slot's stale dirty marks would
            # otherwise make ranks disagree on the next epoch/slot (the
            # replacement starts with zeroed flags); wipe anything that is not
            # a clean epoch older than the restored one
            for other in range(self.N_SLOTS):
                c_flag, b_flag = self._flag_index(other)
                if other != slot and (
                    self._ctrl[c_flag] != self._ctrl[b_flag]
                    or int(self._ctrl[c_flag]) >= epoch
                ):
                    self._ctrl[c_flag] = 0
                    self._ctrl[b_flag] = 0
            with ctx.span("restore.rebuild"):
                self._rebuild(self._b[slot], self._c[slot], missing)
                if self.group.rank in missing:
                    c_flag, b_flag = self._flag_index(slot)
                    self._ctrl[c_flag] = epoch
                    self._ctrl[b_flag] = epoch
            with ctx.span("restore.commit"):
                self.local = self.layout.unpack_into(self._b[slot], self._arrays)
                self._charge_copy(self._b[slot].nbytes)
                self.ctx.world.barrier()
                ctx.phase("restore.done")

        return self._restored(epoch, "checkpoint", missing)


class SingleCheckpoint(SlottedCheckpoint):
    """Single-copy in-memory checkpoint: NOT fully fault tolerant."""

    METHOD = "single"
    N_SLOTS = 1


class DoubleCheckpoint(SlottedCheckpoint):
    """Two-copy in-memory checkpoint: fully fault tolerant, memory hungry."""

    METHOD = "double"
    N_SLOTS = 2
