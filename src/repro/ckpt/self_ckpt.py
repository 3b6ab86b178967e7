"""Self-checkpoint — the paper's contribution (sections 3.1-3.2, Figs. 4-5).

Memory layout per rank (all in SHM, names per Fig. 5):

===========  =====================================================  =========
segment      contents                                               size
===========  =====================================================  =========
``A1``       the workspace array ‖ B2 (copy of the small local      M
             state A2) ‖ zero pad: the flat buffer itself
``B``        the committed checkpoint (A1 as of the last flush)     M
``C``        checksum consistent with B                             mM/(N-m)
``D``        checksum of the *live* workspace A1                    mM/(N-m)
``CTRL``     [magic, epoch_F, epoch_B, epoch_R]                     32 B
===========  =====================================================  =========

The application's array is a view of ``A1``'s head, so nothing is packed:
the encode reads ``A1`` in place and the flush is the one M-sized copy.

Checkpoint workflow (Fig. 5)::

    1. copy A2 -> B2                         (the A2 region of A1)
    2. D <- group-checksum(A1)               (stripe encode collective)
       BARRIER; epoch_F = e                  # flush license
    3. B <- A1;  C <- D;  epoch_B = e
       BARRIER; epoch_R = e                  # resume license

The two barriers establish the invariants the recovery decision needs:

* any rank flushing  ==>  every rank finished writing D at this epoch
  (so the **workspace path** A1+D is whole);
* any rank computing ==>  every rank finished flushing B, C
  (so the **checkpoint path** B+C is whole).

Recovery decision from the survivors' flags (max over survivors)::

    if max(epoch_F) > max(epoch_R):   failure hit the flush
        -> CASE 2: recover from workspace A1 + checksum D
    elif max(epoch_B) >= 1:           failure hit compute or encode
        -> CASE 1: recover from checkpoint B + checksum C
    else:                             no checkpoint was ever completed
        -> fresh start

Either path reconstructs the replacement rank's data from the survivors'
buffers and checksum stripes, then rewrites a clean (B, C) pair so the
group returns to the steady state.  A single node loss per group is
therefore tolerated **at any time** — while using one checkpoint copy and
two small checksums instead of the double-checkpoint's two full copies.

``m`` is the number of parity stripes per slot row of the group's
``(N, m)`` layout (:mod:`repro.ckpt.stripes`): the paper's protocol is
``m = 1``; :class:`SelfCheckpointRS` is the very same protocol at
``m = 2``, tolerating two simultaneous losses per group.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ckpt import stripes
from repro.ckpt.protocol import Checkpointer, CheckpointInfo, RestoreReport, WorldStatus

_F, _B, _R = 1, 2, 3  # control-segment flag indices (0 is the magic)


class SelfCheckpoint(Checkpointer):
    """The self-checkpoint protocol (fully fault tolerant, 1 copy + 2
    checksums; available memory (N-1)/2N, paper Eq. 2)."""

    N_FLAGS = 3
    METHOD = "self"

    def _span_attrs(self) -> dict:
        """Extra attributes stamped on this protocol's ``ckpt``/``restore``
        root spans (subclasses add their codec)."""
        return {"method": self.METHOD, "group": self.group.size}

    # -- placement: the workspace lives in SHM ------------------------------------
    def _alloc_array(self, shape, dtype) -> np.ndarray:
        """Create (or re-attach) the ``A1`` segment, array ‖ B2 ‖ pad, and
        hand out its head as the workspace array."""
        self._a1 = self._shm("A1", self._padded)
        self._b2 = self._a1[self.layout.a2_region]
        return self._a1[: self.layout.array_size].view(dtype).reshape(shape)

    def _create_segments(self) -> None:
        # every checkpoint rewrites all three in full (D <- encode(A1), then
        # B <- A1, C <- D) and a restore reads only a committed pair or
        # rebuilds a lost member's: no fresh byte is ever read
        self._b = self._shm("B", self._padded, zeroed=False)
        self._c = self._shm("C", self._cs_size, zeroed=False)
        self._d = self._shm("D", self._cs_size, zeroed=False)

    # -- checkpoint ---------------------------------------------------------------------
    def checkpoint(self) -> CheckpointInfo:
        self._require_committed()
        ctx = self.ctx
        e = int(self._ctrl[_F]) + 1

        with ctx.span("ckpt", epoch=e, **self._span_attrs()):
            ctx.phase("ckpt.begin")
            # step 1: copy A2 into its SHM shadow B2, behind the array in A1
            with ctx.span("ckpt.copy_a2", nbytes=int(self._b2.nbytes)):
                self.layout.pack_a2(self.local, out=self._b2)
                ctx.phase("ckpt.copy_a2")

            # step 2: encode the live workspace A1 in place, straight into D
            with ctx.span("ckpt.encode", nbytes=int(self._padded)):
                encode_s = self.encoder.encode(self._a1, out=self._d).seconds
                ctx.phase("ckpt.encode")

            # flush license: a *world* barrier, so that "any rank flushing"
            # implies every group in the system holds a complete D — the
            # recovery decision is then globally consistent (all groups roll to
            # the same application iteration).  The barrier adds only latency
            # terms; the paper's claim that encode cost depends on the group
            # size alone still holds.
            self.ctx.world.barrier()
            self._ctrl[_F] = e
            ctx.phase("ckpt.flush_license")

            # step 3: flush workspace into the committed checkpoint, then
            # take the resume license — together the commit point
            with ctx.span("ckpt.commit", nbytes=int(self._a1.nbytes + self._d.nbytes)):
                self._b[:] = self._a1
                self._c[:] = self._d
                flush_s = self._charge_copy(self._a1.nbytes + self._d.nbytes)
                self._ctrl[_B] = e
                ctx.phase("ckpt.flush")

                # resume license: world-wide, for the same reason
                self.ctx.world.barrier()
                self._ctrl[_R] = e
                ctx.phase("ckpt.done")

        return self._checkpointed(e, encode_s, flush_s)

    # -- restore -------------------------------------------------------------------------
    def _restore_from(self, status: WorldStatus, missing: List[int]) -> Optional[RestoreReport]:
        # world-wide flag maxima: every group takes the same branch
        e_f, e_b, e_r = status.latest(0), status.latest(1), status.latest(2)

        if e_f > e_r:
            return self._restore(e_f, "workspace", missing)
        if e_b >= 1:
            return self._restore(e_b, "checkpoint", missing)
        return None

    def _fresh_reset(self) -> None:
        """Blank the SHM workspace and flags for a fresh start: no epoch
        ever committed anywhere, but surviving nodes may still hold their
        stale pre-failure workspace in SHM, and every rank must initialize
        identically."""
        if self._had_state:
            self._a1[:] = 0
            self._reset_flags()

    def _restore(self, epoch: int, source: str, missing: list) -> RestoreReport:
        """Rebuild the lost members from the globally consistent pair, then
        bring the other pair in line with it (Fig. 4).

        ``source="workspace"`` — CASE 2, the flush was interrupted: the
        live workspace A1 plus the new checksum D are consistent, and the
        lost members are rebuilt straight into A1; afterwards complete the
        flush into (B, C).
        ``source="checkpoint"`` — CASE 1, compute or encode was
        interrupted: the committed (B, C) is consistent; afterwards roll
        the workspace and D back to it.
        """
        ctx = self.ctx
        from_workspace = source == "workspace"
        with ctx.span(
            "restore", epoch=epoch, source=source, missing=len(missing), **self._span_attrs()
        ):
            ctx.phase("restore.begin")

            with ctx.span("restore.rebuild"):
                data, checksum = (self._a1, self._d) if from_workspace else (self._b, self._c)
                self._rebuild(data, checksum, missing)
                ctx.phase("restore.reconstruct")

            with ctx.span("restore.commit"):
                if from_workspace:
                    self._b[:] = self._a1
                    self._c[:] = self._d
                    self._charge_copy(self._a1.nbytes + self._d.nbytes)
                else:
                    self._a1[:] = self._b
                    self._d[:] = self._c
                    self._charge_copy(self._b.nbytes)
                self.local = self.layout.unpack_a2(self._b2)
                self._ctrl[_F] = epoch
                self._ctrl[_B] = epoch
                self.ctx.world.barrier()
                self._ctrl[_R] = epoch
                ctx.phase("restore.done")

        return self._restored(epoch, source, missing)

    # -- diagnostics -----------------------------------------------------------
    def verify(self) -> dict:
        """Collectively audit the group's redundancy (debug/ops tool).

        Returns ``{"checkpoint_ok": ..., "epochs": (F, B, R)}`` on every
        member: ``checkpoint_ok`` is True when the committed (B, C) pair is
        a consistent codeword across the whole group.  Safe to call at any
        quiescent point (all members must call together).
        """
        n = self.group.size
        m = self.PARITY

        def compute(data):
            ok = stripes.verify_parity(
                [data[r][0] for r in range(n)],
                [data[r][1].reshape(m, -1) for r in range(n)],
                m,
                self.encoder.op,
            )
            return {r: ok for r in data}

        # the collective only reads the pair, and every member waits in it
        ok = self.group.custom_collective(
            (self._b, self._c),
            compute=compute,
            cost=lambda d: self.group.net.stripe_encode_time(self._padded, n),
        )
        return {
            "checkpoint_ok": bool(ok),
            "epochs": (
                int(self._ctrl[_F]),
                int(self._ctrl[_B]),
                int(self._ctrl[_R]),
            ),
        }


class SelfCheckpointRS(SelfCheckpoint):
    """Self-checkpoint over (P, Q) parity — the paper's "RAID-6 and
    Reed-Solomon" remark (§2.1) applied to its own protocol: C and D each
    hold a P and a Q stripe, and any TWO members of a group may be lost at
    once.  Checksums are ``2M/(N-2)`` per member, so available memory is
    ``(N-2)/2N`` — the single-parity scheme at half the group size, but
    with any-2-of-N tolerance instead of 1-per-subgroup."""

    METHOD = "self-rs"
    PARITY = 2

    def _span_attrs(self) -> dict:
        return {**super()._span_attrs(), "codec": "rs", "max_losses": self.PARITY}
