"""Incremental diskless checkpointing (Plank & Li, FTCS'94) — the related-
work baseline the paper rules out for HPL.

Only pages modified since the last checkpoint are copied into the
checkpoint buffer and folded into the group checksum (XOR is linear, so
``C_new = C_old ^ group-checksum(delta)`` with ``delta = new ^ old`` zero on
clean pages).  An **undo log** holds the pre-update value of every dirty
page plus the old checksum, making the update window recoverable: a failure
mid-update rolls every survivor back to the previous epoch before the usual
group reconstruction.

Costs are charged on *dirty* bytes (we model hardware/page-fault dirty
tracking; the simulator detects dirtiness by comparing against B, but that
mechanism is free, as a real write-protection scheme would be).

Why the paper rejects it for HPL (§1): "HPL has a big memory footprint —
almost every byte is modified between two checkpoints", so the dirty set is
the whole workspace; the undo buffer must then be as large as the
checkpoint itself, and the scheme degenerates to a double-checkpoint with
extra bookkeeping.  ``repro.analysis.ablations.ablation_incremental``
demonstrates exactly that crossover.

Memory per rank: B (M) + C + C_undo (M/(N-1) each) + an undo buffer that
covers every page (M, in whole pages) — more than the self-checkpoint's
2M + 2M/(N-1).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ckpt.protocol import Checkpointer, CheckpointInfo, RestoreReport, WorldStatus

_U, _B, _R = 1, 2, 3  # control flags: undo-ready, update-done, resumed


class IncrementalCheckpoint(Checkpointer):
    """Dirty-page incremental checkpoint with undo-log crash consistency."""

    N_FLAGS = 3
    METHOD = "incremental"
    #: the dirty-tracking granularity
    PAGE_BYTES = 4096

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.encoder.op != "xor":
            raise ValueError(
                "incremental checkpointing relies on XOR's linearity for "
                "delta checksum folding; op='sum' is not supported"
            )
        #: dirty-byte history, one entry per checkpoint (for the ablation)
        self.dirty_bytes_history: List[int] = []

    # the workspace is in ordinary process memory; B is the SHM reference copy
    def _create_segments(self) -> None:
        self._b = self._shm("B", self._padded)
        self._c = self._shm("C", self._cs_size)
        self._c_undo = self._shm("Cu", self._cs_size)
        # the undo log covers every page, so any dirty set fits in it
        n_pages = -(-self._padded // self.PAGE_BYTES)
        self._undo_pages = self._shm("U", (n_pages, self.PAGE_BYTES))
        # [count, page indices...]
        self._undo_index = self._shm("Ui", n_pages + 1, np.int64)

    # -- dirty detection -----------------------------------------------------------
    def _dirty_pages(self, flat: np.ndarray) -> np.ndarray:
        """Indices of pages where ``flat`` differs from the reference B.

        The page-aligned prefix is compared through zero-copy reshaped
        views; only a non-aligned tail page (if any) is compared as a
        ragged slice — no padded copies of either buffer are made.
        """
        pb = self.PAGE_BYTES
        ref = self._b
        n_full = len(flat) // pb
        aligned = n_full * pb
        if n_full:
            diff = (
                flat[:aligned].reshape(n_full, pb)
                != ref[:aligned].reshape(n_full, pb)
            ).any(axis=1)
            dirty = np.nonzero(diff)[0]
        else:
            dirty = np.zeros(0, dtype=np.intp)
        if aligned < len(flat) and not np.array_equal(
            flat[aligned:], ref[aligned:]
        ):
            dirty = np.concatenate([dirty, np.array([n_full], dtype=np.intp)])
        return dirty

    # -- checkpoint ------------------------------------------------------------------
    def checkpoint(self) -> CheckpointInfo:
        self._require_committed()
        ctx = self.ctx
        e = int(self._ctrl[_U]) + 1
        pb = self.PAGE_BYTES

        with ctx.span("ckpt", epoch=e, method=self.METHOD):
            ctx.phase("ckpt.begin")
            self.ckpt_world_entry_barrier()

            flat = self._pack_flat()
            dirty = self._dirty_pages(flat)
            dirty_bytes = int(len(dirty) * pb)
            self.dirty_bytes_history.append(dirty_bytes)

            with ctx.span("ckpt.encode", nbytes=dirty_bytes):
                # delta buffer: new ^ old, zero outside dirty pages (XOR linearity)
                delta = np.zeros(self._padded, dtype=np.uint8)
                for p in dirty:
                    lo, hi = p * pb, min((p + 1) * pb, self._padded)
                    delta[lo:hi] = flat[lo:hi] ^ self._b[lo:hi]
                enc = self.encoder.encode(delta, effective_bytes=dirty_bytes)
                ctx.phase("ckpt.encode")

            with ctx.span("ckpt.commit", nbytes=2 * dirty_bytes + int(self._c.nbytes)):
                # prepare the undo log, then license the in-place update world-wide
                self._c_undo[:] = self._c
                self._undo_index[0] = len(dirty)
                for i, p in enumerate(dirty):
                    lo, hi = p * pb, min((p + 1) * pb, self._padded)
                    self._undo_index[1 + i] = p
                    self._undo_pages[i, : hi - lo] = self._b[lo:hi]
                self.ctx.world.barrier()
                self._ctrl[_U] = e
                ctx.phase("ckpt.undo_ready")

                # in-place update of B and C (the vulnerable window the undo covers)
                for p in dirty:
                    lo, hi = p * pb, min((p + 1) * pb, self._padded)
                    self._b[lo:hi] = flat[lo:hi]
                self._c[:] = self._c ^ enc.checksum
                flush_s = self._charge_copy(2 * dirty_bytes + self._c.nbytes)
                self._ctrl[_B] = e
                ctx.phase("ckpt.flush")

                self.ctx.world.barrier()
                self._ctrl[_R] = e
                ctx.phase("ckpt.done")

        return self._checkpointed(e, enc.seconds, flush_s, protected_bytes=dirty_bytes)

    # -- restore ---------------------------------------------------------------------
    def _rollback(self) -> None:
        """Undo a (possibly partial) in-place update: B pages and C revert
        to the previous epoch.  Idempotent."""
        pb = self.PAGE_BYTES
        count = int(self._undo_index[0])
        for i in range(count):
            p = int(self._undo_index[1 + i])
            lo, hi = p * pb, min((p + 1) * pb, self._padded)
            self._b[lo:hi] = self._undo_pages[i, : hi - lo]
        self._c[:] = self._c_undo

    def _restore_from(self, status: WorldStatus, missing: List[int]) -> Optional[RestoreReport]:
        e_u, e_r = status.latest(0), status.latest(2)

        ctx = self.ctx
        ctx.phase("restore.begin")
        if e_u > e_r:
            # failure during the in-place update of epoch e_u: every
            # survivor whose undo covers e_u rolls back to e_u - 1
            if self._had_state and int(self._ctrl[_U]) == e_u:
                self._rollback()
                self._ctrl[_U] = e_u - 1
                self._ctrl[_B] = e_u - 1
            epoch = e_u - 1
        else:
            epoch = status.latest(1)
        if epoch == 0:
            return None

        with ctx.span(
            "restore", epoch=epoch, method=self.METHOD, source="checkpoint", missing=len(missing)
        ):
            with ctx.span("restore.rebuild"):
                self._rebuild(self._b, self._c, missing)
                if self.group.rank in missing:
                    self._ctrl[_U] = epoch
                    self._ctrl[_B] = epoch
            with ctx.span("restore.commit"):
                self.local = self.layout.unpack_into(self._b, self._arrays)
                self._charge_copy(self._b.nbytes)
                self._ctrl[_R] = epoch
                self.ctx.world.barrier()
                ctx.phase("restore.done")

        return self._restored(epoch, "checkpoint", missing)
