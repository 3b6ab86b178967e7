"""The checkpoint contract, and the common machinery of the in-memory
protocols.

:class:`CheckpointProtocol` declares what every method presents — group
or no group; :class:`Checkpointer` builds the group-encoded protocols on
it.  A :class:`Checkpointer` is constructed identically on every rank of an
encoding group (and re-constructed identically after a restart):

1. register workspace arrays with :meth:`alloc` — the protocol decides
   whether they live in SHM (self-checkpoint: the workspace *is* the
   checkpoint) or in ordinary process memory (single/double);
2. call :meth:`commit` — the group agrees on the padded flat size and the
   protocol creates (or re-attaches) its SHM segments;
3. on a fresh start, compute and call :meth:`checkpoint` periodically;
4. after a restart, call :meth:`try_restore` first — it returns ``None``
   when no checkpoint exists (fresh start), a :class:`RestoreReport` when
   state was recovered, or raises
   :class:`~repro.sim.errors.UnrecoverableError`.

Epoch flags live in a small SHM control segment per rank, written strictly
*after* the data they describe (the simulator delivers failures only at
phase/communication points, which models the write-ordering a real
implementation enforces with memory barriers).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ckpt.encoding import GroupEncoder
from repro.ckpt.state import StateLayout
from repro.sim.errors import ShmError, UnrecoverableError
from repro.sim.mpi import Communicator
from repro.sim.runtime import RankContext


@dataclass(frozen=True)
class CheckpointInfo:
    """Metrics of one completed checkpoint."""

    epoch: int
    protected_bytes: int
    checksum_bytes: int
    encode_seconds: float
    flush_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.encode_seconds + self.flush_seconds


@dataclass(frozen=True)
class RestoreReport:
    """Outcome of a successful :meth:`Checkpointer.try_restore`."""

    epoch: int
    #: ``"checkpoint"`` — recovered from the committed checkpoint (B, C);
    #: ``"workspace"`` — recovered from the live workspace and new checksum
    #: (A, D), the self-checkpoint CASE 2 path.
    source: str
    #: Group ranks whose state was reconstructed from survivors.
    reconstructed: Tuple[int, ...]
    #: The recovered A2 dict for this rank.
    local: Dict[str, Any] = field(default_factory=dict)


@dataclass
class _Status:
    """Per-rank state advertisement exchanged at restore time."""

    has_state: bool
    magic: int
    epochs: Tuple[int, ...]


class CheckpointProtocol(ABC):
    """The contract every checkpoint method presents, group-encoded or not:
    workspace registration (:meth:`alloc` / :meth:`array` / :attr:`local`),
    the :meth:`commit` guard, :meth:`checkpoint` / :meth:`try_restore`, and
    the one way a completed checkpoint or restore is counted and described
    (:meth:`_checkpointed` / :meth:`_restored`).  It knows nothing of
    encoding groups — :class:`Checkpointer` adds those, and
    :class:`~repro.ckpt.disk.DiskCheckpoint` does without."""

    #: human name used in reports
    METHOD: str = "abstract"

    def __init__(self, ctx: RankContext, *, prefix: str, a2_capacity: int = 4096):
        self.ctx = ctx
        self.prefix = prefix
        self.layout = StateLayout(a2_capacity=a2_capacity)
        #: the A2 dict — small per-rank scalars (iteration counters, pivot
        #: bookkeeping) checkpointed alongside the arrays
        self.local: Dict[str, Any] = {}
        self._arrays: Dict[str, np.ndarray] = {}
        self._committed = False
        #: cumulative stats
        self.n_checkpoints = 0
        self.n_restores = 0
        self.total_encode_seconds = 0.0
        self.total_flush_seconds = 0.0

    # -- registration -----------------------------------------------------------
    def alloc(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Register and allocate one workspace array (the paper's A1)."""
        if self._committed:
            raise RuntimeError("cannot alloc after commit()")
        self.layout.add(name, shape, dtype)
        arr = self._alloc_array(name, shape, dtype)
        self._arrays[name] = arr
        return arr

    def _alloc_array(self, name: str, shape, dtype) -> np.ndarray:
        """Place one workspace array: ordinary process memory, lost on a
        restart (self-checkpoint overrides this to keep it in SHM)."""
        return np.zeros(shape, dtype=dtype)

    def array(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def commit(self) -> None:
        """Freeze the layout, then let the protocol size and create what
        it keeps (:meth:`_on_commit`)."""
        if self._committed:
            raise RuntimeError("commit() called twice")
        self.layout.freeze()
        self._on_commit()
        self._committed = True

    @abstractmethod
    def _on_commit(self) -> None:
        """Agree on sizes and create or re-attach the protocol's storage,
        over the frozen layout."""

    def _require_committed(self) -> None:
        if not self._committed:
            raise RuntimeError("call commit() before checkpoint()/try_restore()")

    @property
    @abstractmethod
    def protected_bytes(self) -> int:
        """Per-rank bytes one checkpoint protects."""

    @property
    @abstractmethod
    def checksum_bytes(self) -> int:
        """Per-rank bytes of redundancy one checkpoint adds."""

    @property
    @abstractmethod
    def overhead_bytes(self) -> int:
        """Per-rank memory the protocol consumes beyond the workspace."""

    # -- the tails every checkpoint() / try_restore() ends with ---------------------
    def _checkpointed(
        self, epoch: int, encode_s: float, flush_s: float, protected_bytes: Optional[int] = None
    ) -> CheckpointInfo:
        """Count one completed checkpoint and describe it."""
        self.n_checkpoints += 1
        self.total_encode_seconds += encode_s
        self.total_flush_seconds += flush_s
        return CheckpointInfo(
            epoch=epoch,
            protected_bytes=self.protected_bytes if protected_bytes is None else protected_bytes,
            checksum_bytes=self.checksum_bytes,
            encode_seconds=encode_s,
            flush_seconds=flush_s,
        )

    def _restored(self, epoch: int, source: str, missing: Sequence[int] = ()) -> RestoreReport:
        """Count one completed restore and describe it."""
        self.n_restores += 1
        return RestoreReport(
            epoch=epoch,
            source=source,
            reconstructed=tuple(missing),
            local=dict(self.local),
        )

    # -- the protocol API --------------------------------------------------------------
    @abstractmethod
    def checkpoint(self) -> CheckpointInfo:
        """Protect the current workspace + A2 state."""

    @abstractmethod
    def try_restore(self) -> Optional[RestoreReport]:
        """After a restart: recover state, or return ``None`` if there is
        no checkpoint (fresh start).  Raises ``UnrecoverableError`` when the
        protected state is beyond repair."""


class Checkpointer(CheckpointProtocol):
    """Base of the group-encoded protocols — everything they share, once:
    segment naming and creation, layout agreement, control flags and their
    world-wide exchange, the tolerance check and the group rebuild
    (docs/PROTOCOLS.md, "What a new protocol supplies")."""

    #: subclass-specific number of epoch counters in the control segment
    N_FLAGS: int = 0
    #: parity stripes per slot row of the group's stripe layout — the
    #: number of simultaneous member losses one group's encoding survives
    PARITY: int = 1

    def __init__(
        self,
        ctx: RankContext,
        group_comm: Communicator,
        *,
        op: str = "xor",
        prefix: str = "ckpt",
        a2_capacity: int = 4096,
    ):
        super().__init__(ctx, prefix=prefix, a2_capacity=a2_capacity)
        self.group = group_comm
        self.encoder = GroupEncoder(group_comm, op=op, parity=self.PARITY)
        self._padded: int = 0
        self._cs_size: int = 0
        self._magic: int = 0

    # -- segments ---------------------------------------------------------------
    def _seg(self, kind: str) -> str:
        return f"{self.prefix}.r{self.ctx.rank}.{kind}"

    def _shm(self, kind: str, shape, dtype=np.uint8) -> np.ndarray:
        """Create (or re-attach after a restart) this rank's SHM segment
        ``kind`` and return its array."""
        return self.ctx.shm_create(self._seg(kind), shape, dtype, exist_ok=True).array

    # -- commit -----------------------------------------------------------------
    def _on_commit(self) -> None:
        """Agree on sizes group-wide, create the control and data segments."""
        sizes = self.group.allgather(self.layout.raw_size)
        self._padded = self.encoder.padded_size(max(sizes))
        self._cs_size = self.encoder.checksum_size(self._padded)
        self._magic = self._compute_magic()
        self._ctrl = self._make_ctrl()
        self._create_segments()

    def _compute_magic(self) -> int:
        h = hashlib.sha256()
        h.update(self.prefix.encode())
        h.update(str(self._padded).encode())
        h.update(str(self.group.size).encode())
        h.update(self.METHOD.encode())
        for name in self.layout.names:
            shape, dtype = self.layout.spec_of(name)
            h.update(f"{name}:{shape}:{dtype}".encode())
        return int.from_bytes(h.digest()[:7], "big")  # fits in int64

    @abstractmethod
    def _create_segments(self) -> None:
        """Create or re-attach this protocol's data SHM segments (the
        control segment ``self._ctrl`` already exists)."""

    def _make_ctrl(self) -> np.ndarray:
        """Create/attach the control segment: [magic, flag0, flag1, ...]."""
        pre_existing = self.ctx.shm_exists(self._seg("CTRL"))
        ctrl = self._shm("CTRL", 1 + self.N_FLAGS, np.int64)
        if pre_existing:
            if int(ctrl[0]) != self._magic:
                raise ShmError(
                    f"rank {self.ctx.rank}: checkpoint control segment has "
                    "mismatched layout magic — state layout changed between runs"
                )
        else:
            ctrl[0] = self._magic
        self._had_state = pre_existing
        return ctrl

    # -- shared helpers ------------------------------------------------------------
    def _pack_flat(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Serialize workspace + A2 into a stripe-aligned scratch buffer."""
        return self.layout.pack(self._arrays, self.local, out=out, total_size=self._padded)

    def _charge_copy(self, nbytes: int) -> float:
        """Charge virtual time for a local memory copy; returns seconds."""
        t = nbytes / self.ctx.node.spec.mem_bw_Bps
        self.ctx.elapse(t)
        return t

    def _flags(self) -> Tuple[int, ...]:
        """This rank's epoch flags as of the restart — zeros on a rank
        whose control segment did not survive."""
        if not self._had_state:
            return (0,) * self.N_FLAGS
        return tuple(int(f) for f in self._ctrl[1:])

    def _exchange_status(self) -> List[_Status]:
        """World-wide status exchange (indexed by **world** rank).

        The restore decision must be identical across *all* groups: groups
        checkpoint concurrently, and a failure caught while group 0 was
        committing epoch ``e`` and group 1 still encoding it must roll every
        group to the same application iteration.  The protocols therefore
        align their commit points with world barriers and decide recovery
        from world-wide flag maxima, not group-local ones.

        A rank whose flags are all zero has no *committed* state even if
        its segments exist — e.g. a replacement that died mid-restore, after
        its segments were created but before any epoch committed.  Its
        buffers must not feed a reconstruction, so it advertises itself as
        missing (and is rebuilt like any lost member).
        """
        epochs = self._flags()
        has_state = any(e != 0 for e in epochs)
        raw = self.ctx.world.allgather(
            (has_state, self._magic if has_state else 0, epochs)
        )
        return [_Status(has_state=h, magic=m, epochs=e) for h, m, e in raw]

    def _group_missing(self, statuses: List[_Status]) -> List[int]:
        """Group ranks of members that lost their state, from world statuses."""
        return [
            g
            for g, w in enumerate(self.group.members)
            if not statuses[w].has_state
        ]

    def _check_tolerance(self, missing: List[int]) -> None:
        """More lost members than the group's encoding has parities cannot
        be rebuilt — refuse, never answer wrongly."""
        if len(missing) > self.PARITY:
            raise UnrecoverableError(
                f"group lost {len(missing)} members ({missing}); this "
                f"encoding tolerates {self.PARITY}"
            )

    def _do_recover(self, flat, checksum, missing: list):
        """Group-reconstruct the missing members — the single call through
        which every restore rebuilds.  Survivors pass their buffer and
        checksum segment; missing members pass None and receive their
        rebuilt ``(flat, checksum)``; survivors receive None."""
        return self.encoder.recover(flat, checksum, missing)

    def _rebuild(self, data: np.ndarray, checksum: np.ndarray, missing: List[int]) -> None:
        """Make the group's ``(data, checksum)`` pair whole again, in
        place: lost members receive theirs, survivors contribute copies."""
        if not missing:
            return
        if self.group.rank in missing:
            rebuilt = self._do_recover(None, None, missing)
            assert rebuilt is not None
            data[:], checksum[:] = rebuilt
        else:
            self._do_recover(
                np.array(data, copy=True), np.array(checksum, copy=True), missing
            )

    @staticmethod
    def _world_max(statuses: List[_Status], flag: int) -> int:
        return max(
            (s.epochs[flag] for s in statuses if s.has_state), default=0
        )

    def _reset_flags(self) -> None:
        """Zero the epoch flags (fresh-start path).

        When no checkpoint ever committed, survivors may still carry flags
        from the interrupted first attempt; left in place they would make
        ranks disagree on the next epoch/slot.  Every protocol's
        ``try_restore`` fresh path must call this.
        """
        self._ctrl[1:] = 0

    def ckpt_world_entry_barrier(self) -> None:
        """Synchronize every rank in the system at checkpoint entry, so all
        groups update the same epoch together."""
        self.ctx.world.barrier()

    @property
    def protected_bytes(self) -> int:
        """Padded per-rank bytes covered by the encoding."""
        self._require_committed()
        return self._padded

    @property
    def checksum_bytes(self) -> int:
        self._require_committed()
        return self._cs_size
