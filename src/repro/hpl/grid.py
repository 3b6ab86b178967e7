"""2-D process grid and block-cyclic index arithmetic.

The matrix is partitioned into ``nb x nb`` blocks; block (I, J) lives on
process (I mod P, J mod Q) — the standard ScaLAPACK/HPL layout.  A
:class:`BlockCyclicMap` precomputes, for one grid dimension, the mapping
between global indices and (owner, local index) pairs; a
:class:`ProcessGrid` owns the row/column communicators and two such maps.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.sim.mpi import Communicator


class BlockCyclicMap:
    """Block-cyclic distribution of ``n`` indices over ``nprocs`` processes.

    Precomputes dense lookup arrays — fine for the laptop-scale problem
    sizes the simulator runs (n up to a few thousand).
    """

    def __init__(self, n: int, nb: int, nprocs: int):
        if n < 1 or nb < 1 or nprocs < 1:
            raise ValueError("n, nb, nprocs must be >= 1")
        self.n = n
        self.nb = nb
        g = np.arange(n)
        blocks = g // nb
        self._owner = (blocks % nprocs).astype(np.int32)
        # local index: full local blocks before mine, plus offset in block
        self._local = (blocks // nprocs) * nb + (g % nb)
        self._local = self._local.astype(np.int64)
        # per-process: global indices in local order
        self._globals: List[np.ndarray] = [
            g[self._owner == p] for p in range(nprocs)
        ]

    def owner(self, i: int) -> int:
        """Process owning global index ``i``."""
        return int(self._owner[i])

    def local_index(self, i: int) -> int:
        """Local position of global index ``i`` on its owner."""
        return int(self._local[i])

    def locate(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Owners and local indices of the global indices ``idx``."""
        return self._owner[idx], self._local[idx]

    def local_count(self, proc: int) -> int:
        return len(self._globals[proc])

    def globals_of(self, proc: int) -> np.ndarray:
        """Global indices owned by ``proc``, in local storage order."""
        return self._globals[proc]

    def local_start(self, proc: int, g_start: int) -> int:
        """First local index on ``proc`` with global index >= ``g_start``.

        Local storage order follows global order, so the trailing
        submatrix is always the suffix ``[local_start:, ...]`` — a view,
        not a gather.
        """
        return int(np.searchsorted(self._globals[proc], g_start))

    def n_blocks(self) -> int:
        return -(-self.n // self.nb)


class RowSwap(NamedTuple):
    """One step of a panel's row interchanges, as one process row sees it.

    ``row`` is the local index of this process row's side of the swap and
    ``other`` the local index of the other side on its owner.  With
    ``partner is None`` both rows are here: swap them in place.  Otherwise
    exchange ``row`` with process row ``partner``.  ``j`` is the pivot's
    index in the panel — the message tag follows it.
    """

    j: int
    row: int
    partner: Optional[int]
    other: int


def pivot_plan(
    rowmap: BlockCyclicMap, piv: np.ndarray, k0: int, myrow: int
) -> List[RowSwap]:
    """Process row ``myrow``'s share of the interchanges ``piv`` encodes, in
    pivot order: global row ``k0 + j`` is swapped with global row
    ``piv[j]``.  Pivots that stay put, and swaps between two other process
    rows, need nothing from ``myrow`` and are left out."""
    r1 = np.arange(k0, k0 + len(piv))
    o1, l1 = rowmap.locate(r1)
    o2, l2 = rowmap.locate(piv)
    act = (r1 != piv) & ((o1 == myrow) | (o2 == myrow))
    plan = []
    for j, own1, own2, loc1, loc2 in zip(
        np.flatnonzero(act).tolist(),
        o1[act].tolist(), o2[act].tolist(), l1[act].tolist(), l2[act].tolist(),
    ):
        if own1 == own2:
            plan.append(RowSwap(j, loc1, None, loc2))
        elif own1 == myrow:
            plan.append(RowSwap(j, loc1, own2, loc2))
        else:
            plan.append(RowSwap(j, loc2, own1, loc1))
    return plan


class ProcessGrid:
    """P x Q grid over a communicator, with row/column sub-communicators.

    Rank layout is row-major: rank = p * Q + q, so a *process row* shares
    ``p`` (spans all columns) and a *process column* shares ``q``.
    """

    def __init__(self, comm: Communicator, p: int, q: int):
        if comm.size != p * q:
            raise ValueError(
                f"grid {p}x{q} needs {p * q} ranks, communicator has {comm.size}"
            )
        self.comm = comm
        self.P = p
        self.Q = q
        me = comm.rank
        self.myrow = me // q  # my process-row index   (0..P-1)
        self.mycol = me % q  # my process-column index (0..Q-1)
        #: all ranks with my row index — spans the Q columns
        self.row_comm = comm.split(color=self.myrow, key=self.mycol)
        #: all ranks with my column index — spans the P rows
        self.col_comm = comm.split(color=self.mycol, key=self.myrow)

    def rank_of(self, prow: int, pcol: int) -> int:
        """Communicator rank of grid position (prow, pcol)."""
        return prow * self.Q + pcol

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProcessGrid({self.P}x{self.Q}, me=({self.myrow},{self.mycol}))"
