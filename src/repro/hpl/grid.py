"""2-D process grid and block-cyclic index arithmetic.

The matrix is partitioned into ``nb x nb`` blocks; block (I, J) lives on
process (I mod P, J mod Q) — the standard ScaLAPACK/HPL layout.  A
:class:`BlockCyclicMap` precomputes, for one grid dimension, the mapping
between global indices and (owner, local index) pairs; a
:class:`ProcessGrid` owns the row/column communicators and two such maps.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.hpl.config import check_int
from repro.sim.mpi import Communicator


class BlockCyclicMap:
    """Block-cyclic distribution of ``n`` indices over ``nprocs`` processes.

    Precomputes dense lookup tables — fine for the laptop-scale problem
    sizes the simulator runs (n up to a few thousand).  ``owners[i]`` and
    ``local_indices[i]`` are plain lists, so a per-index walk reads them
    without a numpy scalar per lookup.
    """

    def __init__(self, n: int, nb: int, nprocs: int):
        for name, value in (("n", n), ("nb", nb), ("nprocs", nprocs)):
            check_int(name, value)
        if n < 1 or nb < 1 or nprocs < 1:
            raise ValueError("n, nb, nprocs must be >= 1")
        self.n = n
        self.nb = nb
        g = np.arange(n)
        blocks = g // nb
        owner = blocks % nprocs
        # local index: full local blocks before mine, plus offset in block
        local = (blocks // nprocs) * nb + (g % nb)
        #: owning process of each global index
        self.owners: List[int] = owner.tolist()
        #: local position of each global index on its owner
        self.local_indices: List[int] = local.tolist()
        # per-process: global indices in local order
        self._globals: List[np.ndarray] = [g[owner == p] for p in range(nprocs)]

    def owner(self, i: int) -> int:
        """Process owning global index ``i``."""
        return self.owners[i]

    def local_index(self, i: int) -> int:
        """Local position of global index ``i`` on its owner."""
        return self.local_indices[i]

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


#: one step of a panel's row interchanges as one process row sees it:
#: ``(j, row, partner, other)``.  ``row`` is the local index of this
#: process row's side of the swap and ``other`` the local index of the
#: other side on its owner.  With ``partner`` None both rows are here:
#: swap them in place.  Otherwise exchange ``row`` with process row
#: ``partner``.  ``j`` is the pivot's index in the panel — the message tag
#: follows it.
SwapStep = Tuple[int, int, Optional[int], int]


def swap_plan(
    rowmap: BlockCyclicMap, piv: np.ndarray, k0: int, myrow: int
) -> Tuple[List[SwapStep], List[int]]:
    """Process row ``myrow``'s share of the interchanges ``piv`` encodes, and
    the panel's participants, in one pass over the pivots.

    Global row ``k0 + j`` is swapped with global row ``piv[j]``.  The steps
    are in pivot order; pivots that stay put, and swaps between two other
    process rows, need nothing from ``myrow`` and are left out.  The
    participants are the process rows with an exchange — those of the
    panel's :meth:`~repro.sim.mpi.Communicator.swap_rows` — ascending.
    """
    owners, local = rowmap.owners, rowmap.local_indices
    steps: List[SwapStep] = []
    remote = set()
    for j, r2 in enumerate(piv.tolist()):
        r1 = k0 + j
        if r1 == r2:
            continue
        o1, o2 = owners[r1], owners[r2]
        if o1 == o2:
            if o1 == myrow:
                steps.append((j, local[r1], None, local[r2]))
            continue
        remote.add(o1)
        remote.add(o2)
        if o1 == myrow:
            steps.append((j, local[r1], o2, local[r2]))
        elif o2 == myrow:
            steps.append((j, local[r2], o1, local[r1]))
    return steps, sorted(remote)


class ProcessGrid:
    """P x Q grid over a communicator, with row/column sub-communicators.

    Rank layout is row-major: rank = p * Q + q, so a *process row* shares
    ``p`` (spans all columns) and a *process column* shares ``q``.
    """

    def __init__(self, comm: Communicator, p: int, q: int):
        check_int("p", p)
        check_int("q", q)
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
