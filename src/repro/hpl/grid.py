"""2-D process grid and block-cyclic index arithmetic.

The matrix is partitioned into ``nb x nb`` blocks; block (I, J) lives on
process (I mod P, J mod Q) — the standard ScaLAPACK/HPL layout.  A
:class:`BlockCyclicMap` precomputes, for one grid dimension, the mapping
between global indices and (owner, local index) pairs; a
:class:`ProcessGrid` owns the row/column communicators and two such maps.
"""

from __future__ import annotations

from typing import List

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
