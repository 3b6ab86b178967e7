"""ABFT-HPL baseline: algorithm-based fault tolerance via checksum columns.

The Huang-Abraham family of schemes (paper refs [20, 36]) augments the
matrix with checksum data that the elimination itself keeps consistent, so
*soft errors* (bit flips / silent data corruption) can be detected and
corrected with low overhead.  We maintain two checksum vectors that are
transformed exactly like the right-hand side:

    c1 = A @ 1          (plain row sums)
    c2 = A @ w,  w_j = j+1   (index-weighted row sums)

Row operations are linear, so at any panel boundary the transformed matrix
``[0 | trailing]`` (factored rows hold U) must satisfy ``c1 = rowsum`` and
``c2 = weighted rowsum`` row by row.  A single corrupted entry in row ``g``
shows up as ``delta = c1[g] - rowsum(g)``; the weighted mismatch then
pinpoints the column: ``j = c2-mismatch / delta - 1``, and the entry is
repaired in place.

What ABFT **cannot** do — the paper's central criticism (§1, §6.2) — is
survive a permanent node loss: all its state lives in ordinary process
memory, and the MPI job aborts.  ``abft_hpl_main`` therefore allocates
nothing in SHM and performs no checkpointing; under the power-off test the
daemon finds nothing to restore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hpl import matgen
from repro.hpl.config import HPLConfig
from repro.hpl.core import GEMM_EFFICIENCY, HPLResult, hpl_solve, solve_triangular, verify
from repro.hpl.grid import BlockCyclicMap, ProcessGrid, swap_plan
from repro.sim.runtime import RankContext

#: mismatch below this (relative to row magnitude) is rounding, not an error
_DETECT_RTOL = 1e-6


@dataclass(frozen=True)
class SoftErrorInjection:
    """Flip one matrix entry after a given panel's update."""

    panel: int
    world_rank: int
    magnitude: float = 1.0


@dataclass
class ABFTResult:
    hpl: HPLResult
    errors_detected: int
    errors_corrected: int
    checks_run: int


class _ChecksumState:
    """The two checksum vectors, updated like extra rhs columns."""

    def __init__(
        self,
        ctx: RankContext,
        cfg: HPLConfig,
        grid: ProcessGrid,
        rowmap: BlockCyclicMap,
        colmap: BlockCyclicMap,
        a_loc: np.ndarray,
    ):
        self.ctx = ctx
        self.cfg = cfg
        self.grid = grid
        self.rowmap = rowmap
        self.colmap = colmap
        my_gcols = colmap.globals_of(grid.mycol)
        w = (my_gcols + 1).astype(np.float64)
        # partial sums over local columns, completed across the process row
        self.c1 = grid.row_comm.allreduce(a_loc @ np.ones(len(my_gcols)))
        self.c2 = grid.row_comm.allreduce(a_loc @ w)
        self.detected = 0
        self.corrected = 0
        self.checks = 0

    def apply_panel_ops(self, k: int, panel: np.ndarray, piv: np.ndarray) -> None:
        """Mirror panel ``k``'s row swaps / L11 solve / L21 update on c1,
        c2 — ``hpl_solve``'s ``on_panel_factors`` hook (ABFT's extra work,
        charged above the plain HPL cost)."""
        grid, rowmap, ctx = self.grid, self.rowmap, self.ctx
        k0 = k * self.cfg.nb
        nbk = panel.shape[1]
        pr = k % grid.P
        # row swaps (checksums are replicated across process columns, like b)
        grid.col_comm.swap_rows(
            (self.c1, self.c2),
            *swap_plan(rowmap, piv, k0, grid.myrow),
            tag=5000 + k0,
        )
        # L11 solve on the pivot block rows, then the L21 update below
        l11 = panel[:nbk, :nbk]
        y = None
        if grid.myrow == pr:
            lr0 = rowmap.local_index(k0)
            y1 = solve_triangular(
                l11, self.c1[lr0 : lr0 + nbk], lower=True, unit_diagonal=True
            )
            y2 = solve_triangular(
                l11, self.c2[lr0 : lr0 + nbk], lower=True, unit_diagonal=True
            )
            self.c1[lr0 : lr0 + nbk] = y1
            self.c2[lr0 : lr0 + nbk] = y2
            y = (y1, y2)
        y1, y2 = grid.col_comm.bcast(y, root=pr)
        lr_trail = rowmap.local_start(grid.myrow, k0 + nbk)
        my_grows = rowmap.globals_of(grid.myrow)
        l21 = panel[my_grows[lr_trail:] - k0, :]
        if l21.size:
            self.c1[lr_trail:] -= l21 @ y1
            self.c2[lr_trail:] -= l21 @ y2
        ctx.compute(4.0 * l21.shape[0] * nbk, efficiency=GEMM_EFFICIENCY)

    def check_and_correct(self, a_loc: np.ndarray, k_next: int) -> None:
        """Verify the checksum invariant; locate and repair a single
        corrupted entry per row if found.

        For factored rows (global < ``k_next * nb``) the transformed row is
        its U part; trailing rows are their trailing columns.
        """
        grid, rowmap, colmap, ctx = self.grid, self.rowmap, self.colmap, self.ctx
        my_grows = rowmap.globals_of(grid.myrow)
        my_gcols = colmap.globals_of(grid.mycol)
        w = (my_gcols + 1).astype(np.float64)
        boundary = k_next * self.cfg.nb

        # each row's live columns: j >= row's own global index (U part) for
        # factored rows, j >= boundary for trailing rows
        cutoffs = np.where(my_grows < boundary, my_grows, boundary)
        mask = my_gcols[None, :] >= cutoffs[:, None]
        s1 = grid.row_comm.allreduce((a_loc * mask) @ np.ones(len(my_gcols)))
        s2 = grid.row_comm.allreduce((a_loc * mask) @ w)
        ctx.compute(4.0 * a_loc.size, efficiency=GEMM_EFFICIENCY)
        self.checks += 1

        scale = np.maximum(np.abs(s1), 1.0)
        bad = np.nonzero(np.abs(self.c1 - s1) > _DETECT_RTOL * scale)[0]
        for lr in bad:
            delta = float(self.c1[lr] - s1[lr])
            wdelta = float(self.c2[lr] - s2[lr])
            self.detected += 1
            gcol = int(round(wdelta / delta)) - 1
            owner_pc = colmap.owner(gcol) if 0 <= gcol < self.cfg.n else -1
            if owner_pc == grid.mycol:
                a_loc[lr, colmap.local_index(gcol)] += delta
            if 0 <= gcol < self.cfg.n:
                self.corrected += 1


def abft_hpl_main(
    ctx: RankContext,
    cfg: HPLConfig,
    *,
    inject: Optional[SoftErrorInjection] = None,
    check_every: int = 1,
) -> ABFTResult:
    """ABFT-HPL rank main: HPL + checksum maintenance + per-panel checks.

    Soft errors injected via ``inject`` are detected and repaired; node
    losses are fatal (no state survives the process).
    """
    grid = ProcessGrid(ctx.world, cfg.p, cfg.q)
    rowmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.p)
    colmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.q)

    a_loc, b_loc = matgen.generate_local_system(cfg, rowmap, colmap, grid.myrow, grid.mycol)

    checksums = _ChecksumState(ctx, cfg, grid, rowmap, colmap, a_loc)

    def on_panel_end(k: int) -> None:
        # the panel's transforms were applied inside hpl_solve; the
        # checksum state mirrored them through apply_panel_ops
        if (k + 1) % check_every == 0:
            if inject is not None and inject.panel == k and (
                ctx.world.rank == inject.world_rank
            ):
                lr = a_loc.shape[0] - 1
                lc = a_loc.shape[1] - 1
                a_loc[lr, lc] += inject.magnitude  # silent corruption
            checksums.check_and_correct(a_loc, k + 1)

    t_start = ctx.clock
    x, timers = hpl_solve(
        ctx, cfg, grid, rowmap, colmap, a_loc, b_loc,
        on_panel_factors=checksums.apply_panel_ops,
        on_panel_end=on_panel_end,
    )
    residual, passed = verify(ctx, cfg, grid, rowmap, colmap, x)
    elapsed = ctx.clock - t_start

    return ABFTResult(
        hpl=HPLResult(
            config=cfg,
            x=x,
            residual=residual,
            passed=passed,
            elapsed_s=elapsed,
            gflops=cfg.flops / elapsed / 1e9 if elapsed > 0 else 0.0,
            timers=timers,
        ),
        errors_detected=checksums.detected,
        errors_corrected=checksums.corrected,
        checks_run=checksums.checks,
    )
