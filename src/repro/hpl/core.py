"""Distributed HPL: right-looking LU with partial pivoting + solve + verify.

The algorithm is the one the HPL benchmark implements (paper §5.1):

1. **Panel factorization** — the process column owning block column ``k``
   gathers the panel to the diagonal-block owner, which runs an unblocked
   ``getf2`` with partial pivoting (pivot rows recorded as *global* rows).
2. **Panel broadcast** — the factored panel and pivot list are broadcast;
   every rank needs its rows of L21 for the update.
3. **Row swaps** — pivoting exchanges entire rows of the trailing matrix
   (and of b) between the owning process rows, pairwise within each process
   column.
4. **U12 solve** — the process row owning the diagonal block solves
   ``L11 U12 = A12`` for its trailing columns and broadcasts U12 (plus the
   transformed rhs segment) down each process column.
5. **Trailing update** — every rank performs its local
   ``A22 -= L21 @ U12`` GEMM, the O(n^3) heart of HPL: one BLAS ``dgemm``
   with ``beta = 1`` that writes into the trailing block in place
   (:func:`gemm_update`), as HPL's own ``dgemm`` call does.

Back substitution then walks block rows bottom-up, broadcasting each solved
``x`` segment; verification regenerates the original matrix from the fixed
seed and checks HPL's scaled residual.

Compute is charged to the virtual clock per flop (``GEMM_EFFICIENCY``
models how far a tuned DGEMM runs below peak), communication is priced by
the simulator's collectives — so virtual makespans follow the same cost
structure the paper's model in §4 assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from repro.hpl.config import HPLConfig
from repro.hpl.grid import BlockCyclicMap, ProcessGrid, swap_plan
from repro.hpl import matgen
from repro.sim.runtime import RankContext

#: fraction of peak a tuned DGEMM sustains (drives the efficiency model)
GEMM_EFFICIENCY = 0.90
#: fraction of peak the less regular panel/solve kernels sustain
PANEL_EFFICIENCY = 0.30

#: HPL's acceptance threshold on the scaled residual
RESIDUAL_THRESHOLD = 16.0


@dataclass
class HPLTimers:
    """Virtual seconds spent per phase on this rank."""

    panel: float = 0.0
    swap: float = 0.0
    update: float = 0.0
    backsub: float = 0.0

    def total(self) -> float:
        return self.panel + self.swap + self.update + self.backsub


@dataclass
class HPLResult:
    """Outcome of one HPL run on one rank (rank 0's copy is authoritative)."""

    config: HPLConfig
    x: np.ndarray
    residual: float
    passed: bool
    elapsed_s: float
    gflops: float
    timers: HPLTimers = field(default_factory=HPLTimers)


class SingularMatrixError(RuntimeError):
    """A zero pivot was encountered (never for the generated matrices)."""


def solve_triangular(
    a: np.ndarray, b: np.ndarray, *, lower: bool, unit_diagonal: bool = False
) -> np.ndarray:
    """``scipy.linalg.solve_triangular(a, b, lower=lower,
    unit_diagonal=unit_diagonal)`` for float64 ``a`` and ``b``, bit for
    bit, without the wrapping it pays per call.

    LAPACK ``dtrtrs`` gets scipy's arguments: an ``a`` that is not
    F-contiguous goes in as ``a.T`` with ``lower`` flipped and the
    transposed system asked for, and ``b`` is copied, never overwritten.
    Like scipy, a non-finite entry in ``a`` or ``b`` raises ``ValueError``
    and a zero on the diagonal raises ``numpy.linalg.LinAlgError``.
    """
    from scipy.linalg.lapack import dtrtrs  # loaded on first solve: no other process pays for it

    np.asarray_chkfinite(a)
    np.asarray_chkfinite(b)
    if b.size == 0:
        return np.empty_like(b)
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=lower, unitdiag=unit_diagonal)
    else:
        x, info = dtrtrs(a.T, b, lower=not lower, trans=1, unitdiag=unit_diagonal)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


@lru_cache(maxsize=None)
def _dgemm() -> Callable[..., None]:
    """BLAS ``dgemm`` from SciPy's ``cython_blas`` capsule, bound through
    ctypes once per process, as ``dgemm(transa, transb, m, n, k, a, lda,
    b, ldb, c, ldc)`` on raw pointers: ``c = -op(a) op(b) + c``,
    column-major.

    SciPy's f2py ``blas.dgemm`` copies a ``c`` that is not F-contiguous,
    and a trailing view never is; the capsule takes its leading dimension.
    """
    import ctypes

    from scipy.linalg import cython_blas  # loaded on first update: no other process pays for it

    capsule = cython_blas.__pyx_capi__["dgemm"]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    blas = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 13)(
        get_pointer(capsule, get_name(capsule))
    )
    ref, c_int = ctypes.byref, ctypes.c_int
    minus_one, one = ref(ctypes.c_double(-1.0)), ref(ctypes.c_double(1.0))

    def dgemm(transa, transb, m, n, k, a, lda, b, ldb, c, ldc):
        blas(
            transa, transb, ref(c_int(m)), ref(c_int(n)), ref(c_int(k)), minus_one,
            a, ref(c_int(lda)), b, ref(c_int(ldb)), one, c, ref(c_int(ldc)),
        )

    return dgemm


def _column_major(x: np.ndarray) -> Tuple[bytes, int]:
    """``x.T`` as a column-major BLAS operand: its ``trans`` flag and
    leading dimension."""
    if x.flags.c_contiguous:
        return b"N", max(1, x.shape[1])
    if x.flags.f_contiguous:
        return b"T", max(1, x.shape[0])
    raise ValueError("gemm_update: operands must be C- or F-contiguous")


def gemm_update(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``c -= a @ b`` in place for float64 arrays, bit for bit, with no
    temporary: one BLAS ``dgemm(alpha=-1, beta=1)`` that writes through
    ``c``'s leading dimension.

    ``c`` may be any view with unit stride along its rows (a trailing
    block of a C-ordered matrix); ``a`` and ``b`` are C- or F-contiguous.
    The call is numpy's own, column-major (``cᵀ -= bᵀ aᵀ``), so every entry
    sees the same sum, negated exactly.  A one-row or one-column ``c``
    stays numpy's expression: numpy hands a vector product to ``gemv`` or
    ``dot``, which sum in another order than ``gemm``.
    """
    m, n = c.shape
    k = a.shape[1]
    if a.shape != (m, k) or b.shape != (k, n):
        raise ValueError(f"gemm_update: shapes {c.shape} != {a.shape} @ {b.shape}")
    if m <= 1 or n <= 1:
        c -= a @ b
        return
    floats = c.dtype == a.dtype == b.dtype == np.float64
    ld_c, skew = divmod(c.strides[0], c.itemsize)
    if not floats or c.strides[1] != c.itemsize or skew or ld_c < n or not c.flags.writeable:
        raise ValueError("gemm_update: needs float64 operands and a writeable c of unit row stride")
    trans_b, ld_b = _column_major(b)
    trans_a, ld_a = _column_major(a)
    _dgemm()(
        trans_b, trans_a, n, m, k, b.ctypes.data, ld_b, a.ctypes.data, ld_a, c.ctypes.data, ld_c
    )


def _factor_panel(
    ctx: RankContext, panel: np.ndarray, k0: int
) -> np.ndarray:
    """Unblocked getf2 with partial pivoting, in place.

    Returns the pivot list: entry ``j`` is the *global* row swapped with
    global row ``k0 + j``.

    The elimination runs on a transposed copy, so a panel column is a
    contiguous row: every entry still sees the same multiply and subtract,
    in the same order, as ``panel[j+1:, j+1:] -= np.outer(l, u)`` gives it.
    """
    m, nbk = panel.shape
    piv = np.zeros(nbk, dtype=np.int64)
    cols = np.ascontiguousarray(panel.T)  # cols[j] is panel column j
    mag = np.empty(m)
    prod = np.empty(nbk * m)
    for j in range(nbk):
        rel = int(np.abs(cols[j, j:], out=mag[: m - j]).argmax()) + j
        piv[j] = k0 + rel
        if rel != j:  # swap panel rows j and rel through one temporary
            row = cols[:, j].copy()
            cols[:, j] = cols[:, rel]
            cols[:, rel] = row
        pivot = cols[j, j]
        if pivot == 0.0:
            raise SingularMatrixError(f"zero pivot in column {k0 + j}")
        l_col = cols[j, j + 1 :]
        l_col /= pivot
        if j + 1 < nbk:
            # the rank-1 update; u_c * l_i is np.outer's l_i * u_c exactly
            rest = cols[j + 1 :, j + 1 :]
            outer = prod[: rest.size].reshape(rest.shape)
            np.multiply(cols[j + 1 :, j, None], l_col[None, :], out=outer)
            rest -= outer
    panel[:] = cols.T
    ctx.compute(2.0 * m * nbk * nbk / 2.0, efficiency=PANEL_EFFICIENCY)
    return piv


def hpl_solve(
    ctx: RankContext,
    cfg: HPLConfig,
    grid: ProcessGrid,
    rowmap: BlockCyclicMap,
    colmap: BlockCyclicMap,
    a_loc: np.ndarray,
    b_loc: np.ndarray,
    *,
    start_panel: int = 0,
    on_panel_factors: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
    on_panel_end: Optional[Callable[[int], None]] = None,
) -> Tuple[np.ndarray, HPLTimers]:
    """Run the elimination loop from ``start_panel`` and back-substitute.

    ``a_loc``/``b_loc`` are this rank's block-cyclic storage, mutated in
    place (they may live in SHM — that is how SKT-HPL checkpoints them).
    ``on_panel_end(k)`` fires after panel ``k``'s update completes — the
    checkpoint hook (paper Fig. 9: "checkpoints are made at the end of a
    certain iteration during the elimination step").
    ``on_panel_factors(k, panel, piv)`` fires just before it, while the
    panel's factors and pivots still exist — ABFT mirrors the row
    operations onto its checksum vectors from there; its cost lands on
    the rank's clock but in none of the phase timers.

    Returns the replicated solution vector and this rank's phase timers.
    """
    comm = grid.comm
    n, nb = cfg.n, cfg.nb
    nbl = cfg.n_blocks
    myrow, mycol = grid.myrow, grid.mycol
    my_grows = rowmap.globals_of(myrow)
    timers = HPLTimers()

    for k in range(start_panel, nbl):
        k0 = k * nb
        nbk = min(nb, n - k0)
        pr = k % grid.P
        pc = k % grid.Q
        root_rank = grid.rank_of(pr, pc)
        # announce the panel so failure plans can aim at "the k-th panel"
        # (the ``--fail-at panel:k`` CLI spelling) and timelines show it
        ctx.phase("hpl.panel")
        with ctx.span("hpl.panel", k=k, nb=nbk):
            t0 = ctx.clock

            # ---- 1. panel assembly + factorization on process column pc ----
            panel_piv: Optional[Tuple[np.ndarray, np.ndarray]] = None
            if mycol == pc:
                lr = rowmap.local_start(myrow, k0)
                lc0 = colmap.local_index(k0)
                contrib = (my_grows[lr:], a_loc[lr:, lc0 : lc0 + nbk])
                parts = grid.col_comm.gather(contrib, root=pr)
                if myrow == pr:
                    m_panel = n - k0
                    panel = np.empty((m_panel, nbk))
                    for g_rows, data in parts:
                        panel[g_rows - k0, :] = data
                    piv = _factor_panel(ctx, panel, k0)
                    panel_piv = (panel, piv)

            # ---- 2. broadcast factored panel + pivots to everyone ----
            panel, piv = comm.bcast(panel_piv, root=root_rank)
            timers.panel += ctx.clock - t0
            t0 = ctx.clock

            # ---- 3. apply row swaps to trailing columns and rhs ----
            lc_trail = colmap.local_start(mycol, k0 + nbk)
            _apply_row_swaps(grid, rowmap, a_loc, b_loc, piv, k0, lc_trail, tag_base=k)

            # panel-column writeback for the owning process column
            if mycol == pc:
                lr = rowmap.local_start(myrow, k0)
                lc0 = colmap.local_index(k0)
                a_loc[lr:, lc0 : lc0 + nbk] = panel[my_grows[lr:] - k0, :]
            timers.swap += ctx.clock - t0
            t0 = ctx.clock

            # ---- 4. U12 = L11^-1 A12 on process row pr; broadcast down columns ----
            l11 = panel[:nbk, :nbk]
            u12_y: Optional[Tuple[np.ndarray, np.ndarray]] = None
            if myrow == pr:
                lr0 = rowmap.local_index(k0)
                a12 = a_loc[lr0 : lr0 + nbk, lc_trail:]
                u12 = solve_triangular(l11, a12, lower=True, unit_diagonal=True)
                yk = solve_triangular(
                    l11, b_loc[lr0 : lr0 + nbk], lower=True, unit_diagonal=True
                )
                a_loc[lr0 : lr0 + nbk, lc_trail:] = u12
                b_loc[lr0 : lr0 + nbk] = yk
                ctx.compute(
                    float(nbk) * nbk * (a12.shape[1] + 1), efficiency=PANEL_EFFICIENCY
                )
                u12_y = (u12, yk)
            u12, yk = grid.col_comm.bcast(u12_y, root=pr)

            # ---- 5. trailing update: A22 -= L21 @ U12, b22 -= L21 @ yk ----
            lr_trail = rowmap.local_start(myrow, k0 + nbk)
            l21 = panel[my_grows[lr_trail:] - k0, :]
            if l21.size and u12.size:
                gemm_update(a_loc[lr_trail:, lc_trail:], l21, u12)
            if l21.size:
                b_loc[lr_trail:] -= l21 @ yk
            ctx.compute(
                2.0 * l21.shape[0] * nbk * (u12.shape[1] + 1),
                efficiency=GEMM_EFFICIENCY,
            )
            timers.update += ctx.clock - t0

            if on_panel_factors is not None:
                on_panel_factors(k, panel, piv)
            if on_panel_end is not None:
                on_panel_end(k)

    # ---- back substitution ----
    t0 = ctx.clock
    with ctx.span("hpl.backsub"):
        x = _back_substitute(ctx, cfg, grid, rowmap, colmap, a_loc, b_loc)
    timers.backsub += ctx.clock - t0
    return x, timers


def _apply_row_swaps(
    grid: ProcessGrid,
    rowmap: BlockCyclicMap,
    a_loc: np.ndarray,
    b_loc: np.ndarray,
    piv: np.ndarray,
    k0: int,
    lc_trail: int,
    tag_base: int,
) -> None:
    """Exchange pivoted rows of the trailing columns (and rhs) between the
    owning process rows, within each process column: one
    :meth:`~repro.sim.mpi.Communicator.swap_rows` rendezvous per panel,
    priced as one message per pivot."""
    grid.col_comm.swap_rows(
        (a_loc[:, lc_trail:], b_loc),
        *swap_plan(rowmap, piv, k0, grid.myrow),
        tag=tag_base * len(piv) + 1000,
    )


def _back_substitute(
    ctx: RankContext,
    cfg: HPLConfig,
    grid: ProcessGrid,
    rowmap: BlockCyclicMap,
    colmap: BlockCyclicMap,
    a_loc: np.ndarray,
    b_loc: np.ndarray,
) -> np.ndarray:
    """Solve Ux = y bottom-up; returns x replicated on every rank."""
    n, nb = cfg.n, cfg.nb
    x = np.zeros(n)
    for i in range(cfg.n_blocks - 1, -1, -1):
        i0 = i * nb
        nbi = min(nb, n - i0)
        pr = i % grid.P
        pc = i % grid.Q
        owner = grid.rank_of(pr, pc)

        xi = None
        if grid.comm.rank == owner:
            lr0 = rowmap.local_index(i0)
            lc0 = colmap.local_index(i0)
            uii = a_loc[lr0 : lr0 + nbi, lc0 : lc0 + nbi]
            xi = solve_triangular(uii, b_loc[lr0 : lr0 + nbi], lower=False)
            ctx.compute(float(nbi) * nbi, efficiency=PANEL_EFFICIENCY)
        xi = grid.comm.bcast(xi, root=owner)
        x[i0 : i0 + nbi] = xi

        # subtract U[:, block i] @ xi from the remaining rhs rows (< i0);
        # only process column pc holds those columns, then the update is
        # shared along each process row (rhs is replicated across columns)
        lr_stop = rowmap.local_start(grid.myrow, i0)
        contrib = None
        if grid.mycol == pc and lr_stop > 0:
            lc0 = colmap.local_index(i0)
            contrib = a_loc[:lr_stop, lc0 : lc0 + nbi] @ xi
            ctx.compute(2.0 * lr_stop * nbi, efficiency=PANEL_EFFICIENCY)
        contrib = grid.row_comm.bcast(contrib, root=pc)
        if contrib is not None and lr_stop > 0:
            b_loc[:lr_stop] -= contrib
    return x


def verify(
    ctx: RankContext,
    cfg: HPLConfig,
    grid: ProcessGrid,
    rowmap: BlockCyclicMap,
    colmap: BlockCyclicMap,
    x: np.ndarray,
) -> Tuple[float, bool]:
    """HPL's scaled residual check, computed distributed.

    Regenerates the original A and b from the fixed seed (the checkpointed
    run never kept them), forms ``r = b - Ax``, and scales per the HPL
    acceptance test::

        ||r||_inf / (eps * (||A||_inf ||x||_inf + ||b||_inf) * n) < 16
    """
    with ctx.span("hpl.verify", n=cfg.n):
        a0, b0 = matgen.generate_local_system(cfg, rowmap, colmap, grid.myrow, grid.mycol)
        my_gcols = colmap.globals_of(grid.mycol)

        # r = b - A x, assembled across process rows
        partial = a0 @ x[my_gcols]
        ctx.compute(2.0 * a0.shape[0] * a0.shape[1], efficiency=GEMM_EFFICIENCY)
        row_sum = grid.row_comm.allreduce(partial)
        r_loc = b0 - row_sum
        r_inf = float(grid.comm.allreduce_obj(float(np.max(np.abs(r_loc), initial=0.0)), max))

        # ||A||_inf: max over global rows of the row sums of |A|
        a_rows = grid.row_comm.allreduce(np.abs(a0).sum(axis=1))
        a_inf = float(grid.comm.allreduce_obj(float(np.max(a_rows, initial=0.0)), max))
        b_inf = float(grid.comm.allreduce_obj(float(np.max(np.abs(b0), initial=0.0)), max))
        x_inf = float(np.max(np.abs(x)))

        eps = float(np.finfo(np.float64).eps)
        denom = eps * (a_inf * x_inf + b_inf) * cfg.n
        residual = r_inf / denom if denom > 0 else float("inf")
        return residual, residual < RESIDUAL_THRESHOLD


def hpl_main(ctx: RankContext, cfg: HPLConfig) -> HPLResult:
    """A complete original-HPL run: generate, factor, solve, verify.

    This is the baseline ("Original HPL" in Table 3) — no checkpoints, no
    fault tolerance: any node loss aborts the job irrecoverably.
    """
    grid = ProcessGrid(ctx.world, cfg.p, cfg.q)
    rowmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.p)
    colmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.q)

    with ctx.span("hpl.generate", n=cfg.n):
        a_loc, b_loc = matgen.generate_local_system(
            cfg, rowmap, colmap, grid.myrow, grid.mycol
        )

    t_start = ctx.clock
    x, timers = hpl_solve(ctx, cfg, grid, rowmap, colmap, a_loc, b_loc)
    residual, passed = verify(ctx, cfg, grid, rowmap, colmap, x)
    elapsed = ctx.clock - t_start

    return HPLResult(
        config=cfg,
        x=x,
        residual=residual,
        passed=passed,
        elapsed_s=elapsed,
        gflops=cfg.flops / elapsed / 1e9 if elapsed > 0 else 0.0,
        timers=timers,
    )
