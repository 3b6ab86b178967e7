"""Deterministic distributed matrix generation.

HPL fills A and b with pseudo-random numbers from a fixed seed, which is
what lets a restarted run skip regeneration ("matrix A and b are always the
same since the HPL test uses a fixed random seed", paper §5.2).  We derive
one RNG stream per global ``nb x nb`` block from ``(seed, I, J)``
(:func:`repro.util.rng.block_rng`), so any rank can (re)generate any block
identically — including a replacement rank re-deriving blocks it never
owned, and the verification step rebuilding the original A.

A small diagonal boost keeps the random matrices comfortably conditioned so
residual checks are meaningful at small n.
"""

from __future__ import annotations

import numpy as np

from repro.hpl.config import HPLConfig
from repro.hpl.grid import BlockCyclicMap
from repro.util.rng import block_rng

#: constant added to every diagonal entry to keep test matrices
#: well-conditioned without changing the algorithm exercised
_DIAG_BOOST = 2.0


def generate_block(cfg: HPLConfig, bi: int, bj: int) -> np.ndarray:
    """The ``nb x nb`` (edge: smaller) block at block coordinates (bi, bj)."""
    nb = cfg.nb
    rows = min(nb, cfg.n - bi * nb)
    cols = min(nb, cfg.n - bj * nb)
    rng = block_rng(cfg.seed, bi, bj)
    block = rng.uniform(-0.5, 0.5, size=(rows, cols))
    if bi == bj:
        np.fill_diagonal(block, block.diagonal() + _DIAG_BOOST)
    return block


def generate_local_matrix(
    cfg: HPLConfig,
    rowmap: BlockCyclicMap,
    colmap: BlockCyclicMap,
    myrow: int,
    mycol: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fill this rank's local block-cyclic storage with its blocks of A."""
    lrows = rowmap.local_count(myrow)
    lcols = colmap.local_count(mycol)
    if out is None:
        out = np.zeros((lrows, lcols))
    elif out.shape != (lrows, lcols):
        raise ValueError(f"out has shape {out.shape}, expected {(lrows, lcols)}")
    nb = cfg.nb
    my_grows = rowmap.globals_of(myrow)
    my_gcols = colmap.globals_of(mycol)
    row_blocks = np.unique(my_grows // nb)
    col_blocks = np.unique(my_gcols // nb)
    for bi in row_blocks:
        lr0 = rowmap.local_index(bi * nb)
        h = min(nb, cfg.n - bi * nb)
        for bj in col_blocks:
            lc0 = colmap.local_index(bj * nb)
            w = min(nb, cfg.n - bj * nb)
            out[lr0 : lr0 + h, lc0 : lc0 + w] = generate_block(cfg, bi, bj)
    return out


def generate_rhs_segment(cfg: HPLConfig, bi: int) -> np.ndarray:
    """The rows of b in block row ``bi`` (streams disjoint from A's)."""
    rows = min(cfg.nb, cfg.n - bi * cfg.nb)
    rng = block_rng(cfg.seed, bi, cfg.n_blocks + 1)  # column index past A
    return rng.uniform(-0.5, 0.5, size=rows)


def generate_local_rhs(
    cfg: HPLConfig,
    rowmap: BlockCyclicMap,
    myrow: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """This rank's rows of b (replicated across process columns)."""
    lrows = rowmap.local_count(myrow)
    if out is None:
        out = np.zeros(lrows)
    elif out.shape != (lrows,):
        raise ValueError(f"out has shape {out.shape}, expected {(lrows,)}")
    nb = cfg.nb
    my_grows = rowmap.globals_of(myrow)
    for bi in np.unique(my_grows // nb):
        lr0 = rowmap.local_index(bi * nb)
        seg = generate_rhs_segment(cfg, bi)
        out[lr0 : lr0 + len(seg)] = seg
    return out


def dense_matrix(cfg: HPLConfig) -> np.ndarray:
    """The full A, assembled serially — for verification at small n."""
    a = np.zeros((cfg.n, cfg.n))
    nb = cfg.nb
    for bi in range(cfg.n_blocks):
        for bj in range(cfg.n_blocks):
            h = min(nb, cfg.n - bi * nb)
            w = min(nb, cfg.n - bj * nb)
            a[bi * nb : bi * nb + h, bj * nb : bj * nb + w] = generate_block(
                cfg, bi, bj
            )
    return a


def dense_rhs(cfg: HPLConfig) -> np.ndarray:
    b = np.zeros(cfg.n)
    nb = cfg.nb
    for bi in range(cfg.n_blocks):
        seg = generate_rhs_segment(cfg, bi)
        b[bi * nb : bi * nb + len(seg)] = seg
    return b
