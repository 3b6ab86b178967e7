"""Deterministic distributed matrix generation.

HPL fills A and b with pseudo-random numbers from a fixed seed, which is
what lets a restarted run skip regeneration ("matrix A and b are always the
same since the HPL test uses a fixed random seed", paper §5.2).  We derive
one RNG stream per global ``nb x nb`` block from ``(seed, I, J)``
(:func:`repro.util.rng.block_rng`), so any rank can (re)generate any block
identically — including a replacement rank re-deriving blocks it never
owned, and the verification step rebuilding the original A.  Entry for
entry, block (I, J) is ``block_rng(seed, I, J).uniform(-0.5, 0.5, shape)``
and block row I of b is ``block_rng(seed, I, n_blocks + 1).uniform(-0.5,
0.5, rows)``; one call seeds all the streams it needs at once
(:func:`repro.util.rng.block_streams`) — a rank's blocks of A and its rows
of b together — and draws each with
``Generator.random`` minus 0.5, the same bits as numpy's ``uniform``
(``-0.5 + 1.0 * u``).

A small diagonal boost keeps the random matrices comfortably conditioned so
residual checks are meaningful at small n.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.hpl.config import HPLConfig
from repro.hpl.grid import BlockCyclicMap
from repro.util.rng import block_streams

#: constant added to every diagonal entry to keep test matrices
#: well-conditioned without changing the algorithm exercised
_DIAG_BOOST = 2.0


def _extent(cfg: HPLConfig, b: int) -> int:
    """Rows (or columns) of block row (or column) ``b``: ``nb``, less at the edge."""
    return min(cfg.nb, cfg.n - b * cfg.nb)


def _draw(seed: int, keys: List[Tuple[int, int]], dsts: List[np.ndarray]) -> None:
    """Fill ``dsts[i]`` with the uniform(-0.5, 0.5) stream of ``keys[i]``."""
    if not keys:
        return
    scratch = np.empty(max(d.size for d in dsts))
    for rng, dst in zip(block_streams(seed, np.array(keys)), dsts):
        u = scratch[: dst.size].reshape(dst.shape)
        rng.random(out=u)
        np.subtract(u, 0.5, out=dst)


def _fill(
    cfg: HPLConfig,
    rows: List[Tuple[int, int]],
    cols: List[Tuple[int, int]],
    a: Optional[np.ndarray],
    b: Optional[np.ndarray],
) -> None:
    """For every ``(bi, r0)`` in ``rows``: write block (bi, bj) of A at
    ``a[r0:, c0:]`` for every ``(bj, c0)`` in ``cols``, and block row ``bi``
    of b at ``b[r0:]`` — its stream's column index lies past A's.  All of
    them are drawn in one pass; an output that is None is skipped."""
    keys, dsts, diagonal = [], [], []
    for bi, r0 in rows:
        h = _extent(cfg, bi)
        if a is not None:
            for bj, c0 in cols:
                dst = a[r0 : r0 + h, c0 : c0 + _extent(cfg, bj)]
                keys.append((bi, bj))
                dsts.append(dst)
                if bi == bj:
                    diagonal.append(dst)
        if b is not None:
            keys.append((bi, cfg.n_blocks + 1))
            dsts.append(b[r0 : r0 + h])
    _draw(cfg.seed, keys, dsts)
    for dst in diagonal:
        i = np.arange(len(dst))
        dst[i, i] += _DIAG_BOOST


def _local_blocks(cfg: HPLConfig, rowmap: BlockCyclicMap, proc: int) -> List[Tuple[int, int]]:
    """``(block, local offset)`` of every block ``proc`` holds along ``rowmap``."""
    nb = cfg.nb
    blocks = np.unique(rowmap.globals_of(proc) // nb).tolist()
    return [(b, rowmap.local_index(b * nb)) for b in blocks]


def generate_local_system(
    cfg: HPLConfig,
    rowmap: BlockCyclicMap,
    colmap: BlockCyclicMap,
    myrow: int,
    mycol: int,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """This rank's block-cyclic share of the system: its blocks of A and
    its rows of b (replicated across process columns), drawn in one pass.
    ``out`` is an ``(a, b)`` pair to fill instead of allocating one."""
    lrows = rowmap.local_count(myrow)
    shapes = ((lrows, colmap.local_count(mycol)), (lrows,))
    if out is None:
        out = (np.empty(shapes[0]), np.empty(shapes[1]))
    for name, arr, shape in zip("ab", out, shapes):
        if arr.shape != shape:
            raise ValueError(f"out {name} has shape {arr.shape}, expected {shape}")
    _fill(
        cfg, _local_blocks(cfg, rowmap, myrow), _local_blocks(cfg, colmap, mycol), *out
    )
    return out


def dense_matrix(cfg: HPLConfig) -> np.ndarray:
    """The full A, assembled serially — for verification at small n."""
    a = np.empty((cfg.n, cfg.n))
    spans = [(b, b * cfg.nb) for b in range(cfg.n_blocks)]
    _fill(cfg, spans, spans, a, None)
    return a


def dense_rhs(cfg: HPLConfig) -> np.ndarray:
    b = np.empty(cfg.n)
    _fill(cfg, [(bi, bi * cfg.nb) for bi in range(cfg.n_blocks)], [], None, b)
    return b
