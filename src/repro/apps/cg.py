"""Fault-tolerant distributed conjugate gradients.

Solves ``A x = b`` for a sparse symmetric positive-definite operator — a
2-D 5-point Laplacian plus a diagonal shift — distributed by row strips.
Each iteration needs one halo-style operator application and two global
dot products (allreduce), the communication shape of the Krylov solvers
the ABFT literature targets (paper refs [7, 8]).

Checkpointed state: ``x``, ``r``, ``p`` and the scalars ``rs_old`` /
iteration counter in A2.  Recovery resumes mid-Krylov-iteration exactly:
CG's three-term recurrence is fully determined by that state, so the
recovered trajectory is bit-identical under XOR encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.ckpt.manager import CheckpointManager
from repro.sim.mpi import ReduceOp
from repro.sim.runtime import RankContext
from repro.util.rng import block_rng

#: residual-norm convergence threshold
TOL = 1e-10


@dataclass(frozen=True)
class CGConfig:
    nx: int = 32  # grid columns
    ny_per_rank: int = 8  # grid rows per rank
    shift: float = 0.5  # diagonal shift (keeps A well-conditioned SPD)
    max_iters: int = 200
    seed: int = 13
    method: str = "self"
    group_size: int = 4
    ckpt_every: int = 25

    def __post_init__(self) -> None:
        if self.nx < 3 or self.ny_per_rank < 1:
            raise ValueError("grid too small")
        if self.shift < 0:
            raise ValueError("shift must be >= 0")
        if self.ckpt_every < 1:
            raise ValueError("ckpt_every must be >= 1")


@dataclass
class CGResult:
    x: np.ndarray  # this rank's solution strip (flattened)
    iterations: int
    residual: float
    converged: bool
    restored_iteration: int


def _apply_operator(
    ctx: RankContext, cfg: CGConfig, v: np.ndarray
) -> np.ndarray:
    """y = (shift*I + Laplacian) v with halo exchange between strips."""
    comm = ctx.world
    rank, size = comm.rank, comm.size
    grid = v.reshape(cfg.ny_per_rank, cfg.nx)
    zero_row = np.zeros(cfg.nx)
    up, down = rank - 1, rank + 1
    top = (
        comm.sendrecv(grid[0].copy(), dest=up, source=up, sendtag=3, recvtag=4)
        if up >= 0
        else zero_row
    )
    bottom = (
        comm.sendrecv(
            grid[-1].copy(), dest=down, source=down, sendtag=4, recvtag=3
        )
        if down < size
        else zero_row
    )
    padded = np.vstack([top, grid, bottom])
    lap = (
        4.0 * grid
        - padded[:-2, :]
        - padded[2:, :]
        - np.pad(grid[:, :-1], ((0, 0), (1, 0)))
        - np.pad(grid[:, 1:], ((0, 0), (0, 1)))
    )
    ctx.compute(6.0 * grid.size)
    return ((cfg.shift * grid) + lap).reshape(-1)


def _dot(ctx: RankContext, a: np.ndarray, b: np.ndarray) -> float:
    local = np.array([float(np.dot(a, b))])
    ctx.compute(2.0 * len(a))
    return float(ctx.world.allreduce(local, ReduceOp.SUM)[0])


def cg_main(ctx: RankContext, cfg: CGConfig) -> CGResult:
    comm = ctx.world
    n_local = cfg.ny_per_rank * cfg.nx
    mgr = CheckpointManager(
        ctx, comm, group_size=cfg.group_size, method=cfg.method, prefix="cg"
    )
    x = mgr.alloc("x", n_local)
    r = mgr.alloc("r", n_local)
    p = mgr.alloc("p", n_local)
    mgr.commit()

    report = mgr.try_restore()
    if report is not None and report.local.get("it", 0) > 0:
        start = int(report.local["it"])
        rs_old = float(report.local["rs_old"])
    else:
        start = 0
        b = block_rng(cfg.seed, comm.rank).uniform(-1.0, 1.0, n_local)
        x[:] = 0.0
        r[:] = b  # r = b - A*0
        p[:] = r
        rs_old = _dot(ctx, r, r)

    it = start
    converged = rs_old**0.5 < TOL
    while it < cfg.max_iters and not converged:
        ap = _apply_operator(ctx, cfg, p)
        alpha = rs_old / _dot(ctx, p, ap)
        x[:] = x + alpha * p
        r[:] = r - alpha * ap
        rs_new = _dot(ctx, r, r)
        it += 1
        if rs_new**0.5 < TOL:
            converged = True
            break
        p[:] = r + (rs_new / rs_old) * p
        rs_old = rs_new
        if it % cfg.ckpt_every == 0:
            mgr.local["it"] = it
            mgr.local["rs_old"] = rs_old
            mgr.checkpoint()

    # final residual from first principles (not the recurrence)
    ax = _apply_operator(ctx, cfg, np.array(x, copy=True))
    b = block_rng(cfg.seed, comm.rank).uniform(-1.0, 1.0, n_local)
    res = (_dot(ctx, ax - b, ax - b)) ** 0.5
    return CGResult(
        x=np.array(x, copy=True),
        iterations=it,
        residual=res,
        converged=converged,
        restored_iteration=start,
    )
