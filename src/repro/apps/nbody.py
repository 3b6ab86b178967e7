"""Fault-tolerant direct N-body integration (leapfrog / all-pairs gravity).

A third communication shape for the kernel library: each step allgathers
every rank's particle positions (O(N) data, all-to-all-ish traffic — unlike
the stencil's halos or CG's scalar allreduces), computes all-pairs forces
against the global set, and advances its own particles with the leapfrog
(kick-drift-kick) integrator.

Softened gravity keeps the dynamics bounded; the integrator is symplectic,
so total energy stays near-constant — which doubles as the physics check in
the tests.  Positions/velocities live in SHM via the checkpoint manager;
recovery resumes the exact trajectory (bit-identical under XOR encoding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckpt.manager import CheckpointManager
from repro.sim.runtime import RankContext
from repro.util.rng import block_rng

#: gravitational softening length
SOFTENING = 0.1


@dataclass(frozen=True)
class NBodyConfig:
    bodies_per_rank: int = 16
    steps: int = 40
    dt: float = 1e-3
    seed: int = 99
    method: str = "self"
    group_size: int = 4
    ckpt_every: int = 10

    def __post_init__(self) -> None:
        if self.bodies_per_rank < 1:
            raise ValueError("need at least one body per rank")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.ckpt_every < 1:
            raise ValueError("ckpt_every must be >= 1")


@dataclass
class NBodyResult:
    positions: np.ndarray  # (bodies_per_rank, 3)
    velocities: np.ndarray
    energy: float  # total system energy (identical on every rank)
    restored_step: int


def _initial_state(cfg: NBodyConfig, rank: int):
    rng = block_rng(cfg.seed, rank)
    pos = rng.uniform(-1.0, 1.0, size=(cfg.bodies_per_rank, 3))
    vel = rng.uniform(-0.1, 0.1, size=(cfg.bodies_per_rank, 3))
    return pos, vel


def _accelerations(
    ctx: RankContext, mine: np.ndarray, all_pos: np.ndarray
) -> np.ndarray:
    """Softened all-pairs gravity on my bodies from every body."""
    diff = all_pos[None, :, :] - mine[:, None, :]
    dist2 = (diff**2).sum(axis=2) + SOFTENING**2
    inv_d3 = dist2 ** (-1.5)
    acc = (diff * inv_d3[:, :, None]).sum(axis=1)
    ctx.compute(20.0 * mine.shape[0] * all_pos.shape[0])
    return acc


def _total_energy(ctx: RankContext, pos: np.ndarray, vel: np.ndarray) -> float:
    """Global kinetic + potential energy (summed across ranks)."""
    from repro.sim.mpi import ReduceOp

    comm = ctx.world
    all_pos = np.concatenate(comm.allgather(pos))
    kinetic = 0.5 * float((vel**2).sum())
    diff = all_pos[None, :, :] - pos[:, None, :]
    dist = np.sqrt((diff**2).sum(axis=2) + SOFTENING**2)
    # each pair counted twice over the world sum; self-pairs contribute the
    # constant 1/softening, subtracted here
    pot_rows = -(1.0 / dist).sum() + pos.shape[0] / SOFTENING
    local = np.array([kinetic + 0.5 * float(pot_rows)])
    ctx.compute(10.0 * pos.shape[0] * all_pos.shape[0])
    return float(comm.allreduce(local, ReduceOp.SUM)[0])


def nbody_main(ctx: RankContext, cfg: NBodyConfig) -> NBodyResult:
    comm = ctx.world
    mgr = CheckpointManager(
        ctx, comm, group_size=cfg.group_size, method=cfg.method, prefix="nbody"
    )
    state = mgr.alloc("state", (2, cfg.bodies_per_rank, 3))  # pos ‖ vel
    pos, vel = state
    mgr.commit()

    report = mgr.try_restore()
    start = int(report.local["step"]) if report else 0
    if start == 0:
        p0, v0 = _initial_state(cfg, comm.rank)
        pos[:] = p0
        vel[:] = v0

    for step in range(start, cfg.steps):
        all_pos = np.concatenate(comm.allgather(np.array(pos, copy=True)))
        acc = _accelerations(ctx, pos, all_pos)
        # kick-drift-kick leapfrog
        vel[:] = vel + 0.5 * cfg.dt * acc
        pos[:] = pos + cfg.dt * vel
        all_pos = np.concatenate(comm.allgather(np.array(pos, copy=True)))
        acc = _accelerations(ctx, pos, all_pos)
        vel[:] = vel + 0.5 * cfg.dt * acc

        if (step + 1) % cfg.ckpt_every == 0 and step + 1 < cfg.steps:
            mgr.local["step"] = step + 1
            mgr.checkpoint()

    energy = _total_energy(ctx, np.array(pos), np.array(vel))
    return NBodyResult(
        positions=np.array(pos, copy=True),
        velocities=np.array(vel, copy=True),
        energy=energy,
        restored_step=start,
    )
