"""The toy iterative self-checkpointed application, with a known answer.

Each rank owns a 64-element array, adds ``rank + 1`` to it per iteration
and checkpoints every ``ckpt_every`` iterations, so after ``iters``
iterations rank ``r``'s array is exactly ``iters * (r + 1)`` — whatever
was lost and recovered on the way.  It is the protocol alone, no solver
around it: the chaos recipes (:func:`repro.chaos.scenarios.selfckpt_scenario`),
``repro obs --scenario selfckpt``, the sanitizer's clean run and the
endurance harness all run this one body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.ckpt.manager import CheckpointManager
from repro.sim.runtime import RankContext


@dataclass(frozen=True)
class IterativeConfig:
    iters: int = 6
    ckpt_every: int = 2
    method: str = "self"
    group_size: int = 2
    op: str = "xor"
    #: modelled (virtual) seconds of work per iteration
    work_s: float = 1.0
    #: swaps in a custom (possibly deliberately broken) protocol through
    #: :class:`~repro.ckpt.manager.CheckpointManager`
    protocol_factory: Optional[Callable[..., Any]] = None

    def __post_init__(self) -> None:
        if self.ckpt_every < 1:
            raise ValueError("ckpt_every must be >= 1")


def iterative_main(ctx: RankContext, cfg: IterativeConfig) -> np.ndarray:
    mgr = CheckpointManager(
        ctx,
        ctx.world,
        group_size=cfg.group_size,
        method=cfg.method,
        op=cfg.op,
        protocol_factory=cfg.protocol_factory,
    )
    a = mgr.alloc("data", 64)
    mgr.commit()
    report = mgr.try_restore()
    start = int(report.local["it"]) if report else 0
    for it in range(start, cfg.iters):
        a += ctx.world.rank + 1
        ctx.elapse(cfg.work_s)
        if (it + 1) % cfg.ckpt_every == 0:
            mgr.local["it"] = it + 1
            mgr.checkpoint()
    return a.copy()


def iterative_answer_ok(
    cfg: IterativeConfig, rank_results: Dict[int, Any], n_ranks: int
) -> bool:
    """The closed-form oracle: every rank returned ``iters * (rank + 1)``
    everywhere — a recovery that silently lost or corrupted an update
    fails it, not just a crash."""
    for r in range(n_ranks):
        a = rank_results.get(r)
        if a is None or not bool(np.all(a == cfg.iters * (r + 1))):
            return False
    return True
