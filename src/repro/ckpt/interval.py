"""Optimal checkpoint interval selection (Young).

The paper checkpoints SKT-HPL "at the end of a certain iteration" with a
period chosen against the system MTBF (Table 3 uses one checkpoint per 10
minutes).  The classic first-order optimum lets the benchmarks ablate that
choice:

* Young (1974):   T_opt = sqrt(2 * delta * MTBF)

``delta`` is the time to take one checkpoint.
"""

from __future__ import annotations

import math


def optimal_interval_young(delta_s: float, mtbf_s: float) -> float:
    """Young's first-order optimum checkpoint period (compute time between
    checkpoints, not counting the checkpoint itself)."""
    if delta_s <= 0 or mtbf_s <= 0:
        raise ValueError("delta and MTBF must be positive")
    return math.sqrt(2.0 * delta_s * mtbf_s)


def expected_runtime(
    work_s: float, delta_s: float, interval_s: float, mtbf_s: float, restart_s: float
) -> float:
    """First-order expected completion time of ``work_s`` of computation
    with periodic checkpoints under exponential failures — used by the
    interval-ablation benchmark to rank candidate intervals."""
    if min(work_s, delta_s, interval_s, mtbf_s) <= 0:
        raise ValueError("work, delta, interval and MTBF must be positive")
    if restart_s < 0:
        raise ValueError("restart_s must be >= 0")
    n_ckpt = max(1.0, work_s / interval_s)
    base = work_s + n_ckpt * delta_s
    # expected lost work per failure: half an interval plus restart; a
    # failure can never lose more than the whole (shorter-than-interval)
    # run, so the term is clamped to half the total work
    failures = base / mtbf_s
    lost_s = min(interval_s, work_s) / 2.0
    return base + failures * (lost_s + delta_s + restart_s)
