"""Extension: self-checkpoint overhead on the library's other kernels.

The paper reports SKT-HPL at >95% of original HPL (§6.4); this driver
measures the same ratio for the 2-D stencil, CG and n-body kernels on the
live simulator — virtual time with checkpoints vs effectively without.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.apps import (
    CGConfig,
    NBodyConfig,
    StencilConfig,
    cg_main,
    nbody_main,
    stencil_main,
)
from repro.sim import Cluster, Job
from repro.util import render_table

#: (kernel, unit of its checkpoint period, rank main, problem, period, ranks)
_CASES = (
    ("stencil-2d", "steps", stencil_main, StencilConfig(nx=32, ny_per_rank=8, steps=30), 5, 8),
    ("cg", "iters", cg_main, CGConfig(nx=16, ny_per_rank=4), 10, 4),
    ("nbody", "steps", nbody_main, NBodyConfig(bodies_per_rank=8, steps=30), 5, 4),
)
#: a period no run reaches: the no-checkpoint baseline
_NEVER = 1000


def _makespan(main, cfg, n_ranks: int) -> float:
    res = Job(Cluster(n_ranks), main, n_ranks, args=(cfg,), procs_per_node=1).run()
    if not res.completed:
        raise RuntimeError(f"{main.__name__} did not complete: {res.rank_errors}")
    return res.makespan


def apps_overhead() -> List[Dict[str, object]]:
    """Virtual makespan of each kernel without and with periodic
    self-checkpoints (same problem, same rank count)."""
    return [
        {
            "kernel": f"{kernel} (ckpt every {every} {unit})",
            "base_s": _makespan(main, replace(cfg, ckpt_every=_NEVER), n_ranks),
            "with_ckpt_s": _makespan(main, replace(cfg, ckpt_every=every), n_ranks),
        }
        for kernel, unit, main, cfg, every, n_ranks in _CASES
    ]


def render_apps_overhead(rows: List[Dict[str, object]]) -> str:
    return render_table(
        ["kernel", "no-ckpt (virtual s)", "with ckpt (virtual s)", "efficiency"],
        [
            [
                r["kernel"],
                f"{r['base_s']:.4f}",
                f"{r['with_ckpt_s']:.4f}",
                f"{100 * r['base_s'] / r['with_ckpt_s']:.1f}%",
            ]
            for r in rows
        ],
        title="Extension — self-checkpoint overhead on library kernels",
    )
