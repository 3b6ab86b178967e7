"""SKT-HPL: fault-tolerant HPL on the self-checkpoint mechanism (paper §5).

The workflow follows Fig. 9: the local matrix and rhs live in SHM via the
checkpoint manager (they *are* the self-checkpoint workspace A1), the panel
counter rides in A2, and a checkpoint is taken at the end of every
``interval_panels``-th elimination iteration.  After a restart,
``try_restore`` either recovers the workspace (skipping matrix generation —
"SKT-HPL can skip the generation of matrix A and b", §5.2) or reports a
fresh start, in which case the fixed-seed generator refills it.

Back substitution, verification and reporting are not checkpointed — they
take far less time than any realistic MTBF (§5.1).

The same entry point also runs the *other* checkpoint methods of Table 3
(single/double/disk/multilevel) by swapping ``method``, which is how the
comparison benchmark drives all rows through identical code.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

from repro.ckpt.manager import METHODS, CheckpointManager
from repro.hpl import matgen
from repro.hpl.config import HPLConfig, check_int
from repro.hpl.core import HPLResult, hpl_solve, verify
from repro.hpl.grid import BlockCyclicMap, ProcessGrid
from repro.sim.runtime import RankContext


@dataclass(frozen=True)
class SKTConfig:
    """SKT-HPL = an HPL problem + a checkpoint policy.

    With ``auto_interval_mtbf_s`` set, the checkpoint period re-tunes
    itself after every checkpoint from Young's formula,
    ``T_opt = sqrt(2 * delta * MTBF)``, using the *measured* checkpoint
    cost ``delta`` and the observed per-panel time — the paper fixes a
    10-minute period (Table 3); this knob derives it instead.
    """

    hpl: HPLConfig
    method: str = "self"
    group_size: int = 8
    interval_panels: int = 4
    auto_interval_mtbf_s: Optional[float] = None

    def __post_init__(self) -> None:
        # every rank builds its CheckpointManager from these: a bad value
        # would crash all of them at once, far from the mistake
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        check_int("group_size", self.group_size)
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        check_int("interval_panels", self.interval_panels)
        if self.interval_panels < 1:
            raise ValueError(f"interval_panels must be >= 1, got {self.interval_panels}")
        mtbf = self.auto_interval_mtbf_s
        if mtbf is not None:
            if isinstance(mtbf, bool) or not isinstance(mtbf, numbers.Real):
                raise TypeError(f"auto_interval_mtbf_s must be a number, got {mtbf!r}")
            # NaN and inf pass a plain `<= 0` check and poison Young's formula
            if not 0 < mtbf < math.inf:
                raise ValueError(f"auto_interval_mtbf_s must be finite and > 0, got {mtbf!r}")


@dataclass
class SKTResult:
    """Per-rank outcome of an SKT-HPL run."""

    hpl: HPLResult
    restored: bool
    restored_panel: int
    restore_source: Optional[str]
    n_checkpoints: int
    ckpt_encode_s: float
    ckpt_flush_s: float
    overhead_bytes: int


def skt_hpl_main(ctx: RankContext, scfg: SKTConfig) -> SKTResult:
    """Rank main for SKT-HPL (run it under a Job / JobDaemon)."""
    cfg = scfg.hpl
    grid = ProcessGrid(ctx.world, cfg.p, cfg.q)
    rowmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.p)
    colmap = BlockCyclicMap(cfg.n, cfg.nb, cfg.q)
    lrows = rowmap.local_count(grid.myrow)
    lcols = colmap.local_count(grid.mycol)

    mgr = CheckpointManager(
        ctx,
        ctx.world,
        group_size=scfg.group_size,
        method=scfg.method,
        prefix="skt",
    )
    # one workspace, HPL's augmented system: the local A, then the local b
    ab = mgr.alloc("Ab", lrows * lcols + lrows)
    a_loc = ab[: lrows * lcols].reshape(lrows, lcols)
    b_loc = ab[lrows * lcols :]
    mgr.commit()

    report = mgr.try_restore()
    if report is not None:
        start_panel = int(report.local["panel"])
    else:
        start_panel = 0
        with ctx.span("hpl.generate", n=cfg.n, nbytes=int(a_loc.nbytes + b_loc.nbytes)):
            matgen.generate_local_matrix(
                cfg, rowmap, colmap, grid.myrow, grid.mycol, out=a_loc
            )
            matgen.generate_local_rhs(cfg, rowmap, grid.myrow, out=b_loc)

    nbl = cfg.n_blocks
    pace = {
        "interval": scfg.interval_panels,
        "last_ckpt_panel": start_panel,
        "loop_start_clock": None,
        "panels_done": 0,
    }

    def on_panel_end(k: int) -> None:
        if pace["loop_start_clock"] is None:
            pace["loop_start_clock"] = ctx.clock
        pace["panels_done"] += 1
        # checkpoint at the end of the iteration (Fig. 9); skip the last
        # panel — back substitution follows immediately and is cheap
        if k + 1 - pace["last_ckpt_panel"] >= pace["interval"] and k + 1 < nbl:
            mgr.local["panel"] = k + 1
            info = mgr.checkpoint()
            pace["last_ckpt_panel"] = k + 1
            if scfg.auto_interval_mtbf_s is not None:
                from repro.ckpt.interval import optimal_interval_young

                elapsed = max(1e-12, ctx.clock - pace["loop_start_clock"])
                panel_s = elapsed / pace["panels_done"]
                t_opt = optimal_interval_young(
                    max(info.total_seconds, 1e-9), scfg.auto_interval_mtbf_s
                )
                pace["interval"] = max(1, int(round(t_opt / panel_s)))

    t_start = ctx.clock
    x, timers = hpl_solve(
        ctx,
        cfg,
        grid,
        rowmap,
        colmap,
        a_loc,
        b_loc,
        start_panel=start_panel,
        on_panel_end=on_panel_end,
    )
    residual, passed = verify(ctx, cfg, grid, rowmap, colmap, x)
    elapsed = ctx.clock - t_start

    impl = mgr.impl
    return SKTResult(
        hpl=HPLResult(
            config=cfg,
            x=x,
            residual=residual,
            passed=passed,
            elapsed_s=elapsed,
            gflops=cfg.flops / elapsed / 1e9 if elapsed > 0 else 0.0,
            timers=timers,
        ),
        restored=report is not None,
        restored_panel=start_panel,
        restore_source=report.source if report else None,
        n_checkpoints=impl.n_checkpoints,
        ckpt_encode_s=impl.total_encode_seconds,
        ckpt_flush_s=impl.total_flush_seconds,
        overhead_bytes=mgr.overhead_bytes,
    )
