"""Drivers reproducing every table and figure of the paper's evaluation.

Scale strategy (see DESIGN.md): protocol behaviour — who recovers from
which failure — is measured on *live* simulator runs at laptop scale;
paper-scale performance numbers come from the paper's own efficiency model
(section 4) calibrated to the machines of Table 2.  The drivers label each
output value accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.ckpt import (
    HDD,
    SSD,
    available_fraction_double,
    available_fraction_self,
    available_fraction_single,
    memory_breakdown_self,
)
from repro.hpl import (
    HPLConfig,
    RestartPolicy,
    SKTConfig,
    hpl_main,
    skt_hpl_main,
)
from repro.models import (
    LOCAL_CLUSTER,
    SCALED_TESTBED,
    TIANHE_1A,
    TIANHE_2,
    TOP10_NOV2016,
    EfficiencyModel,
    fit_efficiency_model,
    problem_size_for_memory,
)
from repro.models.ckpt_cost import encode_time, flush_time, recovery_time
from repro.sim import Cluster, Job, PhaseTrigger
from repro.util import GiB, fmt_bytes, render_table

# --------------------------------------------------------------------------
# Figure 6 — available memory vs group size
# --------------------------------------------------------------------------


def fig6_available_memory(
    group_sizes: Sequence[int] = (2, 3, 4, 8, 16, 32),
) -> List[Dict[str, float]]:
    """Available-memory percentage of the three schemes (paper Fig. 6)."""
    return [
        {
            "group_size": n,
            "single": 100.0 * available_fraction_single(n),
            "self": 100.0 * available_fraction_self(n),
            "double": 100.0 * available_fraction_double(n),
        }
        for n in group_sizes
    ]


def render_fig6(rows: List[Dict[str, float]]) -> str:
    return render_table(
        ["group size", "single-ckpt %", "self-ckpt %", "double-ckpt %"],
        [
            [r["group_size"], f"{r['single']:.1f}", f"{r['self']:.1f}", f"{r['double']:.1f}"]
            for r in rows
        ],
        title="Fig. 6 — available memory vs group size",
    )


# --------------------------------------------------------------------------
# Figure 7 — efficiency model fit against live simulator runs
# --------------------------------------------------------------------------


@dataclass
class ModelFit:
    sizes: List[int]
    measured: List[float]
    model: EfficiencyModel
    r_squared: float


def _run_hpl_efficiency(cfg: HPLConfig) -> float:
    """One live HPL run on the scaled testbed; returns achieved/peak
    efficiency in virtual time."""
    machine = SCALED_TESTBED
    cluster = Cluster(
        machine.nodes_for_ranks(cfg.n_ranks), machine.node
    )
    job = Job(
        cluster,
        lambda ctx: hpl_main(ctx, cfg),
        cfg.n_ranks,
        procs_per_node=machine.node.cores,
    )
    res = job.run()
    if not res.completed:
        raise RuntimeError(f"HPL run failed: {res.rank_errors}")
    peak = cfg.n_ranks * machine.node.flops_per_core
    return cfg.flops / res.makespan / peak


def fig7_model_fit(sizes: Sequence[int] = (96, 128, 192, 256, 384)) -> ModelFit:
    """Measure HPL efficiency over problem sizes on the live simulator (a
    2x4 grid, nb 16, the scaled testbed) and fit E(N) = N/(aN+b) —
    reproducing Fig. 7's fit-vs-data comparison (memory-per-core on the x
    axis is N^2 scaled; the model is the same).
    """
    measured = []
    for n in sizes:
        cfg = HPLConfig(n=n, nb=16, p=2, q=4)
        measured.append(_run_hpl_efficiency(cfg))
    model = fit_efficiency_model(list(sizes), measured)
    from repro.models.efficiency import fit_quality

    return ModelFit(
        sizes=list(sizes),
        measured=measured,
        model=model,
        r_squared=fit_quality(model, list(sizes), measured),
    )


def render_fig7(fit: ModelFit) -> str:
    rows = [
        [n, f"{e * 100:.2f}", f"{fit.model.efficiency(n) * 100:.2f}"]
        for n, e in zip(fit.sizes, fit.measured)
    ]
    table = render_table(
        ["N", "measured eff %", "model eff %"],
        rows,
        title=(
            "Fig. 7 — efficiency model fit "
            f"(a={fit.model.a:.3f}, b={fit.model.b:.1f}, R^2={fit.r_squared:.4f})"
        ),
    )
    return table


# --------------------------------------------------------------------------
# Figure 8 — TOP-10 projection at reduced memory
# --------------------------------------------------------------------------


def fig8_top10_projection() -> List[Dict[str, float]]:
    rows = []
    for s in TOP10_NOV2016:
        rows.append(
            {
                "system": s.name,
                "original": 100.0 * s.efficiency,
                "k=1/2": 100.0 * s.projected_efficiency(0.5),
                "k=1/3": 100.0 * s.projected_efficiency(1.0 / 3.0),
            }
        )
    return rows


def render_fig8(rows: List[Dict[str, float]]) -> str:
    return render_table(
        ["system", "original %", "k=1/2 %", "k=1/3 %"],
        [
            [r["system"], f"{r['original']:.1f}", f"{r['k=1/2']:.1f}", f"{r['k=1/3']:.1f}"]
            for r in rows
        ],
        title="Fig. 8 — modeled HPL efficiency of the TOP-10 at reduced memory",
    )


# --------------------------------------------------------------------------
# Table 2 — node configurations of the two machines
# --------------------------------------------------------------------------


def table2_node_configs() -> List[Dict[str, object]]:
    """The machine data of paper Table 2 (plus the port-sharing ratios from
    §6.6 that Fig. 13 depends on)."""
    rows = []
    for m in (TIANHE_1A, TIANHE_2):
        rows.append(
            {
                "machine": m.name,
                "cores": m.node.cores,
                "peak_gflops": m.node.flops / 1e9,
                "mem_bytes": m.node.mem_bytes,
                "p2p_bw_GBps": m.node.net.bandwidth_Bps / 1e9,
                "procs_per_port": m.node.net.procs_per_port,
                "paper_ranks": m.paper_ranks,
            }
        )
    return rows


def render_table2(rows: List[Dict[str, object]]) -> str:
    return render_table(
        [
            "machine",
            "cores",
            "peak (GFLOPS)",
            "memory",
            "P2P BW (GB/s)",
            "procs/port",
            "paper ranks",
        ],
        [
            [
                r["machine"],
                r["cores"],
                f"{r['peak_gflops']:.1f}",
                fmt_bytes(r["mem_bytes"]),
                f"{r['p2p_bw_GBps']:.1f}",
                r["procs_per_port"],
                r["paper_ranks"],
            ]
            for r in rows
        ],
        title="Table 2 — node configuration of Tianhe-1A and Tianhe-2",
    )


# --------------------------------------------------------------------------
# Table 1 — memory breakdown of self-checkpoint
# --------------------------------------------------------------------------


def table1_memory_breakdown(
    workspace_bytes: int = GiB, group_size: int = 16
) -> Dict[str, object]:
    bd = memory_breakdown_self(workspace_bytes, group_size)
    return {
        "A1+A2": bd.workspace,
        "B": bd.checkpoint,
        "C": bd.checksum_old,
        "D": bd.checksum_new,
        "total": bd.total,
        "available_fraction": bd.available_fraction,
    }


def render_table1(row: Dict[str, object]) -> str:
    n_cols = ["A1+A2", "B", "C", "D", "total"]
    return render_table(
        ["item"] + n_cols + ["available"],
        [
            ["size"]
            + [fmt_bytes(row[c]) for c in n_cols]
            + [f"{100 * row['available_fraction']:.1f}%"]
        ],
        title="Table 1 — self-checkpoint memory usage per process",
    )


# --------------------------------------------------------------------------
# Table 3 — method comparison (the paper's main table)
# --------------------------------------------------------------------------


@dataclass
class Table3Row:
    method: str
    problem_size: int
    runtime_s: float  # modeled, no checkpoints
    ckpt_time_s: float  # modeled time per checkpoint
    n_checkpoints: int
    gflops: float  # modeled, with checkpoints
    available_mem_gb: float
    normalized_efficiency: float
    survives_poweroff: bool  # from the live simulator run


#: ABFT overhead calibration: "inversely proportional to the number of
#: processes" (paper section 6.2); 21.4% at 128 processes pins the constant.
_ABFT_OVERHEAD_AT_128 = 0.214


def _abft_overhead(n_ranks: int) -> float:
    return _ABFT_OVERHEAD_AT_128 * 128.0 / n_ranks


def _live_poweroff_check(method: str) -> bool:
    """Small live SKT-HPL run with a node powered off mid-checkpoint:
    does the method recover and pass verification?"""
    from repro.chaos.campaign import run_with_triggers
    from repro.chaos.scenarios import skt_scenario

    scenario = skt_scenario(
        n=64,
        nb=8,
        p=2,
        q=4,
        group_size=2 if method == "buddy" else 4,
        interval_panels=2,
        method=method,
        n_spares=2,
        policy=RestartPolicy(max_restarts=2),
    )
    # aim the power-off at each protocol's own checkpoint-update window
    phase = {
        "self": "ckpt.flush",
        "double": "ckpt.update.mid",
        "single": "ckpt.update.mid",
        "multilevel": "ckpt.update.mid",
    }.get(method, "ckpt.flush")
    _, _, report = run_with_triggers(
        scenario, [PhaseTrigger(node_id=3, phase=phase, occurrence=2)]
    )
    if not report.completed:
        return False
    r0 = report.result.rank_results[0]
    # surviving means: recovered mid-run state (not a from-scratch rerun)
    # and passed verification
    return bool(r0.hpl.passed and r0.restored)


def table3_method_comparison() -> List[Table3Row]:
    """Reproduce Table 3's comparison: 128 ranks of 4 GiB on the local
    cluster, groups of 8, a checkpoint every 10 minutes.

    Performance columns come from the efficiency model calibrated to the
    local cluster (full-memory efficiency pins ``b`` given ``a``); the
    "survives power-off" column is measured by live fail/restart runs.
    """
    n_ranks, mem_per_rank, group_size = 128, 4 * GiB, 8
    ckpt_period_s = 600.0
    machine, model_a = LOCAL_CLUSTER, 1.15
    total_mem = n_ranks * mem_per_rank
    n_full = problem_size_for_memory(total_mem, 0.8)
    e1 = machine.full_memory_efficiency
    b = (1.0 - model_a * e1) * n_full / e1
    model = EfficiencyModel(a=model_a, b=b)
    peak = n_ranks * machine.node.flops_per_core
    sharing = machine.node.cores

    def runtime(n: int) -> float:
        return model.runtime(n, peak)

    def gflops_with(n: int, ckpt_s: float, overhead_frac: float = 0.0) -> Tuple[float, int]:
        base = runtime(n) * (1.0 + overhead_frac)
        n_ckpt = int(base // ckpt_period_s) if ckpt_s > 0 else 0
        total = base + n_ckpt * ckpt_s
        work = (2.0 / 3.0) * n**3 + 1.5 * n**2
        return work / total / 1e9, n_ckpt

    mem_frac = {
        "Original HPL": 1.0,
        "ABFT": 0.82,  # checksum replicas (paper used N=212224 vs 234240)
        "BLCR+HDD": 1.0,
        "BLCR+SSD": 1.0,
        "SCR+Memory": available_fraction_double(group_size) / 0.8,
        "SKT-HPL": available_fraction_self(group_size) / 0.8,
    }
    # fractions above are relative to the 80%-fill baseline so that
    # problem sizes follow N_method = sqrt(frac) * N_full

    live = {
        "Original HPL": False,  # no checkpoint: a node loss kills the run
        "ABFT": False,  # state dies with the processes (section 6.2)
        "BLCR+HDD": _live_poweroff_check("disk-hdd"),
        "BLCR+SSD": _live_poweroff_check("disk-ssd"),
        "SCR+Memory": _live_poweroff_check("double"),
        "SKT-HPL": _live_poweroff_check("self"),
    }

    rows: List[Table3Row] = []
    for method, frac in mem_frac.items():
        n = int(math.sqrt(frac) * n_full)
        workspace = int(mem_per_rank * 0.8 * frac)
        if method == "Original HPL":
            ckpt_s, overhead = 0.0, 0.0
        elif method == "ABFT":
            ckpt_s, overhead = 0.0, _abft_overhead(n_ranks)
        elif method == "BLCR+HDD":
            ckpt_s, overhead = HDD.write_time(workspace, sharing), 0.0
        elif method == "BLCR+SSD":
            ckpt_s, overhead = SSD.write_time(workspace, sharing), 0.0
        else:  # in-memory encodes
            ckpt_s = encode_time(machine, group_size, workspace) + flush_time(
                machine, workspace
            )
            overhead = 0.0
        gf, n_ckpt = gflops_with(n, ckpt_s, overhead)
        rows.append(
            Table3Row(
                method=method,
                problem_size=n,
                runtime_s=runtime(n),
                ckpt_time_s=ckpt_s,
                n_checkpoints=n_ckpt,
                gflops=gf,
                available_mem_gb=workspace / GiB,
                normalized_efficiency=0.0,  # filled below
                survives_poweroff=live[method],
            )
        )
    base_gf = rows[0].gflops
    for r in rows:
        r.normalized_efficiency = r.gflops / base_gf
    return rows


def render_table3(rows: List[Table3Row]) -> str:
    return render_table(
        [
            "method",
            "problem size",
            "runtime (s)",
            "ckpt time (s)",
            "GFLOPS (#ckpt)",
            "avail mem (GB)",
            "norm eff",
            "recovers?",
        ],
        [
            [
                r.method,
                r.problem_size,
                f"{r.runtime_s:.0f}",
                f"{r.ckpt_time_s:.2f}" if r.ckpt_time_s else "-",
                f"{r.gflops:.0f} ({r.n_checkpoints})",
                f"{r.available_mem_gb:.2f}",
                f"{100 * r.normalized_efficiency:.2f}%",
                "YES" if r.survives_poweroff else "NO",
            ]
            for r in rows
        ],
        title="Table 3 — fault-tolerant HPL method comparison",
    )


@dataclass
class LiveMethodRow:
    method: str
    elapsed_virtual_s: float
    ckpt_seconds: float
    normalized_efficiency: float
    overhead_bytes: int
    survives_poweroff: bool


def table3_live_miniature() -> List[LiveMethodRow]:
    """A fully *live* miniature of Table 3: every method actually runs the
    distributed HPL end-to-end on the simulator (no analytic modeling; N 96,
    nb 8, a 2x4 grid, groups of 4, a checkpoint every 3 panels), reporting
    virtual elapsed time, checkpoint cost, memory overhead, and measured
    power-off survival.

    Complements :func:`table3_method_comparison`, whose performance columns
    are model-scale; here everything — including who wins — is measured.
    """
    cfg = HPLConfig(n=96, nb=8, p=2, q=4)
    methods = [
        ("Original HPL", None),
        ("SKT-HPL (self)", "self"),
        ("double", "double"),
        ("buddy(2)", "buddy"),
        ("BLCR+HDD", "disk-hdd"),
        ("BLCR+SSD", "disk-ssd"),
    ]
    rows: List[LiveMethodRow] = []
    for label, method in methods:
        cluster = Cluster(cfg.n_ranks)
        if method is None:
            res = Job(
                cluster,
                lambda ctx: hpl_main(ctx, cfg),
                cfg.n_ranks,
                procs_per_node=1,
            ).run()
            if not res.completed:
                raise RuntimeError(res.rank_errors)
            rows.append(
                LiveMethodRow(
                    method=label,
                    elapsed_virtual_s=res.makespan,
                    ckpt_seconds=0.0,
                    normalized_efficiency=1.0,
                    overhead_bytes=0,
                    survives_poweroff=False,
                )
            )
            continue
        scfg = SKTConfig(
            hpl=cfg,
            method=method,
            group_size=2 if method == "buddy" else 4,
            interval_panels=3,
        )
        res = Job(
            cluster, skt_hpl_main, cfg.n_ranks, args=(scfg,), procs_per_node=1
        ).run()
        if not res.completed:
            raise RuntimeError(res.rank_errors)
        r0 = res.rank_results[0]
        rows.append(
            LiveMethodRow(
                method=label,
                elapsed_virtual_s=res.makespan,
                ckpt_seconds=r0.ckpt_encode_s + r0.ckpt_flush_s,
                normalized_efficiency=0.0,
                overhead_bytes=r0.overhead_bytes,
                survives_poweroff=_live_poweroff_check(method),
            )
        )
    base = rows[0].elapsed_virtual_s
    for r in rows:
        r.normalized_efficiency = base / r.elapsed_virtual_s
    return rows


def render_table3_live(rows: List[LiveMethodRow]) -> str:
    return render_table(
        [
            "method",
            "elapsed (virtual s)",
            "ckpt time (s)",
            "norm eff",
            "RAM overhead",
            "recovers?",
        ],
        [
            [
                r.method,
                f"{r.elapsed_virtual_s:.4f}",
                f"{r.ckpt_seconds:.4f}" if r.ckpt_seconds else "-",
                f"{100 * r.normalized_efficiency:.2f}%",
                fmt_bytes(r.overhead_bytes),
                "YES" if r.survives_poweroff else "NO",
            ]
            for r in rows
        ],
        title="Table 3 (live miniature) — all methods raced on the simulator",
    )


# --------------------------------------------------------------------------
# Figure 10 — work-fail-detect-restart cycle timing
# --------------------------------------------------------------------------


@dataclass
class CycleTiming:
    checkpoint_s: float
    detect_s: float
    replace_s: float
    restart_s: float
    recover_s: float
    #: live-measured virtual spans from the traced small-scale cycle
    live_checkpoint_s: float
    live_recover_s: float


def fig10_restart_cycle() -> CycleTiming:
    """Phase times of one failure cycle (Fig. 10).

    Detect/replace/restart are daemon policy values (the paper measures 63,
    10 and 9 s on Tianhe-2); checkpoint and recovery times come from the
    cost model at paper scale (Tianhe-2, groups of 8).  A traced
    small-scale fail/restart cycle runs too, and its *measured* virtual
    checkpoint and recovery spans are reported alongside — the same
    "recovery takes a little longer than a checkpoint" relation must hold
    there.
    """
    from repro.chaos.campaign import run_with_triggers
    from repro.chaos.scenarios import skt_scenario
    from repro.obs.report import aggregate_by_name
    from repro.obs.spans import SpanTracer

    policy = RestartPolicy()
    scenario = skt_scenario(
        n=64,
        nb=8,
        p=2,
        q=4,
        group_size=4,
        interval_panels=2,
        n_spares=1,
        policy=policy,
    )
    tracer = SpanTracer()
    _, _, report = run_with_triggers(
        scenario,
        [PhaseTrigger(node_id=2, phase="ckpt.done", occurrence=2)],
        tracer=tracer,
    )
    if not (report.completed and report.n_restarts == 1):
        raise RuntimeError("live restart cycle failed")
    # spans of any status: the kill lands on ckpt.done, when the
    # doomed attempt's second checkpoint has already done its work
    mean_s = {
        name: mean for name, _, _, mean, _ in aggregate_by_name(tracer.spans())
    }
    return CycleTiming(
        checkpoint_s=encode_time(TIANHE_2, 8),
        detect_s=policy.detect_s,
        replace_s=policy.replace_s,
        restart_s=policy.restart_s,
        recover_s=recovery_time(TIANHE_2, 8),
        live_checkpoint_s=mean_s["ckpt"],
        live_recover_s=mean_s["restore"],
    )


def render_fig10(t: CycleTiming) -> str:
    table = render_table(
        ["phase", "seconds"],
        [
            ["checkpoint", f"{t.checkpoint_s:.1f}"],
            ["detect the failure / kill job", f"{t.detect_s:.1f}"],
            ["replace lost nodes by spares", f"{t.replace_s:.1f}"],
            ["restart SKT-HPL", f"{t.restart_s:.1f}"],
            ["recover data", f"{t.recover_s:.1f}"],
        ],
        title="Fig. 10 — work-fail-detect-restart cycle phases (Tianhe-2 scale)",
    )
    return table + (
        f"\nlive small-scale cycle (traced, virtual time): checkpoint "
        f"{t.live_checkpoint_s * 1e3:.3f} ms, recovery "
        f"{t.live_recover_s * 1e3:.3f} ms"
    )


# --------------------------------------------------------------------------
# Figure 11 — original HPL vs SKT-HPL efficiency on both machines
# --------------------------------------------------------------------------


def fig11_skt_efficiency() -> List[Dict[str, float]]:
    """Original-HPL vs SKT-HPL efficiency (Fig. 11).

    SKT-HPL runs at the self-checkpoint memory fraction (47% at group 16 on
    Tianhe-1A, 44% at group 8 on Tianhe-2 — section 6.4); its efficiency
    follows the reduced-memory model from the machine's full-memory point.
    """
    from repro.models.efficiency import (
        efficiency_at_memory_fraction,
        efficiency_lower_bound,
    )

    model_a = 1.05
    rows = []
    for m, g in ((TIANHE_1A, 16), (TIANHE_2, 8)):
        k = available_fraction_self(g)
        e1 = m.full_memory_efficiency
        # exact model value with a calibrated `a`; Eq. 8's bound guarantees
        # at least the lower-bound value
        n1 = problem_size_for_memory(
            m.paper_ranks * m.node.mem_per_core, 0.8
        )
        b = (1.0 - model_a * e1) * n1 / e1
        model = EfficiencyModel(a=model_a, b=b)
        e2 = efficiency_at_memory_fraction(model, n1, k)
        rows.append(
            {
                "machine": m.name,
                "original": 100.0 * e1,
                "skt": 100.0 * e2,
                "skt_vs_original": 100.0 * e2 / e1,
                "lower_bound": 100.0 * efficiency_lower_bound(e1, k),
                "memory_fraction": 100.0 * k,
            }
        )
    return rows


def render_fig11(rows: List[Dict[str, float]]) -> str:
    return render_table(
        ["machine", "original eff %", "SKT-HPL eff %", "SKT/original %", "mem %"],
        [
            [
                r["machine"],
                f"{r['original']:.2f}",
                f"{r['skt']:.2f}",
                f"{r['skt_vs_original']:.2f}",
                f"{r['memory_fraction']:.0f}",
            ]
            for r in rows
        ],
        title="Fig. 11 — original HPL vs SKT-HPL efficiency",
    )


# --------------------------------------------------------------------------
# Figure 12 — normalized efficiency vs memory fraction (model + live sim)
# --------------------------------------------------------------------------


@dataclass
class MemorySweepPoint:
    memory_fraction: float
    n: int
    measured_norm_eff: float
    model_norm_eff: float


def fig12_memory_vs_efficiency(
    fractions: Sequence[float] = (0.125, 0.2, 0.3, 0.44, 0.5),
) -> List[MemorySweepPoint]:
    """Live-simulator sweep of HPL efficiency vs memory fraction (N 384 at
    full memory, nb 16, a 2x4 grid, the scaled testbed), compared to the
    model's prediction normalized at the full-memory point."""
    n_full, nb, p, q = 384, 16, 2, 4
    e_full = _run_hpl_efficiency(HPLConfig(n=n_full, nb=nb, p=p, q=q))
    # calibrate the model from two live points (full and half memory)
    n_half = int(math.sqrt(0.5) * n_full)
    e_half = _run_hpl_efficiency(HPLConfig(n=n_half, nb=nb, p=p, q=q))
    model = fit_efficiency_model([n_full, n_half], [e_full, e_half])

    points = []
    for k in fractions:
        n = max(nb, int(math.sqrt(k) * n_full))
        e = _run_hpl_efficiency(HPLConfig(n=n, nb=nb, p=p, q=q))
        points.append(
            MemorySweepPoint(
                memory_fraction=k,
                n=n,
                measured_norm_eff=e / e_full,
                model_norm_eff=model.efficiency(n) / model.efficiency(n_full),
            )
        )
    return points


def render_fig12(points: List[MemorySweepPoint]) -> str:
    return render_table(
        ["memory %", "N", "measured norm eff %", "model norm eff %"],
        [
            [
                f"{100 * p.memory_fraction:.0f}",
                p.n,
                f"{100 * p.measured_norm_eff:.2f}",
                f"{100 * p.model_norm_eff:.2f}",
            ]
            for p in points
        ],
        title="Fig. 12 — normalized efficiency vs memory used for computation",
    )


# --------------------------------------------------------------------------
# Figure 13 — encoding time and checkpoint size vs group size
# --------------------------------------------------------------------------


def fig13_encoding_cost() -> List[Dict[str, float]]:
    """Checkpoint size and encode time per machine (Tianhe-1A, Tianhe-2)
    and group size (4, 8, 16)."""
    from repro.models.ckpt_cost import checkpoint_size_per_process

    rows = []
    for m in (TIANHE_1A, TIANHE_2):
        for g in (4, 8, 16):
            size = checkpoint_size_per_process(m, g)
            rows.append(
                {
                    "machine": m.name,
                    "group_size": g,
                    "ckpt_bytes": size,
                    "encode_s": encode_time(m, g, size),
                }
            )
    return rows


def render_fig13(rows: List[Dict[str, float]]) -> str:
    return render_table(
        ["machine", "group size", "ckpt size", "encode time (s)"],
        [
            [
                r["machine"],
                r["group_size"],
                fmt_bytes(r["ckpt_bytes"]),
                f"{r['encode_s']:.2f}",
            ]
            for r in rows
        ],
        title="Fig. 13 — encoding time and checkpoint size vs group size",
    )
