"""Ablations of the design choices DESIGN.md calls out.

* group size: memory vs encode time vs reliability (paper §3.3's triangle);
* checkpoint interval: Young optimum vs fixed periods;
* XOR vs SUM encoding: cost and bit-exactness (paper §2.2);
* stripe-rotating vs single-root encode: the contention argument of §2.1;
* double parity (the RAID-6 extension of §2.1): memory vs failure tolerance.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.ckpt import (
    GroupEncoder,
    available_fraction_self,
    available_fraction_self_rs,
    expected_runtime,
    group_reliability,
    optimal_interval_young,
)
from repro.models import TIANHE_2, MachineSpec
from repro.models.ckpt_cost import checkpoint_size_per_process, encode_time
from repro.sim import Cluster, Job
from repro.util import render_table


# --------------------------------------------------------------------------
# group size
# --------------------------------------------------------------------------


def ablation_group_size(
    group_sizes: Sequence[int] = (2, 4, 8, 16, 32),
    machine: MachineSpec = TIANHE_2,
    p_node_fail: float = 0.01,
) -> List[Dict[str, float]]:
    """The three-way trade-off that drives the paper's choice of 16."""
    rows = []
    for g in group_sizes:
        mem = available_fraction_self(g)
        t = encode_time(machine, g, checkpoint_size_per_process(machine, g))
        rel = group_reliability(g, max(1, 1024 // g), p_node_fail)
        rows.append(
            {
                "group_size": g,
                "available_mem_pct": 100.0 * mem,
                "encode_s": t,
                "p_system_ok": rel["p_system_ok"],
            }
        )
    return rows


def render_group_size(rows: List[Dict[str, float]]) -> str:
    return render_table(
        ["group size", "avail mem %", "encode (s)", "P[interval survives]"],
        [
            [
                r["group_size"],
                f"{r['available_mem_pct']:.1f}",
                f"{r['encode_s']:.2f}",
                f"{r['p_system_ok']:.4f}",
            ]
            for r in rows
        ],
        title="Ablation — group size: memory vs encode cost vs reliability",
    )


# --------------------------------------------------------------------------
# checkpoint interval
# --------------------------------------------------------------------------


def ablation_interval(
    work_s: float = 8 * 3600.0,
    delta_s: float = 16.0,
    mtbf_s: float = 4 * 3600.0,
    restart_s: float = 102.0,
    candidates: Sequence[float] = (60, 300, 600, 1200, 3600, 7200),
) -> List[Dict[str, float]]:
    """Expected completion time for candidate intervals vs the Young
    optimum (Table 3 uses a fixed 10-minute period)."""
    rows = []
    t_young = optimal_interval_young(delta_s, mtbf_s)
    for t in list(candidates) + [t_young]:
        rows.append(
            {
                "interval_s": t,
                "expected_runtime_s": expected_runtime(
                    work_s, delta_s, t, mtbf_s, restart_s
                ),
                "is_young_optimum": t == t_young,
            }
        )
    return sorted(rows, key=lambda r: r["interval_s"])


def render_interval(rows: List[Dict[str, float]]) -> str:
    return render_table(
        ["interval (s)", "expected runtime (s)", "Young optimum?"],
        [
            [
                f"{r['interval_s']:.0f}",
                f"{r['expected_runtime_s']:.0f}",
                "<-- optimum" if r["is_young_optimum"] else "",
            ]
            for r in rows
        ],
        title="Ablation — checkpoint interval",
    )


# --------------------------------------------------------------------------
# XOR vs SUM
# --------------------------------------------------------------------------


def ablation_encoding_op(
    data_words: int = 3 * 4096, group_size: int = 4
) -> Dict[str, Dict[str, float]]:
    """Live encode/recover with both operators; reports reconstruction
    error (XOR must be bit exact, SUM loses ulps) and encode wall time.
    """

    def main(ctx, op):
        comm = ctx.world
        enc = GroupEncoder(comm, op=op)
        rng = np.random.default_rng(comm.rank)
        flat = (
            rng.standard_normal(data_words)
            .astype(np.float64)
            .view(np.uint8)
            .copy()
        )
        res = enc.encode(flat)
        if comm.rank == 1:
            got = enc.recover(None, None, missing=1)
            ref = (
                np.random.default_rng(1)
                .standard_normal(data_words)
                .astype(np.float64)
                .view(np.uint8)
                .copy()
            )
            err = float(
                np.max(
                    np.abs(got[0].view(np.float64) - ref.view(np.float64))
                )
            )
            return {"seconds": res.seconds, "max_error": err}
        enc.recover(flat, res.checksum, missing=1)
        return {"seconds": res.seconds, "max_error": 0.0}

    out = {}
    for op in ("xor", "sum"):
        cluster = Cluster(group_size)
        res = Job(
            cluster,
            lambda ctx, o=op: main(ctx, o),
            group_size,
            procs_per_node=1,
        ).run()
        if not res.completed:
            raise RuntimeError(res.rank_errors)
        out[op] = res.rank_results[1]
    return out


def render_encoding_op(result: Dict[str, Dict[str, float]]) -> str:
    return render_table(
        ["operator", "encode (modeled s)", "reconstruction max error"],
        [
            [op, f"{v['seconds']:.4f}", f"{v['max_error']:.3e}"]
            for op, v in result.items()
        ],
        title="Ablation — XOR vs SUM encoding",
    )


# --------------------------------------------------------------------------
# group mapping vs rack topology (paper §3.3's future work)
# --------------------------------------------------------------------------


def ablation_rack_mapping(
    n_nodes: int = 32,
    nodes_per_rack: int = 8,
    group_size: int = 4,
    machine: MachineSpec = TIANHE_2,
) -> List[Dict[str, object]]:
    """Performance vs reliability of group-to-rack mappings.

    For each strategy: the group's effective encode bandwidth (intra-rack
    traffic is fast, cross-rack pays the switch penalty), the modeled
    encode time scaled accordingly, and whether a single rack/switch loss
    stays within the code's tolerance (<= 1 member per group).
    """
    from repro.ckpt.grouping import partition_groups
    from repro.sim.topology import Topology

    topo = Topology(nodes_per_rack=nodes_per_rack)
    ranklist = list(range(n_nodes))  # one rank per node
    base_encode = encode_time(
        machine, group_size, checkpoint_size_per_process(machine, group_size)
    )
    rows = []
    for strategy in ("block", "stride", "rack-spread"):
        layout = partition_groups(
            n_nodes,
            group_size,
            strategy=strategy,
            ranklist=ranklist if strategy != "block" else None,
            topology=topo,
        )
        factors = [
            topo.encode_bw_factor(g, ranklist) for g in layout.groups
        ]
        worst_exposure = max(
            topo.max_members_in_one_rack(g, ranklist) for g in layout.groups
        )
        bw = min(factors)
        rows.append(
            {
                "strategy": strategy,
                "encode_bw_factor": bw,
                "encode_s": base_encode / bw,
                "max_group_members_per_rack": worst_exposure,
                "survives_rack_loss": worst_exposure <= 1,
            }
        )
    return rows


def render_rack_mapping(rows: List[Dict[str, object]]) -> str:
    return render_table(
        [
            "strategy",
            "encode bw factor",
            "encode (s)",
            "worst members/rack",
            "survives rack loss?",
        ],
        [
            [
                r["strategy"],
                f"{r['encode_bw_factor']:.2f}",
                f"{r['encode_s']:.2f}",
                r["max_group_members_per_rack"],
                "YES" if r["survives_rack_loss"] else "NO",
            ]
            for r in rows
        ],
        title="Ablation — group mapping vs rack topology (performance/reliability)",
    )


# --------------------------------------------------------------------------
# incremental vs self-checkpoint across dirty fractions
# --------------------------------------------------------------------------


def ablation_incremental(
    dirty_strides: Sequence[int] = (1, 2, 8),
    pages: int = 16,
    iters: int = 4,
) -> List[Dict[str, float]]:
    """Checkpoint cost of the incremental baseline vs self-checkpoint as a
    function of the application's dirty footprint.

    ``dirty_stride = s`` means 1/s of the pages change between checkpoints;
    ``s = 1`` is the HPL-like full-footprint case the paper uses to rule
    incremental checkpointing out (§1).
    """
    from repro.ckpt import CheckpointManager

    page_floats = 512  # 4096-byte pages

    def run(method: str, stride: int) -> Dict[str, float]:
        def app(ctx):
            mgr = CheckpointManager(
                ctx, ctx.world, group_size=4, method=method
            )
            a = mgr.alloc("data", pages * page_floats)
            mgr.commit()
            mgr.try_restore()
            for it in range(iters):
                for p in range(0, pages, stride):
                    a[p * page_floats] += 1.0
                mgr.local["it"] = it + 1
                mgr.checkpoint()
            return {
                "encode_s": mgr.impl.total_encode_seconds,
                "flush_s": mgr.impl.total_flush_seconds,
                "overhead": mgr.overhead_bytes,
            }

        cluster = Cluster(8)
        res = Job(cluster, app, 8, procs_per_node=1).run()
        if not res.completed:
            raise RuntimeError(res.rank_errors)
        return res.rank_results[0]

    rows = []
    for stride in dirty_strides:
        inc = run("incremental", stride)
        full = run("self", stride)
        rows.append(
            {
                "dirty_fraction": 1.0 / stride,
                "incremental_ckpt_s": inc["encode_s"] + inc["flush_s"],
                "self_ckpt_s": full["encode_s"] + full["flush_s"],
                "incremental_overhead_bytes": inc["overhead"],
                "self_overhead_bytes": full["overhead"],
            }
        )
    return rows


def render_incremental(rows: List[Dict[str, float]]) -> str:
    return render_table(
        [
            "dirty fraction",
            "incremental ckpt (s)",
            "self ckpt (s)",
            "incr mem (B)",
            "self mem (B)",
        ],
        [
            [
                f"{100 * r['dirty_fraction']:.0f}%",
                f"{r['incremental_ckpt_s']:.2e}",
                f"{r['self_ckpt_s']:.2e}",
                r["incremental_overhead_bytes"],
                r["self_overhead_bytes"],
            ]
            for r in rows
        ],
        title="Ablation — incremental vs self-checkpoint by dirty footprint",
    )


# --------------------------------------------------------------------------
# stripe-rotating vs single-root encode
# --------------------------------------------------------------------------


def ablation_stripe_vs_single_root(
    group_sizes: Sequence[int] = (4, 8, 16),
    machine: MachineSpec = TIANHE_2,
) -> List[Dict[str, float]]:
    """Modeled encode time of the paper's stripe scheme vs the naive
    rotating sequence of whole-buffer single-root reduces."""
    from repro.sim.netmodel import NetworkModel

    net = NetworkModel(machine.node.net)
    rows = []
    for g in group_sizes:
        size = checkpoint_size_per_process(machine, g)
        rows.append(
            {
                "group_size": g,
                "stripe_s": net.stripe_encode_time(size, g),
                "single_root_s": g * net.single_root_encode_time(size, g),
            }
        )
    return rows


def render_stripe_vs_single(rows: List[Dict[str, float]]) -> str:
    return render_table(
        ["group size", "stripe encode (s)", "single-root encode (s)", "speedup"],
        [
            [
                r["group_size"],
                f"{r['stripe_s']:.2f}",
                f"{r['single_root_s']:.2f}",
                f"{r['single_root_s'] / r['stripe_s']:.1f}x",
            ]
            for r in rows
        ],
        title="Ablation — stripe-rotating vs single-root group encode",
    )


# --------------------------------------------------------------------------
# double parity (RAID-6) vs single parity
# --------------------------------------------------------------------------


def ablation_double_parity(
    group_sizes: Sequence[int] = (4, 8, 16, 32),
) -> List[Dict[str, float]]:
    """The RAID-6 extension (paper §2.1): the memory a second parity stripe
    costs for tolerating any two losses per group instead of one."""
    return [
        {
            "group_size": g,
            "self_pct": 100 * available_fraction_self(g),
            "self_rs_pct": 100 * available_fraction_self_rs(g),
        }
        for g in group_sizes
    ]


def render_double_parity(rows: List[Dict[str, float]]) -> str:
    return render_table(
        ["group", "self mem %", "self-rs mem %", "self tolerates", "self-rs tolerates"],
        [
            [
                r["group_size"],
                f"{r['self_pct']:.1f}",
                f"{r['self_rs_pct']:.1f}",
                f"1 per {r['group_size']}",
                f"any 2 per {r['group_size']}",
            ]
            for r in rows
        ],
        title="Ablation — double-parity (RAID-6) self-checkpoint",
    )
