"""Reliability projections: the exascale motivation quantified.

The paper's opening argument: "a large-scale system's mean time between
failures may be too short to afford a complete fault-free run" — Blue
Waters and Titan see failures daily, and the problem worsens toward
exascale.  This module turns that argument into numbers:

* the probability a run of a given duration completes fault-free on a
  system of ``n`` nodes with per-node MTBF ``m`` (exponential model),
* the expected number of failures during a run,
* the grouped-checkpoint survival probability per checkpoint interval
  (building on :func:`repro.ckpt.grouping.group_reliability`),
* a scale sweep showing where fault-free HPL becomes hopeless — the
  regime SKT-HPL is built for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.ckpt.grouping import group_reliability


def p_fault_free(run_s: float, n_nodes: int, mtbf_node_s: float) -> float:
    """P[no node fails during the run] under i.i.d. exponential failures."""
    if run_s < 0 or n_nodes < 1 or mtbf_node_s <= 0:
        raise ValueError("need run_s >= 0, n_nodes >= 1, mtbf > 0")
    return math.exp(-run_s * n_nodes / mtbf_node_s)


def expected_failures(run_s: float, n_nodes: int, mtbf_node_s: float) -> float:
    """Expected node failures during the run."""
    if run_s < 0 or n_nodes < 1 or mtbf_node_s <= 0:
        raise ValueError("need run_s >= 0, n_nodes >= 1, mtbf > 0")
    return run_s * n_nodes / mtbf_node_s


def p_interval_survives_grouped(
    interval_s: float,
    n_nodes: int,
    mtbf_node_s: float,
    group_size: int,
) -> float:
    """P[the grouped checkpoint rides out one interval]: at most one loss
    per group of ``group_size`` (one rank per node)."""
    p_fail = 1.0 - math.exp(-interval_s / mtbf_node_s)
    n_groups = max(1, n_nodes // group_size)
    return group_reliability(group_size, n_groups, p_fail)["p_system_ok"]


@dataclass(frozen=True)
class ScalePoint:
    n_nodes: int
    p_fault_free_run: float
    expected_failures: float
    p_interval_ok_grouped: float


def scale_sweep() -> List[ScalePoint]:
    """How a day-long run fares as the machine grows (the paper's §1): a
    5-year per-node MTBF, groups of 16 and a 10-minute checkpoint
    interval."""
    run_s, mtbf_node_s = 24 * 3600.0, 5 * 365 * 24 * 3600.0
    group_size, interval_s = 16, 600.0
    return [
        ScalePoint(
            n_nodes=n,
            p_fault_free_run=p_fault_free(run_s, n, mtbf_node_s),
            expected_failures=expected_failures(run_s, n, mtbf_node_s),
            p_interval_ok_grouped=p_interval_survives_grouped(
                interval_s, n, mtbf_node_s, group_size
            ),
        )
        for n in (128, 1024, 8192, 65536)
    ]


def render_scale_sweep(points: List[ScalePoint]) -> str:
    from repro.util import render_table

    return render_table(
        [
            "nodes",
            "P[fault-free 24h run]",
            "E[failures/run]",
            "P[10-min interval OK, grouped]",
        ],
        [
            [
                p.n_nodes,
                f"{100 * p.p_fault_free_run:.2f}%",
                f"{p.expected_failures:.2f}",
                f"{100 * p.p_interval_ok_grouped:.4f}%",
            ]
            for p in points
        ],
        title="Reliability projection — why fault-free HPL stops scaling",
    )
