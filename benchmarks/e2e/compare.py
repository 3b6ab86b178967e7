"""``compare A.json B.json``: did B get worse than A, by the benchmark's bounds?

One row per workload x end-to-end metric: both medians with their
quartiles over the runs, the ratio B/A (base: A), and a verdict.

* ``unresolved`` — the run-to-run spread (interquartile distance over the
  median, the larger of the two files) exceeds the metric's bound and the
  two files' runs overlap: the benchmark cannot tell.
* ``worse`` / ``better`` — the median moved past the bound against / in
  the metric's direction.
* ``same`` — inside the bound.

``sim_makespan_s`` and ``failed_frac`` are exact: any difference in the
former, or any failed op, is ``worse``.  Exit status 1 on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple


def _spread(stats: Dict[str, Any]) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[float, str]:
    """Ratio B/A and the verdict for one bounded metric."""
    bound = a["bound"]
    ratio = b["median"] / a["median"]
    worse_is_up = a["better"] == "lower"
    overlap = min(a["values"]) <= max(b["values"]) and min(b["values"]) <= max(a["values"])
    if max(_spread(a), _spread(b)) > bound and overlap:
        return ratio, "unresolved"
    change = ratio - 1.0 if worse_is_up else 1.0 - ratio
    if change > bound:
        return ratio, "worse"
    if change < -bound:
        return ratio, "better"
    return ratio, "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], int]:
    lines = [
        f"base A: {a['env']['git_sha']} seed {a['seed']}   "
        f"B: {b['env']['git_sha']} seed {b['seed']}   (ratio = B / A)",
        f"{'workload':13s} {'metric':15s} {'A median [q1, q3]':>30s} "
        f"{'B median [q1, q3]':>30s} {'ratio':>7s} {'bound':>6s}  verdict",
    ]
    n_worse = 0
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"].get(name)
        if row_b is None:
            lines.append(f"{name:13s} missing from B" + " " * 60 + "worse")
            n_worse += 1
            continue
        for metric, sa in row_a["end_to_end"].items():
            sb = row_b["end_to_end"][metric]
            ratio, v = verdict(sa, sb)
            n_worse += v == "worse"

            def cell(s):
                return f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"

            lines.append(
                f"{name:13s} {metric:15s} {cell(sa):>30s} {cell(sb):>30s} "
                f"{ratio:7.3f} {sa['bound']:6.2f}  {v}"
            )
        exact = row_a["sim_makespan_s"] == row_b["sim_makespan_s"]
        n_worse += not exact
        lines.append(
            f"{name:13s} {'sim_makespan_s':15s} {row_a['sim_makespan_s']!r:>30} "
            f"{row_b['sim_makespan_s']!r:>30} {'':7s} {'exact':>6s}  "
            f"{'same' if exact else 'worse'}"
        )
        failed = row_b["failed_frac"] > row_a["failed_frac"]
        n_worse += failed
        lines.append(
            f"{name:13s} {'failed_frac':15s} {row_a['failed_frac']:>30.4f} "
            f"{row_b['failed_frac']:>30.4f} {'':7s} {'exact':>6s}  "
            f"{'worse' if failed else 'same'}"
        )
    return lines, n_worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.e2e compare A.json B.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as f:
            docs.append(json.load(f))
    lines, n_worse = compare(*docs)
    print("\n".join(lines))
    print(f"{n_worse} worse")
    return 1 if n_worse else 0
