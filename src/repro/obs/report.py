"""ASCII run report: top spans, per-rank imbalance, critical path.

The report answers the three questions every perf PR against this repo
must answer with numbers: *where did the time go* (top spans by inclusive
virtual time), *how evenly* (per-rank busy-time imbalance), and *what
bounded the makespan* (the critical-path chain on the slowest rank —
for a run that survived a failure, that chain runs straight through the
recovery spans, which is the paper's recovery-latency measurement).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import math

from repro.obs.metrics import MetricsRegistry, percentile_from_buckets
from repro.obs.spans import STATUS_OK, Span
from repro.util import render_table

#: percentiles the histogram table reports, derived deterministically
#: from the log-spaced buckets (nearest-rank, bucket upper bound)
REPORT_PERCENTILES = (0.50, 0.90, 0.99)


def _fmt_s(v: float) -> str:
    return "inf" if math.isinf(v) else f"{v:.4g}"


def histogram_rows(registry: MetricsRegistry) -> List[List[str]]:
    """``[name, labels, count, mean, p50, p90, p99]`` per histogram
    instrument, in the registry's deterministic sample order."""
    rows: List[List[str]] = []
    for s in registry.samples():
        if s.kind != "histogram" or not s.extra:
            continue
        buckets = tuple(s.extra["buckets"])
        counts = list(s.extra["counts"])
        n = int(s.extra["count"])
        mean = (s.value / n) if n else 0.0
        labels = ",".join(f"{k}={v}" for k, v in sorted(s.labels.items()))
        rows.append(
            [s.name, labels or "-", str(n), _fmt_s(mean)]
            + [
                _fmt_s(percentile_from_buckets(buckets, counts, q))
                for q in REPORT_PERCENTILES
            ]
        )
    return rows


def _dur(span: Span) -> float:
    return 0.0 if span.end is None else span.end - span.begin


def aggregate_by_name(spans: List[Span]) -> List[Tuple[str, int, float, float, float]]:
    """``(name, count, total_s, mean_s, max_s)`` rows sorted by total desc
    (ties broken by name, so the ordering is deterministic)."""
    acc: Dict[str, List[float]] = {}
    for s in spans:
        acc.setdefault(s.name, []).append(_dur(s))
    rows = [
        (name, len(ds), sum(ds), sum(ds) / len(ds), max(ds))
        for name, ds in acc.items()
    ]
    return sorted(rows, key=lambda r: (-r[2], r[0]))


def rank_busy(spans: List[Span]) -> Dict[int, float]:
    """Per-rank inclusive time of *top-level* spans (children overlap their
    parents, so only roots count toward busy time)."""
    busy: Dict[int, float] = {}
    for s in spans:
        if s.parent_id is None:
            busy[s.rank] = busy.get(s.rank, 0.0) + _dur(s)
    return busy


def _descend(spans: List[Span], heads: List[Span]) -> List[Span]:
    """From the head with the latest end clock (ties: lowest rank /
    earliest begin), descend through the longest child at each level."""
    if not heads:
        return []
    children: Dict[Optional[str], List[Span]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    chain = [max(heads, key=lambda s: (s.end or s.begin, -s.rank, -s.begin))]
    while True:
        kids = children.get(chain[-1].span_id, [])
        if not kids:
            return chain
        chain.append(max(kids, key=lambda s: (_dur(s), -s.begin)))


def critical_path(spans: List[Span]) -> List[Span]:
    """The chain that bounds the makespan: the latest-ending root span
    and its longest-child descent.

    After a failure + recovery, the latest-ending spans belong to the
    restarted incarnation, so the chain surfaces the recovery path
    (``restore`` -> ``restore.rebuild`` / ``restore.commit``) ahead of
    steady-state compute — the paper's Fig. 10 decomposition, measured.
    """
    return _descend(spans, [s for s in spans if s.parent_id is None])


def recovery_path(spans: List[Span]) -> List[Span]:
    """The recovery critical path: the latest-ending ``restore`` span and
    its longest-child descent — what actually bounded the time from
    restart to resumed compute (paper Fig. 10's recovery segment)."""
    return _descend(spans, [s for s in spans if s.name == "restore"])


def _chain_table(chain: List[Span], title: str) -> str:
    rows = []
    for depth, s in enumerate(chain):
        flag = "" if s.status == STATUS_OK else f" [{s.status}]"
        rows.append(
            [
                "  " * depth + s.name + flag,
                s.rank,
                f"{s.begin:.4g}",
                f"{_dur(s):.4g}",
            ]
        )
    return render_table(["span", "rank", "begin s", "dur s"], rows, title=title)


def render_report(
    spans: List[Span],
    registry: Optional[MetricsRegistry] = None,
    *,
    title: str = "obs run report",
) -> str:
    """The full ASCII report (top 12 spans, imbalance, critical path, traffic)."""
    parts: List[str] = [title, "=" * len(title)]

    if not spans:
        parts.append("(no spans recorded)")
    else:
        rows = [
            [name, count, f"{total:.4g}", f"{mean:.4g}", f"{mx:.4g}"]
            for name, count, total, mean, mx in aggregate_by_name(spans)[:12]
        ]
        parts.append(
            render_table(
                ["span", "count", "total s", "mean s", "max s"],
                rows,
                title="top spans by inclusive virtual time",
            )
        )

        busy = rank_busy(spans)
        if busy:
            lo, hi = min(busy.values()), max(busy.values())
            mean = sum(busy.values()) / len(busy)
            parts.append(
                render_table(
                    ["ranks", "min s", "mean s", "max s", "imbalance"],
                    [[
                        len(busy),
                        f"{lo:.4g}",
                        f"{mean:.4g}",
                        f"{hi:.4g}",
                        f"{hi / mean:.3f}x" if mean > 0 else "-",
                    ]],
                    title="per-rank busy-time imbalance (top-level spans)",
                )
            )

        parts.append(
            _chain_table(
                critical_path(spans),
                "critical path (slowest rank, longest-child descent)",
            )
        )
        rec_chain = recovery_path(spans)
        if rec_chain:
            parts.append(
                _chain_table(
                    rec_chain,
                    "recovery critical path (latest restore, longest-child descent)",
                )
            )

        interrupted = [s for s in spans if s.status != STATUS_OK]
        if interrupted:
            parts.append(
                f"interrupted spans: {len(interrupted)} "
                f"({', '.join(sorted({s.name for s in interrupted}))})"
            )

    if registry is not None:
        hist_rows = histogram_rows(registry)
        if hist_rows:
            parts.append(
                render_table(
                    ["histogram", "labels", "count", "mean s", "p50 s", "p90 s", "p99 s"],
                    hist_rows,
                    title="histogram percentiles (nearest-rank, log-bucket upper bounds)",
                )
            )
        sent = registry.total("mpi.bytes_sent")
        recv = registry.total("mpi.bytes_recv")
        posted = registry.total("mpi.bytes_posted")
        parts.append(
            render_table(
                ["delivered B (sent)", "delivered B (recv)", "posted B", "stranded B"],
                [[int(sent), int(recv), int(posted), int(posted - sent)]],
                title="message balance (delivered sent == recv; stranded = lost in flight)",
            )
        )
    return "\n\n".join(parts)
