"""``repro obs query`` — cross-run queries over the trace store.

The :class:`~repro.obs.store.TraceStore` holds attempts from many
campaigns; this module answers the questions a campaign report cannot —
"how long do ``ckpt.flush`` spans run across every survived kill point?",
"what is the p99 recovery path over the whole matrix?", "how did this
scenario's makespan and checkpoint count move from one stored run to the
next?".

All output is byte-stable: filters, aggregation and rendering are pure
functions of the store's logical content, rows are ordered by explicit
sort keys, floats are formatted through one formatter, and percentiles
use the deterministic nearest-rank rule (``sorted[ceil(q*n)-1]``) over
exact span durations — so two same-seed campaigns produce not just equal
stores but equal query output, which CI compares bytewise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.store import TraceStore
from repro.util.tables import render_table

#: percentile columns of the aggregation views
QUERY_PERCENTILES = (0.50, 0.90, 0.99)

#: the sections a query answer is made of, in output order
SECTIONS = ("runs", "spans", "summary")


def _fmt(v: Any) -> str:
    """One float spelling for every rendered cell (byte-stability)."""
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return f"{v:.6g}"
    return str(v)


def nearest_rank(sorted_vals: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile over pre-sorted values."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile q must be in (0, 1], got {q!r}")
    if not sorted_vals:
        return 0.0
    return sorted_vals[math.ceil(q * len(sorted_vals)) - 1]


@dataclass(frozen=True)
class QueryFilter:
    """Conjunctive filters over runs and spans (empty = match all)."""

    kinds: Tuple[str, ...] = ()
    scenarios: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()
    verdicts: Tuple[str, ...] = ()
    campaign: Optional[str] = None
    label_like: Optional[str] = None
    names: Tuple[str, ...] = ()
    ranks: Tuple[int, ...] = ()
    incarnations: Tuple[int, ...] = ()

    def _run_where(self, alias: str = "runs") -> Tuple[str, List[Any]]:
        clauses, params = [], []

        def _in(col: str, vals: Sequence[Any]) -> None:
            if vals:
                marks = ",".join("?" for _ in vals)
                clauses.append(f"{alias}.{col} IN ({marks})")
                params.extend(vals)

        _in("kind", self.kinds)
        _in("scenario", self.scenarios)
        _in("method", self.methods)
        _in("verdict", self.verdicts)
        if self.campaign is not None:
            clauses.append(f"{alias}.campaign_id = ?")
            params.append(self.campaign)
        if self.label_like is not None:
            clauses.append(f"{alias}.label LIKE ?")
            params.append(f"%{self.label_like}%")
        return (" AND ".join(clauses) or "1=1"), params

    def _span_where(self) -> Tuple[str, List[Any]]:
        clauses, params = [], []

        def _in(col: str, vals: Sequence[Any]) -> None:
            if vals:
                marks = ",".join("?" for _ in vals)
                clauses.append(f"spans.{col} IN ({marks})")
                params.extend(vals)

        _in("name", self.names)
        _in("rank", self.ranks)
        _in("incarnation", self.incarnations)
        return (" AND ".join(clauses) or "1=1"), params


RUN_COLUMNS = (
    "run_id",
    "campaign_id",
    "ord",
    "kind",
    "scenario",
    "method",
    "seed",
    "label",
    "verdict",
    "n_restarts",
    "makespan_s",
    "obs_mode",
)


def run_rows(store: TraceStore, flt: QueryFilter) -> List[Dict[str, Any]]:
    """Matching run rows in canonical (campaign, ord, run_id) order."""
    where, params = flt._run_where()
    rows = store.query(
        f"SELECT {', '.join(RUN_COLUMNS)} FROM runs WHERE {where} "
        "ORDER BY campaign_id, ord, run_id",
        tuple(params),
    )
    return [dict(zip(RUN_COLUMNS, r)) for r in rows]


SPAN_COLUMNS = (
    "run_id",
    "span_id",
    "incarnation",
    "rank",
    "seq",
    "name",
    "begin_s",
    "end_s",
    "status",
    "verdict",
    "label",
)


def span_rows(store: TraceStore, flt: QueryFilter) -> List[Dict[str, Any]]:
    """Matching spans (joined to their runs) in canonical order."""
    run_where, run_params = flt._run_where()
    span_where, span_params = flt._span_where()
    rows = store.query(
        "SELECT spans.run_id, spans.span_id, spans.incarnation, spans.rank, "
        "spans.seq, spans.name, spans.begin_s, spans.end_s, spans.status, "
        "runs.verdict, runs.label "
        "FROM spans JOIN runs ON runs.run_id = spans.run_id "
        f"WHERE {run_where} AND {span_where} "
        "ORDER BY runs.campaign_id, runs.ord, spans.run_id, spans.seq",
        tuple(run_params) + tuple(span_params),
    )
    return [dict(zip(SPAN_COLUMNS, r)) for r in rows]


@dataclass
class SpanAggregate:
    """Aggregated durations of one span name across matching runs."""

    name: str
    count: int = 0
    open: int = 0
    total_s: float = 0.0
    durations: List[float] = field(default_factory=list)

    def row(self) -> List[str]:
        vals = sorted(self.durations)
        mean = self.total_s / len(vals) if vals else 0.0
        pcts = [nearest_rank(vals, q) for q in QUERY_PERCENTILES]
        return [
            self.name,
            str(self.count),
            str(self.open),
            _fmt(self.total_s),
            _fmt(mean),
            *[_fmt(p) for p in pcts],
        ]


def aggregate_spans(spans: List[Dict[str, Any]]) -> List[SpanAggregate]:
    """Per-name rollup: counts, open (interrupted) spans, percentiles.

    Spans whose ``end`` never arrived (the phase a failure cut short)
    count under ``open`` and stay out of the duration aggregates.
    """
    by_name: Dict[str, SpanAggregate] = {}
    for s in spans:
        agg = by_name.setdefault(s["name"], SpanAggregate(name=s["name"]))
        agg.count += 1
        if s["end_s"] is None:
            agg.open += 1
        else:
            dur = s["end_s"] - s["begin_s"]
            agg.total_s += dur
            agg.durations.append(dur)
    return [by_name[k] for k in sorted(by_name)]


def verdict_counts(runs: List[Dict[str, Any]]) -> List[Tuple[str, int]]:
    counts: Dict[str, int] = {}
    for r in runs:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    return sorted(counts.items())


def summary_stats(
    store: TraceStore,
    flt: QueryFilter,
    keys: Optional[Sequence[str]] = None,
) -> List[List[str]]:
    """Aggregate the flat per-attempt rollups across matching runs.

    Covers every dotted summary key — ``critical_path_s`` /
    ``recovery_path_s`` recovery rollups, ``span.total_s.*``,
    ``traffic.*`` — with count/total/mean/min/max/percentile columns.
    """
    where, params = flt._run_where()
    sql = (
        "SELECT summaries.key, summaries.value "
        "FROM summaries JOIN runs ON runs.run_id = summaries.run_id "
        f"WHERE {where} "
    )
    if keys:
        marks = ",".join("?" for _ in keys)
        sql += f"AND summaries.key IN ({marks}) "
        params = list(params) + list(keys)
    sql += "ORDER BY summaries.key, runs.campaign_id, runs.ord"
    by_key: Dict[str, List[float]] = {}
    for key, value in store.query(sql, tuple(params)):
        by_key.setdefault(key, []).append(value)
    rows = []
    for key in sorted(by_key):
        vals = sorted(by_key[key])
        total = sum(vals)
        rows.append(
            [
                key,
                str(len(vals)),
                _fmt(total),
                _fmt(total / len(vals)),
                _fmt(vals[0]),
                _fmt(vals[-1]),
                *[_fmt(nearest_rank(vals, q)) for q in QUERY_PERCENTILES],
            ]
        )
    return rows


# -- rendering ------------------------------------------------------------------

RUNS_HEADERS = [
    "campaign",
    "ord",
    "kind",
    "scenario",
    "method",
    "seed",
    "label",
    "verdict",
    "restarts",
    "makespan s",
    "obs",
]

AGG_HEADERS = [
    "span",
    "count",
    "open",
    "total s",
    "mean s",
    "p50 s",
    "p90 s",
    "p99 s",
]

SUMMARY_HEADERS = [
    "key",
    "runs",
    "total",
    "mean",
    "min",
    "max",
    "p50",
    "p90",
    "p99",
]


def render_runs(runs: List[Dict[str, Any]]) -> str:
    rows = [
        [
            r["campaign_id"][:12],
            str(r["ord"]),
            r["kind"],
            r["scenario"],
            r["method"],
            str(r["seed"]),
            r["label"],
            r["verdict"],
            str(r["n_restarts"]),
            _fmt(r["makespan_s"]),
            r["obs_mode"],
        ]
        for r in runs
    ]
    parts = [render_table(RUNS_HEADERS, rows, title=f"runs ({len(runs)})")]
    vc = verdict_counts(runs)
    if vc:
        parts.append(
            render_table(
                ["verdict", "runs"],
                [[v, str(n)] for v, n in vc],
                title="verdicts",
            )
        )
    return "\n\n".join(parts)


def render_span_agg(spans: List[Dict[str, Any]]) -> str:
    rows = [a.row() for a in aggregate_spans(spans)]
    return render_table(
        AGG_HEADERS,
        rows,
        title=f"span durations over {len(spans)} spans "
        "(nearest-rank percentiles, virtual s)",
    )


def render_summaries(rows: List[List[str]]) -> str:
    return render_table(
        SUMMARY_HEADERS, rows, title="summary rollups across runs"
    )


def query_report(
    store: TraceStore,
    flt: QueryFilter,
    *,
    sections: Sequence[str] = SECTIONS,
    keys: Optional[Sequence[str]] = None,
) -> str:
    """The full byte-stable query answer (table form)."""
    parts = []
    if "runs" in sections:
        parts.append(render_runs(run_rows(store, flt)))
    if "spans" in sections:
        spans = span_rows(store, flt)
        if spans:
            parts.append(render_span_agg(spans))
    if "summary" in sections:
        rows = summary_stats(store, flt, keys)
        if rows:
            parts.append(render_summaries(rows))
    return "\n\n".join(parts)


def query_jsonl(
    store: TraceStore,
    flt: QueryFilter,
    *,
    sections: Sequence[str] = SECTIONS,
    keys: Optional[Sequence[str]] = None,
) -> str:
    """The same answer as machine-readable JSON lines."""
    lines: List[str] = []

    def emit(doc: Dict[str, Any]) -> None:
        lines.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))

    if "runs" in sections:
        for r in run_rows(store, flt):
            emit({"record": "run", **r})
    if "spans" in sections:
        for a in aggregate_spans(span_rows(store, flt)):
            vals = sorted(a.durations)
            emit(
                {
                    "record": "span_agg",
                    "name": a.name,
                    "count": a.count,
                    "open": a.open,
                    "total_s": a.total_s,
                    "mean_s": a.total_s / len(vals) if vals else 0.0,
                    **{
                        f"p{int(q * 100)}_s": nearest_rank(vals, q)
                        for q in QUERY_PERCENTILES
                    },
                }
            )
    if "summary" in sections:
        for row in summary_stats(store, flt, keys):
            emit(
                {
                    "record": "summary",
                    **dict(
                        zip(
                            ("key", "runs", "total", "mean", "min", "max",
                             "p50", "p90", "p99"),
                            row,
                        )
                    ),
                }
            )
    return "\n".join(lines) + ("\n" if lines else "")

