"""Observability for simulated jobs: spans, metrics, profiles to export.

``repro.obs`` is the cross-cutting instrumentation layer.  The checkpoint
protocols and the HPL driver open nested :class:`~repro.obs.spans.Span`\\ s
stamped with virtual clocks; a :class:`~repro.obs.metrics.MetricsObserver`
rides the :class:`~repro.sim.observer.SimObserver` hooks to count traffic,
blocked time and SHM pressure; the exporters in :mod:`repro.obs.export`
turn both into Perfetto-loadable Chrome traces, metrics JSON-lines and an
ASCII run report.  Everything is virtual-time-driven and deterministic:
two runs with one seed produce byte-identical artifacts.

Campaign-scale telemetry persists in the SQLite-backed
:class:`~repro.obs.store.TraceStore` (``repro chaos --obs summary``
ingests every attempt; ``repro obs query`` aggregates across runs), with per-attempt payloads built by :mod:`repro.obs.rollup`.

Entry points: ``repro obs --scenario skt-hpl --fail-at panel:3`` (CLI) or
:func:`repro.obs.scenario.run_scenario` (programmatic / benchmarks).
"""

from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    metrics_jsonl,
    parse_chrome_trace,
    read_metrics_jsonl,
    span_tree,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.labels import METRIC_NAMES, SPAN_LABELS, tag_class
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsObserver,
    MetricsRegistry,
    MetricSample,
)
from repro.obs.report import (
    aggregate_by_name,
    critical_path,
    rank_busy,
    recovery_path,
    render_report,
)
from repro.obs.rollup import (
    OBS_FULL,
    OBS_MODES,
    OBS_OFF,
    OBS_SUMMARY,
    attempt_payload,
    attempt_summary,
    span_doc,
    span_from_doc,
)
from repro.obs.spans import STATUS_INTERRUPTED, STATUS_OK, Span, SpanTracer
from repro.obs.store import TraceStore, attempt_run_id

__all__ = [
    "METRIC_NAMES",
    "OBS_FULL",
    "OBS_MODES",
    "OBS_OFF",
    "OBS_SUMMARY",
    "SPAN_LABELS",
    "STATUS_INTERRUPTED",
    "STATUS_OK",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsObserver",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "TraceStore",
    "attempt_payload",
    "attempt_run_id",
    "attempt_summary",
    "span_doc",
    "span_from_doc",
    "aggregate_by_name",
    "chrome_trace_events",
    "chrome_trace_json",
    "critical_path",
    "metrics_jsonl",
    "parse_chrome_trace",
    "rank_busy",
    "read_metrics_jsonl",
    "recovery_path",
    "render_report",
    "span_tree",
    "tag_class",
    "write_chrome_trace",
    "write_metrics_jsonl",
]
