"""Per-attempt observability payloads for campaign-scale ingestion.

A chaos campaign resolves thousands of attempts through the pickleable
replay path of :mod:`repro.par`; this module defines the JSON-canonical
payload one instrumented attempt ships back — either a flat *summary*
rollup (the ``bench_record``-style headline numbers, bounding per-attempt
overhead to a few hundred bytes) or the *full* span/metric streams.  The
payload rides :class:`repro.par.replay.ReplayOutcome` across the process
boundary and through the memo cache's JSON encoding, and lands in the
SQLite :class:`~repro.obs.store.TraceStore`.

Everything here is deterministic and wall-clock-free: payloads are pure
functions of the recorded state, which the simulator's virtual
clocks make byte-identical across same-seed runs — the property the
store digest and ``repro obs query`` byte-stability tests pin.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import head_s
from repro.obs.spans import STATUS_OK, Span, SpanTracer
from repro.sim.observer import SimObserver

#: sampling modes of the campaign obs flag (``repro chaos --obs ...``)
OBS_OFF = "off"
OBS_SUMMARY = "summary"
OBS_FULL = "full"
OBS_MODES = (OBS_OFF, OBS_SUMMARY, OBS_FULL)


def span_doc(s: Span) -> Dict[str, Any]:
    """One span as a plain JSON-canonical record (store/wire form)."""
    return {
        "span_id": s.span_id,
        "parent_id": s.parent_id,
        "rank": s.rank,
        "incarnation": s.incarnation,
        "name": s.name,
        "begin": s.begin,
        "end": s.end,
        "status": s.status,
        "attrs": dict(s.attrs),
    }


def span_from_doc(doc: Dict[str, Any]) -> Span:
    """Inverse of :func:`span_doc` (exact round-trip)."""
    return Span(
        span_id=str(doc["span_id"]),
        rank=int(doc["rank"]),
        name=str(doc["name"]),
        begin=float(doc["begin"]),
        end=None if doc.get("end") is None else float(doc["end"]),
        attrs=dict(doc.get("attrs", {})),
        parent_id=doc.get("parent_id"),
        status=str(doc.get("status", "ok")),
        incarnation=int(doc.get("incarnation", 0)),
    )


def metric_docs(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Flattened instruments in the registry's deterministic order."""
    out: List[Dict[str, Any]] = []
    for s in registry.samples():
        rec: Dict[str, Any] = {
            "name": s.name,
            "kind": s.kind,
            "labels": dict(s.labels),
            "value": s.value,
        }
        if s.extra:
            rec["extra"] = dict(s.extra)
        out.append(rec)
    return out


def fill_job_metrics(
    registry: MetricsRegistry,
    spans: List[Span],
    *,
    n_restarts: int,
    n_failures: int,
    completed: bool,
    makespan_s: float,
) -> None:
    """Derive the job/ckpt-level counters from the daemon report and the
    recorded spans (the observer only sees communicator/SHM events)."""
    registry.counter("job.restarts").inc(n_restarts)
    registry.counter("job.failures_injected").inc(n_failures)
    registry.gauge("job.completed").set(1.0 if completed else 0.0)
    registry.gauge("job.makespan_s").set(makespan_s)
    for s in spans:
        if s.name == "ckpt" and s.status == "ok":
            registry.counter("ckpt.count", rank=s.rank).inc()
        elif s.name == "ckpt.encode":
            registry.counter("ckpt.bytes_encoded", rank=s.rank).inc(
                int(s.attrs.get("nbytes", 0))
            )
        elif s.name == "restore" and s.status == "ok":
            registry.counter("restore.count", rank=s.rank).inc()


class TrafficTotals(SimObserver):
    """What ``summary`` records beside the tracer: the ``mpi.bytes_posted`` /
    ``mpi.bytes_sent`` totals.  Ranks call one at a time (the baton): no lock."""

    def __init__(self) -> None:
        self.posted = self.sent = 0

    def on_send(self, src: int, dst: int, tag: int, nbytes: int, clock: float) -> None:
        self.posted += nbytes

    def on_recv(
        self, dst: int, src: int, tag: int, nbytes: int, clock: float, waited_s: float = 0.0
    ) -> None:
        self.sent += nbytes


def attempt_summary(
    spans: List[Span], posted: float, sent: float, n_restarts: int
) -> Dict[str, float]:
    """The flat rollup of one attempt, the one fold of both sampling modes:
    dotted ``{key: float}`` pairs summed in canonical span order.

    Key families (all values floats so they drop straight into the
    store's ``summaries`` table and aggregate across thousands of
    attempts):

    * ``spans.count`` / ``spans.interrupted`` — span-stream totals;
    * ``span.total_s.<name>`` / ``span.count.<name>`` — per-label
      inclusive virtual time and count;
    * ``critical_path_s`` / ``recovery_path_s`` — the first span of the
      makespan-bounding chain and of the latest-restore descent (Fig. 10);
    * ``traffic.*`` — delivered/posted/stranded byte balance;
    * ``ckpt.count`` / ``ckpt.bytes_encoded`` / ``restore.count`` /
      ``job.restarts`` — lifecycle aggregates.
    """
    ok = [s.name for s in spans if s.status == STATUS_OK]
    out: Dict[str, float] = {
        "spans.count": float(len(spans)),
        "spans.interrupted": float(len(spans) - len(ok)),
    }
    for s in spans:
        dur = 0.0 if s.end is None else s.end - s.begin
        out[f"span.total_s.{s.name}"] = out.get(f"span.total_s.{s.name}", 0.0) + dur
        out[f"span.count.{s.name}"] = out.get(f"span.count.{s.name}", 0.0) + 1.0
    out["critical_path_s"] = head_s([s for s in spans if s.parent_id is None])
    out["recovery_path_s"] = head_s([s for s in spans if s.name == "restore"])
    out["traffic.bytes_sent"] = float(sent)
    out["traffic.bytes_posted"] = float(posted)
    out["traffic.bytes_stranded"] = float(posted - sent)
    encoded = [int(s.attrs.get("nbytes", 0)) for s in spans if s.name == "ckpt.encode"]
    out["ckpt.count"] = float(ok.count("ckpt"))
    out["ckpt.bytes_encoded"] = float(sum(encoded))
    out["restore.count"] = float(ok.count("restore"))
    out["job.restarts"] = float(n_restarts)
    return out


def attempt_payload(
    tracer: SpanTracer, recorded: Any, mode: str, n_restarts: int
) -> Dict[str, Any]:
    """The obs payload one replay ships back at ``mode`` ``summary`` or
    ``full``, from the tracer and the :class:`TrafficTotals` or the
    ``MetricsRegistry`` beside it.  Both modes' ``summary`` is
    :func:`attempt_summary` of the same inputs; ``full`` adds the complete
    span and metric streams.  Store ingest keeps the summary as shipped.
    """
    spans = tracer.spans()
    if mode == OBS_SUMMARY:
        traffic = recorded.posted, recorded.sent
    else:
        traffic = recorded.total("mpi.bytes_posted"), recorded.total("mpi.bytes_sent")
    summary = attempt_summary(spans, *traffic, n_restarts)
    payload: Dict[str, Any] = {"mode": mode, "summary": summary}
    if mode == OBS_FULL:
        payload["spans"] = [span_doc(s) for s in spans]
        payload["metrics"] = metric_docs(recorded)
    return payload
