"""Nested, attribute-carrying spans stamped with virtual clocks.

A :class:`SpanTracer` attaches to a :class:`~repro.sim.runtime.Job` (the
``tracer=`` parameter); rank code then opens spans through the context
manager ``ctx.span("ckpt.encode", nbytes=...)``.  Begin/end times are the
rank's *virtual* clock, so span durations are simulated seconds — the
quantities the paper measures (checkpoint time, encoding cost, recovery
latency) — not wall time.

The same tracer is the one recorder of what a rank *announced*: every
``ctx.phase(name)`` lands in its second stream as a :class:`PhaseEvent`
(:meth:`SpanTracer.phases`).  Phase events are point events for the
consumers that need the announcement schedule itself — the chaos probe's
kill-point enumeration, :func:`render_timeline` — and stay out of
:meth:`SpanTracer.spans`, the exporters and the trace store.

Spans nest per rank: the tracer keeps one open-span stack per rank thread,
so a ``ckpt.encode`` opened inside ``ckpt`` records ``ckpt`` as its
parent.  A failure that unwinds a rank mid-span closes every open span
with ``status="interrupted"`` and the rank's final clock, so interrupted
checkpoints are *visible* in the trace instead of vanishing.

Determinism: span ids are ``(incarnation, rank, seq)`` triples assigned in
per-rank program order, never from global event interleaving, so two runs
with the same seed export byte-identical traces; phase events are kept per
``(incarnation, rank)`` in program order for the same reason.

Thread-safety: rank threads call ``begin``/``end`` concurrently; all
shared state is guarded by one internal lock.  The tracer never calls
into the simulator, satisfying the observer-layer contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.util.units import fmt_seconds

#: ``status`` of a span that was still open when its rank died or exited.
STATUS_OK = "ok"
STATUS_INTERRUPTED = "interrupted"

#: :func:`render_timeline` glyphs, dealt to phase names in sorted order
_GLYPHS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
#: :func:`render_timeline` columns per rank row
_WIDTH = 72


@dataclass
class Span:
    """One timed, attributed interval on one rank."""

    span_id: str
    rank: int
    name: str
    begin: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    parent_id: Optional[str] = None
    status: str = STATUS_OK
    incarnation: int = 0

    @property
    def duration(self) -> Optional[float]:
        """Virtual seconds, or ``None`` while the span is still open."""
        return None if self.end is None else self.end - self.begin

    @property
    def closed(self) -> bool:
        return self.end is not None


@dataclass(frozen=True)
class PhaseEvent:
    """One ``ctx.phase(name)`` announcement: a point on one rank's clock."""

    rank: int
    clock: float
    name: str


class SpanTracer:
    """Collects spans and phase announcements from every rank of a job
    (and its restarts)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()  # simlint: allow[threading] -- tracer-internal state guard
        self._spans: Dict[Tuple[int, int], List[Span]] = {}
        self._phases: Dict[Tuple[int, int], List[PhaseEvent]] = {}
        self._stacks: Dict[Tuple[int, int], List[Span]] = {}
        self._seq: Dict[Tuple[int, int], int] = {}
        self.incarnation = 0

    # -- lifecycle --------------------------------------------------------------
    def new_incarnation(self, index: Optional[int] = None) -> int:
        """Start a new job incarnation (the daemon calls this per restart).

        Spans opened afterwards carry the new incarnation index; open spans
        of earlier incarnations are untouched (they were already closed by
        :meth:`close_rank` when their rank threads unwound).
        """
        with self._lock:
            self.incarnation = self.incarnation + 1 if index is None else index
            return self.incarnation

    # -- recording --------------------------------------------------------------
    def begin(self, rank: int, name: str, clock: float, attrs: Optional[Dict[str, Any]] = None) -> Span:
        with self._lock:
            key = (self.incarnation, rank)
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
            stack = self._stacks.setdefault(key, [])
            span = Span(
                span_id=f"i{key[0]}.r{rank}.{seq}",
                rank=rank,
                name=name,
                begin=clock,
                attrs=dict(attrs or {}),
                parent_id=stack[-1].span_id if stack else None,
                incarnation=key[0],
            )
            stack.append(span)
            self._spans.setdefault(key, []).append(span)
            return span

    def end(self, rank: int, clock: float, status: str = STATUS_OK) -> Optional[Span]:
        """Close the innermost open span of ``rank``; returns it (or None)."""
        with self._lock:
            stack = self._stacks.get((self.incarnation, rank))
            if not stack:
                return None
            span = stack.pop()
            span.end = clock
            span.status = status
            return span

    def close_rank(self, rank: int, clock: float) -> List[Span]:
        """Close every span ``rank`` still has open (rank death / exit).

        The runtime calls this as the rank thread unwinds; the spans are
        stamped with the rank's final virtual clock and marked
        ``interrupted`` so a checkpoint cut short by a power-off shows up
        with its true partial extent.
        """
        closed: List[Span] = []
        with self._lock:
            stack = self._stacks.get((self.incarnation, rank), [])
            while stack:
                span = stack.pop()
                span.end = clock
                span.status = STATUS_INTERRUPTED
                closed.append(span)
        return closed

    def phase(self, rank: int, clock: float, name: str) -> None:
        """Record one phase announcement of ``rank`` (``ctx.phase``)."""
        with self._lock:
            self._phases.setdefault((self.incarnation, rank), []).append(
                PhaseEvent(rank=rank, clock=clock, name=name)
            )

    # -- queries ----------------------------------------------------------------
    def _in_order(self, table: Dict[Tuple[int, int], List[Any]]) -> List[Any]:
        with self._lock:
            return [item for key in sorted(table) for item in table[key]]

    def spans(self) -> List[Span]:
        """All spans in deterministic order: (incarnation, rank, seq)."""
        return self._in_order(self._spans)

    def phases(self) -> List[PhaseEvent]:
        """All phase announcements in deterministic order: (incarnation,
        rank), each rank's in program order — never host interleaving."""
        return self._in_order(self._phases)

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans() if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans() if s.parent_id == span.span_id]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._spans.values())



def render_timeline(
    tracer: SpanTracer, focus: Optional[Sequence[int]] = None
) -> str:
    """A compact ASCII timeline of the phase announcements: one row per
    rank, one glyph per event, positioned by virtual time.

    Each distinct phase name gets its own glyph (``a``, ``b``, ``c`` … in
    sorted-name order) and the legend lists every one.  ``focus`` marks the
    given ranks with ``*`` — the runtime's deadlock report ends in this
    timeline with the parked ranks starred.
    """
    events = tracer.phases()
    if not events:
        return "(empty trace)"
    t_max = max(e.clock for e in events) or 1.0
    names = sorted({e.name for e in events})
    glyph = {name: _GLYPHS[i % len(_GLYPHS)] for i, name in enumerate(names)}
    marked = set(focus or ())
    rows: Dict[int, List[str]] = {}
    for e in events:
        row = rows.setdefault(e.rank, [" "] * _WIDTH)
        row[min(_WIDTH - 1, int(e.clock / t_max * (_WIDTH - 1)))] = glyph[e.name]
    lines = [
        f"r{r:<3}{'*' if r in marked else ' '}|{''.join(rows[r])}|"
        for r in sorted(rows)
    ]
    lines.append(f"     0 {'-' * (_WIDTH - 10)} {fmt_seconds(t_max)}")
    lines.append("     " + ", ".join(f"{glyph[n]}={n}" for n in names))
    return "\n".join(lines)
