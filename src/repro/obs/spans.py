"""Nested, attribute-carrying spans stamped with virtual clocks.

A :class:`SpanTracer` attaches to a :class:`~repro.sim.runtime.Job` (the
``tracer=`` parameter); rank code then opens spans through the context
manager ``ctx.span("ckpt.encode", nbytes=...)``.  Begin/end times are the
rank's *virtual* clock, so span durations are simulated seconds — the
quantities the paper measures (checkpoint time, encoding cost, recovery
latency) — not wall time.

Spans nest per rank: the tracer keeps one open-span stack per rank thread,
so a ``ckpt.encode`` opened inside ``ckpt`` records ``ckpt`` as its
parent.  A failure that unwinds a rank mid-span closes every open span
with ``status="interrupted"`` and the rank's final clock, so interrupted
checkpoints are *visible* in the trace instead of vanishing — the same
rule the :func:`repro.sim.trace.phase_spans` sentinel applies to flat
phase pairs.

Determinism: span ids are ``(incarnation, rank, seq)`` triples assigned in
per-rank program order, never from global event interleaving, so two runs
with the same seed export byte-identical traces.

Thread-safety: rank threads call ``begin``/``end`` concurrently; all
shared state is guarded by one internal lock.  The tracer never calls
into the simulator, satisfying the observer-layer contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: ``status`` of a span that was still open when its rank died or exited.
STATUS_OK = "ok"
STATUS_INTERRUPTED = "interrupted"


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


class SpanTracer:
    """Collects spans from every rank of a job (and its restarts)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()  # simlint: allow[threading] -- tracer-internal state guard
        self._spans: Dict[Tuple[int, int], List[Span]] = {}
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

    # -- queries ----------------------------------------------------------------
    def spans(self) -> List[Span]:
        """All spans in deterministic order: (incarnation, rank, seq)."""
        with self._lock:
            out: List[Span] = []
            for key in sorted(self._spans):
                out.extend(self._spans[key])
            return out

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans() if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans() if s.parent_id == span.span_id]

    def roots(self) -> List[Span]:
        return [s for s in self.spans() if s.parent_id is None]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._spans.values())

