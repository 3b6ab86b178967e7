"""The harness's own host-time tracer.

Spans are recorded from the benchmark's files only, around calls into the
program's public entry points; nothing in ``src/repro`` is instrumented.
A span is ``{id, parent, name, t0, t1, workload, op}`` on the
``time.perf_counter`` clock.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

Span = Dict[str, Any]


class HostTracer:
    """Collects nested spans; parents follow a per-thread stack.

    A span opened on a thread with an empty stack (rank 0 of a job, whose
    caller is the driver thread's ``JobDaemon.run``) names its parent
    explicitly through ``parent=``.
    """

    def __init__(self, workload: str = "") -> None:
        self.workload = workload
        self.op = 0
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        rec: Span = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else parent,
            "name": name,
            "workload": self.workload,
            "op": self.op,
        }
        rec.update(attrs)
        stack.append(rec["id"])
        rec["t0"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)  # list.append is atomic under the GIL


@contextmanager
def maybe_span(tracer: Optional[HostTracer], name: str, **kw: Any) -> Iterator[Optional[Span]]:
    """``tracer.span(...)`` when tracing, a no-op otherwise."""
    if tracer is None:
        yield None
    else:
        with tracer.span(name, **kw) as rec:
            yield rec


def duration(span: Span) -> float:
    return span["t1"] - span["t0"]


def children_of(spans: List[Span]) -> Dict[Optional[int], List[Span]]:
    out: Dict[Optional[int], List[Span]] = {}
    for s in spans:
        out.setdefault(s["parent"], []).append(s)
    return out


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals (children on other threads may overlap)."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Per span id: duration minus the part its child spans cover."""
    kids = children_of(spans)
    return {
        s["id"]: duration(s)
        - _covered([(c["t0"], c["t1"]) for c in kids.get(s["id"], [])])
        for s in spans
    }


def child_coverage(spans: List[Span], parent: Span) -> float:
    """Share of ``parent``'s duration covered by its direct children."""
    kids = [(c["t0"], c["t1"]) for c in spans if c["parent"] == parent["id"]]
    return _covered(kids) / duration(parent) if duration(parent) > 0 else 1.0


def forest_problems(spans: List[Span], slack: float = 1e-6) -> List[str]:
    """Why ``spans`` is not a forest: a missing parent, or a child that
    does not lie inside its parent.  Empty list when it is one."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["t1"] < s["t0"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        if s["parent"] is None:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            problems.append(f"span {s['id']} {s['name']}: parent {s['parent']} missing")
        elif s["t0"] < p["t0"] - slack or s["t1"] > p["t1"] + slack:
            problems.append(
                f"span {s['id']} {s['name']} not inside parent {p['id']} {p['name']}"
            )
    return problems
