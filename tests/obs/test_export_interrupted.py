"""Interrupted-span export behavior.

``repro.obs`` spans a failure cut short carry ``status="interrupted"``
(stamped end) or a genuinely open ``end=None``; the Chrome exporter must
keep the status visible through a full export -> parse cycle.
"""

from repro.obs.export import (
    chrome_trace_json,
    parse_chrome_trace,
    span_tree,
)
from repro.obs.spans import STATUS_INTERRUPTED, STATUS_OK, SpanTracer


def _interrupted_tracer():
    tr = SpanTracer()
    tr.begin(0, "ckpt", 1.0)
    tr.begin(0, "ckpt.encode", 1.2)
    tr.end(0, 1.8)
    tr.end(0, 2.0)
    tr.begin(1, "ckpt", 1.0, {"epoch": 3})
    tr.close_rank(1, 1.4)  # failure: closed with status="interrupted"
    tr.begin(2, "restore", 2.0)  # never closed at all: end stays None
    return tr


class TestChromeRoundTrip:
    def test_interrupted_status_survives_round_trip(self):
        spans = _interrupted_tracer().spans()
        back = parse_chrome_trace(chrome_trace_json(spans))
        by_id = {s.span_id: s for s in back}
        orig = {s.span_id: s for s in spans}
        assert set(by_id) == set(orig)
        for sid, s in orig.items():
            assert by_id[sid].status == s.status
        statuses = sorted(s.status for s in back)
        assert statuses.count(STATUS_INTERRUPTED) == 1

    def test_interrupted_span_keeps_its_stamped_end(self):
        spans = _interrupted_tracer().spans()
        orig = next(
            s for s in spans if s.rank == 1 and s.status == STATUS_INTERRUPTED
        )
        assert orig.end == 1.4  # close_rank stamps the clock of death
        back = parse_chrome_trace(chrome_trace_json(spans))
        got = next(s for s in back if s.span_id == orig.span_id)
        assert got.end == 1.4
        assert got.attrs == {"epoch": 3}

    def test_open_span_exports_as_zero_duration(self):
        # A span with end=None has no duration yet; the exporter pins it
        # to its begin time so the trace stays loadable. (Only close_rank
        # marks interruption — a never-closed span keeps status="ok".)
        spans = _interrupted_tracer().spans()
        orig = next(s for s in spans if s.end is None)
        back = parse_chrome_trace(chrome_trace_json(spans))
        got = next(s for s in back if s.span_id == orig.span_id)
        assert got.begin == orig.begin
        assert got.end == orig.begin
        assert got.status == STATUS_OK

    def test_tree_structure_survives(self):
        spans = _interrupted_tracer().spans()
        back = parse_chrome_trace(chrome_trace_json(spans))
        assert span_tree(back) == span_tree(spans)

    def test_ok_spans_stay_ok(self):
        spans = _interrupted_tracer().spans()
        back = parse_chrome_trace(chrome_trace_json(spans))
        ok = [s for s in back if s.rank == 0]
        assert all(s.status == STATUS_OK for s in ok)

    def test_export_is_byte_stable(self):
        a = chrome_trace_json(_interrupted_tracer().spans())
        b = chrome_trace_json(_interrupted_tracer().spans())
        assert a == b
