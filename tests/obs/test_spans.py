"""Tests for the span tracer and its runtime integration."""

import pytest

from repro.obs.spans import (
    STATUS_INTERRUPTED,
    STATUS_OK,
    SpanTracer,
)
from repro.sim import Cluster, FailurePlan, Job, PhaseTrigger


class TestTracerUnit:
    def test_nesting_records_parent(self):
        tr = SpanTracer()
        outer = tr.begin(0, "ckpt", 1.0)
        inner = tr.begin(0, "ckpt.encode", 1.5)
        assert inner.parent_id == outer.span_id
        tr.end(0, 2.0)
        tr.end(0, 2.5)
        assert outer.duration == pytest.approx(1.5)
        assert inner.duration == pytest.approx(0.5)
        assert tr.children_of(outer) == [inner]
        assert [s for s in tr.spans() if s.parent_id is None] == [outer]

    def test_span_ids_are_program_order(self):
        tr = SpanTracer()
        a = tr.begin(1, "ckpt", 0.0)
        tr.end(1, 1.0)
        b = tr.begin(1, "restore", 2.0)
        assert a.span_id == "i0.r1.0"
        assert b.span_id == "i0.r1.1"

    def test_ranks_have_independent_stacks(self):
        tr = SpanTracer()
        a = tr.begin(0, "ckpt", 0.0)
        b = tr.begin(1, "ckpt", 0.0)
        assert a.parent_id is None and b.parent_id is None
        assert tr.end(1, 1.0) is b
        assert tr.end(0, 1.0) is a

    def test_close_rank_marks_interrupted(self):
        tr = SpanTracer()
        tr.begin(0, "ckpt", 0.0)
        tr.begin(0, "ckpt.commit", 0.5)
        closed = tr.close_rank(0, 3.0)
        assert len(closed) == 2
        assert all(s.status == STATUS_INTERRUPTED for s in closed)
        assert all(s.end == 3.0 for s in closed)

    def test_new_incarnation_partitions_ids(self):
        tr = SpanTracer()
        tr.begin(0, "ckpt", 0.0)
        tr.end(0, 1.0)
        tr.new_incarnation(1)
        s = tr.begin(0, "restore", 0.0)
        assert s.span_id == "i1.r0.0"
        assert s.incarnation == 1
        assert [x.incarnation for x in tr.spans()] == [0, 1]

    def test_end_without_open_span_is_noop(self):
        assert SpanTracer().end(0, 1.0) is None


class TestRuntimeIntegration:
    def test_spans_recorded_with_virtual_clocks(self):
        def main(ctx):
            with ctx.span("ckpt", epoch=0):
                ctx.elapse(1.0)
                with ctx.span("ckpt.encode", nbytes=64):
                    ctx.elapse(0.5)

        tracer = SpanTracer()
        res = Job(Cluster(2), main, 2, procs_per_node=1, tracer=tracer).run()
        assert res.completed
        spans = tracer.spans()
        assert len(spans) == 4  # 2 spans x 2 ranks
        enc = tracer.by_name("ckpt.encode")
        assert all(s.duration == pytest.approx(0.5) for s in enc)
        assert all(s.attrs == {"nbytes": 64} for s in enc)
        for s in enc:
            (parent,) = [p for p in tracer.spans() if p.span_id == s.parent_id]
            assert parent.name == "ckpt" and parent.rank == s.rank

    def test_no_tracer_is_noop(self):
        def main(ctx):
            with ctx.span("ckpt"):
                ctx.elapse(0.1)
            return True

        res = Job(Cluster(1), main, 1, procs_per_node=1).run()
        assert res.completed

    def test_exception_marks_span_interrupted(self):
        def main(ctx):
            try:
                with ctx.span("ckpt"):
                    raise RuntimeError("boom")
            except RuntimeError:
                return True

        tracer = SpanTracer()
        res = Job(Cluster(1), main, 1, procs_per_node=1, tracer=tracer).run()
        assert res.completed
        (span,) = tracer.spans()
        assert span.status == STATUS_INTERRUPTED

    def test_failure_closes_open_spans_interrupted(self):
        def main(ctx):
            with ctx.span("ckpt"):
                ctx.phase("ckpt.encode")  # the trigger fires here
                ctx.elapse(1.0)

        tracer = SpanTracer()
        plan = FailurePlan([PhaseTrigger(node_id=1, phase="ckpt.encode")])
        res = Job(
            Cluster(2), main, 2, procs_per_node=1,
            failure_plan=plan, tracer=tracer,
        ).run()
        assert res.aborted
        dead = [s for s in tracer.spans() if s.rank == 1]
        assert dead and all(s.status == STATUS_INTERRUPTED for s in dead)
        assert all(s.closed for s in tracer.spans())

    def test_span_ids_deterministic_across_runs(self):
        def main(ctx):
            for e in range(3):
                with ctx.span("ckpt", epoch=e):
                    ctx.elapse(0.25)
                    ctx.world.barrier()

        def fingerprint():
            tracer = SpanTracer()
            Job(Cluster(2), main, 2, procs_per_node=1, tracer=tracer).run()
            return [
                (s.span_id, s.name, s.rank, s.begin, s.end, s.status)
                for s in tracer.spans()
            ]

        assert fingerprint() == fingerprint()

    def test_status_literals_match_obs_constants(self):
        # runtime._SpanHandle uses string literals to avoid importing obs;
        # they must stay in sync with the canonical constants
        assert STATUS_OK == "ok"
        assert STATUS_INTERRUPTED == "interrupted"
