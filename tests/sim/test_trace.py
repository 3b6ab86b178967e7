"""Tests for the phase-announcement stream of the span tracer."""

import pytest

from repro.obs.spans import STATUS_INTERRUPTED, SpanTracer, render_timeline
from repro.sim import Cluster, FailurePlan, Job, PhaseTrigger


def traced_run(main, n_ranks=4):
    tracer = SpanTracer()
    cluster = Cluster(n_ranks)
    res = Job(cluster, main, n_ranks, procs_per_node=1, tracer=tracer).run()
    assert res.completed, res.rank_errors
    return tracer


class TestTrace:
    def test_phases_recorded_with_clocks(self):
        def main(ctx):
            ctx.phase("a")
            ctx.elapse(1.0)
            ctx.phase("b")

        tracer = traced_run(main)
        events = tracer.phases()
        assert len(events) == 8  # 2 phases x 4 ranks
        # rank by rank, each rank's announcements in program order
        assert [(e.rank, e.name) for e in events] == [
            (r, name) for r in range(4) for name in ("a", "b")
        ]
        for r in range(4):
            first, second = [e for e in events if e.rank == r]
            assert second.clock - first.clock == pytest.approx(1.0)
        # phase events are their own stream: no span was opened
        assert tracer.spans() == [] and len(tracer) == 0

    def test_no_trace_by_default(self):
        cluster = Cluster(2)
        res = Job(
            cluster, lambda ctx: ctx.phase("x"), 2, procs_per_node=1
        ).run()
        assert res.completed  # phase without a tracer must not crash

    def test_labels(self):
        """Every distinct label gets its own glyph, dealt in sorted order,
        and the legend lists each one — even labels sharing an initial."""

        def main(ctx):
            for name in ("ckpt.flush", "ckpt.begin", "ckpt.done", "ckpt.encode"):
                ctx.phase(name)
                ctx.elapse(1.0)

        out = render_timeline(traced_run(main, n_ranks=1))
        assert out.splitlines()[-1].strip() == (
            "a=ckpt.begin, b=ckpt.done, c=ckpt.encode, d=ckpt.flush"
        )
        row = out.splitlines()[0]
        assert [ch for ch in row[row.index("|"):] if ch.isalpha()] == list("dabc")

    def test_same_seed_runs_record_identical_sequences(self):
        """Two ranks per node: the recorded order is per-rank program
        order, never host thread interleaving."""
        from repro.apps.iterative import IterativeConfig, iterative_main

        def run():
            tracer = SpanTracer()
            cfg = IterativeConfig(iters=4, ckpt_every=2, group_size=2)
            job = Job(
                Cluster(2), iterative_main, 4, args=(cfg,), procs_per_node=2,
                tracer=tracer,
            )
            assert job.run().completed
            return tracer.phases()

        first = run()
        assert first and first == run()


class TestSpans:
    def test_unmatched_begin_reported_open(self):
        """The checkpoint a power-off cuts short stays visible: its span is
        closed as interrupted at the rank's clock of death, and the phase
        stream ends on the announcement the kill landed on."""

        def main(ctx):
            with ctx.span("x"):
                ctx.phase("x.begin")
                ctx.elapse(1.0)
                ctx.phase("x.mid")  # the node dies here
                ctx.elapse(1.0)
                ctx.phase("x.done")

        tracer = SpanTracer()
        plan = FailurePlan([PhaseTrigger(node_id=0, phase="x.mid", occurrence=1)])
        res = Job(
            Cluster(1), main, 1, procs_per_node=1, failure_plan=plan, tracer=tracer
        ).run()
        assert not res.completed
        (span,) = tracer.spans()
        assert span.status == STATUS_INTERRUPTED and span.duration == 1.0
        assert [e.name for e in tracer.phases()] == ["x.begin", "x.mid"]


class TestTimeline:
    def test_renders_rows_per_rank(self):
        def main(ctx):
            ctx.phase("alpha")
            ctx.elapse(1.0)
            ctx.phase("beta")

        out = render_timeline(traced_run(main, n_ranks=3), focus=[1])
        lines = out.splitlines()
        assert lines[0].startswith("r0")
        assert sum(1 for l in lines if l.startswith("r")) == 3
        assert "a=alpha" in out and "b=beta" in out
        assert [l[4] for l in lines[:3]] == [" ", "*", " "]

    def test_empty_trace(self):
        assert render_timeline(SpanTracer()) == "(empty trace)"


class TestCheckpointTracing:
    def test_live_checkpoint_durations_measured(self):
        """A traced SKT-style run yields measurable ``ckpt`` spans in
        virtual time (how Fig. 10 style breakdowns are obtained live),
        bracketing the ckpt.begin ... ckpt.done announcements."""
        from repro.ckpt import CheckpointManager

        def app(ctx):
            mgr = CheckpointManager(ctx, ctx.world, group_size=4, method="self")
            a = mgr.alloc("d", 8192)
            mgr.commit()
            mgr.try_restore()
            for it in range(4):
                a += 1.0
                ctx.compute(1e9)
                mgr.local["it"] = it
                mgr.checkpoint()
            return True

        tracer = SpanTracer()
        cluster = Cluster(4)
        res = Job(cluster, app, 4, procs_per_node=1, tracer=tracer).run()
        assert res.completed
        spans = tracer.by_name("ckpt")
        assert len(spans) == 16  # 4 checkpoints x 4 ranks
        assert all(s.closed and s.duration > 0 for s in spans)
        names = [e.name for e in tracer.phases()]
        assert names.count("ckpt.begin") == names.count("ckpt.done") == 16
