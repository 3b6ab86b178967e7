"""Deadlock is the runtime's to report: when no rank is ready, the parking
rank raises one :class:`SimError` naming every wait, diagnosing a mismatched
tag and ending in the phase timeline."""

import time

from repro.apps.iterative import IterativeConfig, iterative_main
from repro.obs.spans import SpanTracer
from repro.sim import Cluster, Job, SimError


def run_seeded_deadlock():
    """Deliberately deadlocked: mismatched send/recv tags (the sender uses
    tag 1, the receiver waits on tag 99), traced so the report carries the
    timeline."""

    def app(ctx):
        comm = ctx.world
        ctx.phase("exchange.begin")
        if comm.rank == 0:
            comm.send(b"payload", dest=1, tag=1)
            comm.recv(source=1, tag=2)
        else:
            # BUG (on purpose): rank 0 sent tag=1, we wait on tag=99
            comm.recv(source=0, tag=99)
            comm.send(b"reply", dest=0, tag=2)
        ctx.phase("exchange.done")
        return True

    return Job(Cluster(2), app, 2, procs_per_node=1, tracer=SpanTracer()).run()


def deadlock_report(result) -> str:
    """The text of the run's one deadlock :class:`SimError`."""
    errors = [e for e in result.rank_errors.values() if type(e) is SimError]
    assert len(errors) == 1, result.rank_errors
    return str(errors[0])


def _run(app, n_ranks):
    return Job(Cluster(n_ranks), app, n_ranks, procs_per_node=1, name="dl").run()


class TestSeededDeadlock:
    def test_mismatched_tags_reported_as_cycle(self):
        """A mismatched send/recv tag pair ends the run in one deadlock
        error naming both ranks' waits."""
        result = run_seeded_deadlock()
        assert result.aborted and not result.completed
        report = deadlock_report(result)
        assert report.startswith("deadlock: every live rank is parked")
        assert "rank 0 in recv src=1 tag=2" in report
        assert "rank 1 in recv src=0 tag=99" in report

    def test_stuck_tag_diagnosis_present(self):
        report = deadlock_report(run_seeded_deadlock())
        assert "tag=99" in report and "tag=1" in report
        assert (
            "rank 1 waits for tag=99 from rank 0, but 1 message(s) with tag=1 "
            "are queued from that rank — mismatched send/recv tags"
        ) in report

    def test_detection_beats_wallclock_timeout(self):
        """The runtime raises at the park that leaves no rank ready; no
        wall-clock safety net is left to wait out."""
        t0 = time.monotonic()
        result = run_seeded_deadlock()
        assert time.monotonic() - t0 < 1.0
        deadlock_report(result)

    def test_timeline_rendered_when_traced(self):
        lines = deadlock_report(run_seeded_deadlock()).splitlines()
        # the report ends in the timeline: both parked ranks starred at the
        # one phase they announced, then the axis and the legend
        assert lines[-4].startswith("r0  *|a") and lines[-3].startswith("r1  *|a")
        assert lines[-1].strip() == "a=exchange.begin"

    def test_collective_vs_recv_mismatch(self):
        """One rank skips a barrier and waits on a message nobody sends:
        the report names the barrier's missing member."""

        def app(ctx):
            comm = ctx.world
            if comm.rank == 0:
                # BUG (on purpose): waits for a message that never comes
                # instead of joining the barrier
                comm.recv(source=1, tag=3)
            comm.barrier()
            return True

        result = _run(app, 2)
        assert result.aborted
        report = deadlock_report(result)
        assert "rank 0 in recv src=1 tag=3 on dl.world" in report
        assert "rank 1 in collective on dl.world, waiting for ranks [0]" in report

    def test_three_rank_ring_deadlock(self):
        def app(ctx):
            comm = ctx.world
            # everyone receives from the left neighbour first: classic
            # circular wait (no one ever sends)
            left = (comm.rank - 1) % comm.size
            comm.recv(source=left, tag=0)
            comm.send(None, dest=(comm.rank + 1) % comm.size, tag=0)
            return True

        result = _run(app, 3)
        assert result.aborted
        report = deadlock_report(result)
        for rank in range(3):
            assert f"rank {rank} in recv src={(rank - 1) % 3} tag=0" in report
        assert "mismatched" not in report

    def test_subset_cycle_is_reported_once_the_rest_return(self):
        """Ranks 0 and 1 deadlock on mismatched tags while rank 2 computes
        and returns: the run still ends in one report, on the pair alone."""

        def app(ctx):
            comm = ctx.world
            if comm.rank == 0:
                comm.send(b"x", dest=1, tag=1)
                comm.recv(source=1, tag=2)
            elif comm.rank == 1:
                comm.recv(source=0, tag=99)  # BUG (on purpose)
                comm.send(b"y", dest=0, tag=2)
            else:
                ctx.compute(1e9)
            return True

        result = _run(app, 3)
        assert result.rank_results == {2: True}
        report = deadlock_report(result)
        assert "rank 0 in recv src=1 tag=2" in report
        assert "rank 1 in recv src=0 tag=99" in report
        assert "rank 2" not in report
        assert "rank 1 waits for tag=99 from rank 0" in report

    def test_split_communicator_waits_are_named_in_world_ranks(self):
        """On ``world.split(rank % 2)`` world rank 1 is rank 0 of its half
        and waits on world rank 3 — not on itself."""

        def app(ctx):
            sub = ctx.world.split(ctx.rank % 2)
            if ctx.rank % 2:
                sub.recv(source=1 - sub.rank, tag=5)  # both odd ranks wait
            else:
                sub.barrier()
            return True

        report = deadlock_report(_run(app, 4))
        assert "rank 1 in recv src=3 tag=5 on dl.world/split1.1" in report
        assert "rank 3 in recv src=1 tag=5 on dl.world/split1.1" in report


class TestNoFalsePositives:
    def test_clean_self_checkpoint_run(self):
        """The paper's protocol (four ranks, one group, a checkpoint every
        two of four iterations) runs to completion, traced."""
        cfg = IterativeConfig(iters=4, ckpt_every=2, group_size=4)
        job = Job(
            Cluster(4), iterative_main, 4, args=(cfg,), procs_per_node=1, tracer=SpanTracer()
        )
        result = job.run()
        assert result.completed, result.rank_errors

    def test_blocked_recv_with_late_sender_is_not_a_deadlock(self):
        """A receiver that parks before its sender runs is woken by the
        send, not reported."""

        def app(ctx):
            comm = ctx.world
            if comm.rank == 0:
                got = comm.recv(source=1, tag=4)
                assert got == "late"
            else:
                comm.send("late", dest=0, tag=4)
            return True

        result = _run(app, 2)
        assert result.completed, result.rank_errors

    def test_back_to_back_collectives_are_clean(self):
        """Waiting for the rest of a collective is never a deadlock."""

        def app(ctx):
            for _ in range(20):
                ctx.world.barrier()
            return True

        result = _run(app, 4)
        assert result.completed, result.rank_errors
