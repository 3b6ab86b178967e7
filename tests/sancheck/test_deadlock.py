"""Tests for the wait-for-graph deadlock detector."""

import time

from repro.sancheck import DeadlockDetector
from repro.sancheck.scenarios import run_clean_selfckpt, run_seeded_deadlock
from repro.sim import Cluster, Job


class TestSeededDeadlock:
    def test_mismatched_tags_reported_as_cycle(self):
        """The issue's acceptance fixture: a mismatched send/recv tag pair
        must be reported as a deadlock cycle."""
        result, det = run_seeded_deadlock()
        assert result.aborted
        assert len(det.findings) == 1
        f = det.findings[0]
        assert f.tool == "deadlock" and f.rule == "deadlock-cycle"
        assert set(f.ranks) == {0, 1}

    def test_stuck_tag_diagnosis_present(self):
        _, det = run_seeded_deadlock()
        detail = det.findings[0].detail
        assert "tag=99" in detail and "tag=1" in detail
        assert "mismatched send/recv tags" in detail

    def test_detection_beats_wallclock_timeout(self):
        """Structural detection fires at the block event that closes the
        cycle; no wall-clock safety net is left to wait out."""
        t0 = time.monotonic()
        result, det = run_seeded_deadlock()
        assert time.monotonic() - t0 < 5.0
        assert det.findings

    def test_timeline_rendered_when_traced(self):
        _, det = run_seeded_deadlock()
        lines = det.findings[0].detail.splitlines()
        # the detail ends in the timeline: both ranks of the cycle starred
        # at the one phase they announced, then the axis and the legend
        assert lines[-4].startswith("r0  *|a") and lines[-3].startswith("r1  *|a")
        assert lines[-1].strip() == "a=exchange.begin"

    def test_collective_vs_recv_mismatch(self):
        """One rank skips a barrier and waits on a message nobody sends:
        the cycle runs through the collective's missing-member edge."""

        def app(ctx):
            comm = ctx.world
            if comm.rank == 0:
                # BUG (on purpose): waits for a message that never comes
                # instead of joining the barrier
                comm.recv(source=1, tag=3)
            comm.barrier()
            return True

        cluster = Cluster(2)
        det = DeadlockDetector()
        job = Job(cluster, app, 2, procs_per_node=1)
        det.install(job)
        result = job.run()
        assert result.aborted
        assert len(det.findings) == 1
        assert set(det.findings[0].ranks) == {0, 1}

    def test_three_rank_ring_deadlock(self):
        def app(ctx):
            comm = ctx.world
            # everyone receives from the left neighbour first: classic
            # circular wait (no one ever sends)
            left = (comm.rank - 1) % comm.size
            comm.recv(source=left, tag=0)
            comm.send(None, dest=(comm.rank + 1) % comm.size, tag=0)
            return True

        cluster = Cluster(3)
        det = DeadlockDetector()
        job = Job(cluster, app, 3, procs_per_node=1)
        det.install(job)
        result = job.run()
        assert result.aborted
        assert set(det.findings[0].ranks) == {0, 1, 2}


class TestNoFalsePositives:
    def test_clean_self_checkpoint_run(self):
        result, _, deadlock = run_clean_selfckpt()
        assert result.completed, result.rank_errors
        assert deadlock.findings == []

    def test_blocked_recv_with_late_sender_is_not_a_deadlock(self):
        """A receiver waiting on a slow-but-running sender must not be
        flagged; the in-flight message makes the wait satisfiable."""

        def app(ctx):
            comm = ctx.world
            if comm.rank == 0:
                got = comm.recv(source=1, tag=4)
                assert got == "late"
            else:
                comm.send("late", dest=0, tag=4)
            return True

        cluster = Cluster(2)
        det = DeadlockDetector()
        job = Job(cluster, app, 2, procs_per_node=1)
        det.install(job)
        result = job.run()
        assert result.completed, result.rank_errors
        assert det.findings == []

    def test_back_to_back_collectives_are_clean(self):
        """Join-gate blocking (waiting for the previous collective to
        drain) must never look like a cycle."""

        def app(ctx):
            for _ in range(20):
                ctx.world.barrier()
            return True

        cluster = Cluster(4)
        det = DeadlockDetector()
        job = Job(cluster, app, 4, procs_per_node=1)
        det.install(job)
        result = job.run()
        assert result.completed, result.rank_errors
        assert det.findings == []

    def test_abort_can_be_disabled(self):
        _, det = run_seeded_deadlock_no_abort()
        assert det.findings  # still detected, job died via the safety net


def run_seeded_deadlock_no_abort():
    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            comm.send(b"x", dest=1, tag=1)
            comm.recv(source=1, tag=2)
        else:
            comm.recv(source=0, tag=99)
            comm.send(b"y", dest=0, tag=2)
        return True

    cluster = Cluster(2)
    det = DeadlockDetector(abort_on_deadlock=False)
    job = Job(cluster, app, 2, procs_per_node=1)
    det.install(job)
    result = job.run()
    return result, det
