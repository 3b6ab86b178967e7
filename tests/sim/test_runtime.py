"""Tests for job execution, abort semantics, and failure delivery."""

import pytest

from repro.sim import (
    Cluster,
    FailurePlan,
    Job,
    JobAbortedError,
    NodeFailedError,
    PhaseTrigger,
    SimError,
    TimeTrigger,
)
from repro.sim.runtime import RankExit


class TestBasicExecution:
    def test_results_collected_per_rank(self):
        cl = Cluster(2)
        res = Job(cl, lambda ctx: ctx.rank * 2, 4, procs_per_node=2).run()
        assert res.completed
        assert res.rank_results == {0: 0, 1: 2, 2: 4, 3: 6}

    def test_args_forwarded(self):
        cl = Cluster(1)
        res = Job(cl, lambda ctx, a, b: a + b, 2, args=(3, 4), procs_per_node=2).run()
        assert res.rank_results[0] == 7

    def test_rank_exit_value(self):
        def main(ctx):
            raise RankExit("early")

        cl = Cluster(1)
        res = Job(cl, main, 2, procs_per_node=2).run()
        assert res.completed
        assert res.rank_results == {0: "early", 1: "early"}

    def test_makespan_is_slowest_rank(self):
        def main(ctx):
            ctx.elapse(float(ctx.rank))
            return None

        cl = Cluster(4)
        res = Job(cl, main, 4, procs_per_node=1).run()
        assert res.makespan == pytest.approx(3.0)

    def test_user_exception_raises_simerror(self):
        def main(ctx):
            if ctx.rank == 1:
                raise ValueError("user bug")
            ctx.world.barrier()

        cl = Cluster(2)
        with pytest.raises(SimError, match="crashed"):
            Job(cl, main, 2, procs_per_node=1).run()

    def test_ranklist_validation(self):
        cl = Cluster(2)
        with pytest.raises(ValueError):
            Job(cl, lambda ctx: None, 2, ranklist=[0])
        cl.fail_node(1)
        with pytest.raises(SimError):
            Job(cl, lambda ctx: None, 2, ranklist=[0, 1])


class TestFailureDelivery:
    def _blocked_app(self, ctx):
        ctx.phase("work")
        ctx.world.barrier()  # survivors block here when a peer dies
        ctx.phase("after")
        return "done"

    def test_phase_trigger_aborts_world(self):
        cl = Cluster(4)
        plan = FailurePlan([PhaseTrigger(node_id=2, phase="work")])
        res = Job(cl, self._blocked_app, 4, procs_per_node=1, failure_plan=plan).run()
        assert res.aborted
        assert res.failed_nodes == [2]
        assert not cl.node(2).alive
        kinds = {r: type(e) for r, e in res.rank_errors.items()}
        assert kinds[2] is NodeFailedError
        assert all(k is JobAbortedError for r, k in kinds.items() if r != 2)

    def test_time_trigger(self):
        def main(ctx):
            for _ in range(100):
                ctx.elapse(0.1)
                ctx.world.barrier()
            return True

        cl = Cluster(2)
        plan = FailurePlan([TimeTrigger(node_id=1, at_time=2.05)])
        res = Job(cl, main, 2, procs_per_node=1, failure_plan=plan).run()
        assert res.aborted
        assert cl.node(1).failed_at == pytest.approx(2.1, abs=0.2)

    def test_shm_survives_on_healthy_nodes_only(self):
        def main(ctx):
            seg = ctx.shm_create(f"state.{ctx.rank}", 4)
            seg.array[:] = ctx.rank
            ctx.world.barrier()  # all segments exist before anyone can die
            ctx.phase("work")
            ctx.world.barrier()

        cl = Cluster(4)
        plan = FailurePlan([PhaseTrigger(node_id=1, phase="work")])
        Job(cl, main, 4, procs_per_node=1, failure_plan=plan).run()
        assert cl.node(0).shm.exists("state.0")
        assert cl.node(2).shm.exists("state.2")
        assert not cl.node(1).shm.exists("state.1")  # lost with the node

    def test_co_resident_ranks_die_together(self):
        def main(ctx):
            ctx.phase("work")
            ctx.world.barrier()

        cl = Cluster(2)
        plan = FailurePlan([PhaseTrigger(node_id=0, phase="work")])
        res = Job(cl, main, 4, procs_per_node=2, failure_plan=plan).run()
        assert res.aborted
        dead_ranks = {
            r for r, e in res.rank_errors.items() if isinstance(e, NodeFailedError)
        }
        assert dead_ranks == {0, 1}  # both ranks of node 0

    def test_abort_without_failure(self):
        def main(ctx):
            if ctx.rank == 0:
                ctx.job.abort()
                ctx.phase("x")
            else:
                ctx.world.barrier()

        cl = Cluster(2)
        res = Job(cl, main, 2, procs_per_node=1).run()
        assert res.aborted and res.failed_nodes == []

    def test_restart_attaches_to_prior_shm(self):
        """The core restart pattern: healthy-node SHM persists across jobs."""

        def writer(ctx):
            ctx.shm_create(f"d.{ctx.rank}", 4).array[:] = 7.0

        def reader(ctx):
            return float(ctx.shm_create(f"d.{ctx.rank}", 4, exist_ok=True).array[0])

        cl = Cluster(2)
        Job(cl, writer, 2, procs_per_node=1).run()
        res = Job(cl, reader, 2, procs_per_node=1).run()
        assert res.rank_results == {0: 7.0, 1: 7.0}

    def test_deadlock_watchdog(self):
        def main(ctx):
            if ctx.rank == 0:
                ctx.world.recv(1)  # never sent
            return True

        cl = Cluster(2)
        res = Job(cl, main, 2, procs_per_node=1).run()
        assert not res.completed
        assert isinstance(res.rank_errors[0], SimError)


class TestPhaseLog:
    def test_phases_recorded(self):
        from repro.obs.spans import SpanTracer

        def main(ctx):
            ctx.phase("a")
            ctx.phase("b")

        cl = Cluster(1)
        tracer = SpanTracer()
        assert Job(cl, main, 1, procs_per_node=1, tracer=tracer).run().completed
        assert [(e.rank, e.name) for e in tracer.phases()] == [(0, "a"), (0, "b")]
