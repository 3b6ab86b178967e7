"""Tests for the cluster (spares, ranklists) and failure machinery."""

import pytest

from repro.sim import (
    Cluster,
    FailurePlan,
    Job,
    MTBFFailureGenerator,
    NodeSpec,
    PhaseTrigger,
    SimError,
    TimeTrigger,
)


class TestCluster:
    def test_sizes(self):
        cl = Cluster(4, n_spares=2)
        assert len(cl.nodes) == 4
        assert [n.node_id for n in cl.all_nodes() if n not in cl.nodes] == [4, 5]
        assert len(cl.all_nodes()) == 6

    def test_needs_one_node(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_default_ranklist_block_placement(self):
        cl = Cluster(3, NodeSpec(cores=2))
        assert cl.default_ranklist(6) == [0, 0, 1, 1, 2, 2]
        assert cl.default_ranklist(3, procs_per_node=1) == [0, 1, 2]

    @pytest.mark.parametrize("ppn", [0, -1])
    def test_procs_per_node_below_one_rejected(self, ppn):
        """``0`` would fall back to the core count (``0 or cores``) and
        ``-1`` would place ranks through negative indexing."""
        cl = Cluster(4, NodeSpec(cores=2))
        with pytest.raises(ValueError, match="procs_per_node"):
            cl.default_ranklist(4, procs_per_node=ppn)
        with pytest.raises(ValueError, match="procs_per_node"):
            Job(cl, lambda ctx: None, 4, procs_per_node=ppn)

    def test_ranklist_overflow(self):
        cl = Cluster(2, NodeSpec(cores=2))
        with pytest.raises(SimError):
            cl.default_ranklist(5)

    def test_replace_dead_uses_spares_in_order(self):
        cl = Cluster(4, n_spares=2)
        cl.fail_node(1)
        cl.fail_node(3)
        repl = cl.replace_dead()
        assert repl == {1: 4, 3: 5}
        assert [n.node_id for n in cl.nodes] == [0, 4, 2, 5]
        assert cl.dead_nodes() == []

    def test_spare_pool_exhaustion(self):
        cl = Cluster(2, n_spares=0)
        cl.fail_node(0)
        with pytest.raises(SimError):
            cl.replace_dead()

    def test_dead_spare_skipped(self):
        cl = Cluster(2, n_spares=2)
        cl.fail_node(2)  # kill the first spare
        cl.fail_node(0)
        repl = cl.replace_dead()
        assert repl == {0: 3}

    def test_ranks_on_node(self):
        cl = Cluster(2, NodeSpec(cores=2))
        rl = cl.default_ranklist(4)
        assert cl.ranks_on_node(rl, 0) == [0, 1]
        assert cl.ranks_on_node(rl, 1) == [2, 3]

    def test_stable_store_survives_failure(self):
        cl = Cluster(2)
        cl.stable_store["k"] = b"data"
        cl.fail_node(0)
        assert cl.stable_store["k"] == b"data"


class TestTriggers:
    def test_time_trigger_fires_once(self):
        plan = FailurePlan([TimeTrigger(node_id=1, at_time=5.0)])
        assert not plan.check_time(1, 4.9)
        assert plan.check_time(1, 5.0)
        assert not plan.check_time(1, 6.0)  # consumed
        assert len(plan.fired) == 1

    def test_time_trigger_other_node_ignored(self):
        plan = FailurePlan([TimeTrigger(node_id=1, at_time=5.0)])
        assert not plan.check_time(0, 100.0)

    def test_phase_trigger_occurrence(self):
        plan = FailurePlan([PhaseTrigger(node_id=0, phase="ckpt", occurrence=3)])
        assert not plan.announce(0, 0, "ckpt", 0.0)
        assert not plan.announce(0, 0, "ckpt", 0.0)
        assert plan.announce(0, 0, "ckpt", 0.0)

    def test_phase_trigger_rank_filter(self):
        plan = FailurePlan([PhaseTrigger(node_id=0, phase="p", rank=2)])
        assert not plan.announce(0, 1, "p", 0.0)
        assert plan.announce(0, 2, "p", 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeTrigger(node_id=0, at_time=-1)
        # a deadline no clock ever reaches is a trigger that never fires
        for never in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                TimeTrigger(node_id=0, at_time=never)
        with pytest.raises(ValueError):
            PhaseTrigger(node_id=0, phase="p", occurrence=0)
        # a pin fixes the node's death key, which needs its clock
        with pytest.raises(ValueError, match="fire_clock"):
            PhaseTrigger(node_id=0, phase="p", via_rank=1, via_occurrence=1)
        # ... of one node: extra nodes would die in host order
        with pytest.raises(ValueError, match="extra_nodes"):
            PhaseTrigger(
                node_id=0, phase="p", via_rank=1, via_occurrence=1,
                fire_clock=1.0, extra_nodes=(1,),
            )


class TestRankScopedTriggers:
    """Rank-scoped phase triggers count the *target rank's* announcements,
    not the node-wide total (the historical misfire: with several ranks per
    node, another rank's announcements advanced the count and the trigger
    fired on the wrong rank's phase, or early)."""

    def test_non_target_rank_does_not_advance_count(self):
        plan = FailurePlan(
            [PhaseTrigger(node_id=0, phase="p", rank=1, occurrence=2)]
        )
        assert not plan.announce(0, 0, "p", 0.0)  # rank 0 announces first
        assert not plan.announce(0, 1, "p", 0.0)  # rank 1's 1st
        assert not plan.announce(0, 0, "p", 0.0)  # rank 0 again
        assert plan.announce(0, 1, "p", 0.0)  # rank 1's 2nd -> fires

    def test_rank_scoped_ignores_high_node_wide_count(self):
        # node-wide count far past the occurrence before the target rank
        # ever announces: the trigger must wait for the rank's own 1st
        plan = FailurePlan([PhaseTrigger(node_id=0, phase="p", rank=2)])
        for _ in range(5):
            assert not plan.announce(0, 0, "p", 0.0)
        assert plan.announce(0, 2, "p", 0.0)
        assert plan.fired[0].rank == 2
        assert plan.fired[0].count == 1

    def test_node_wide_trigger_counts_all_ranks(self):
        plan = FailurePlan([PhaseTrigger(node_id=0, phase="p", occurrence=3)])
        assert not plan.announce(0, 0, "p", 0.0)
        assert not plan.announce(0, 1, "p", 0.0)
        assert plan.announce(0, 2, "p", 0.0)  # 3rd announcement on the node

    def test_fired_record_provenance(self):
        plan = FailurePlan([PhaseTrigger(node_id=3, phase="ckpt.flush")])
        plan.announce(3, 1, "ckpt.flush", 7.5)
        (rec,) = plan.fired
        assert rec.node_id == 3
        assert rec.phase == "ckpt.flush"
        assert rec.rank == 1
        assert rec.clock == 7.5
        assert "ckpt.flush" in rec.describe()

    def test_rank_scoped_in_multirank_job(self):
        """Integration: two ranks per node; the non-target rank announces
        the phase first (earlier virtual time) yet the trigger kills the
        node only at the target rank's own announcement."""
        plan = FailurePlan(
            [PhaseTrigger(node_id=0, phase="work", rank=1, occurrence=1)]
        )
        cl = Cluster(2, NodeSpec(cores=2))

        def main(ctx):
            if ctx.rank == 1:
                ctx.elapse(0.5)  # the target rank announces last
            ctx.phase("work")
            ctx.elapse(1.0)

        result = Job(cl, main, 4, failure_plan=plan, procs_per_node=2).run()
        assert not result.completed
        assert result.failed_nodes == [0]
        (rec,) = plan.fired
        assert rec.rank == 1
        assert rec.clock == pytest.approx(0.5)


class TestMTBF:
    def test_deterministic_with_seed(self):
        a = MTBFFailureGenerator(1000.0, seed=3).draw_failure_time()
        b = MTBFFailureGenerator(1000.0, seed=3).draw_failure_time()
        assert a == b

    def test_schedule_within_horizon(self):
        gen = MTBFFailureGenerator(100.0, seed=1)
        trig = gen.schedule(list(range(50)), horizon_s=50.0)
        assert all(t.at_time <= 50.0 for t in trig)
        assert trig == sorted(trig, key=lambda t: t.at_time)

    def test_system_mtbf_scales_inversely(self):
        gen = MTBFFailureGenerator(1e6)
        assert gen.system_mtbf(1000) == pytest.approx(1e3)

    def test_mean_is_roughly_mtbf(self):
        gen = MTBFFailureGenerator(500.0, seed=7)
        xs = [gen.draw_failure_time() for _ in range(4000)]
        assert sum(xs) / len(xs) == pytest.approx(500.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            MTBFFailureGenerator(0)
        for never in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                MTBFFailureGenerator(never)

    def test_repeated_failures_per_node(self):
        """A horizon spanning many MTBFs draws *several* failures per node
        (the historical bug: one draw per node, silently understating the
        failure rate for long runs)."""
        gen = MTBFFailureGenerator(10.0, seed=5)
        trig = gen.schedule([0, 1], horizon_s=100.0)
        per_node = {n: sum(1 for t in trig if t.node_id == n) for n in (0, 1)}
        assert all(c >= 2 for c in per_node.values())

    def test_max_failures_per_node_cap(self):
        gen = MTBFFailureGenerator(1.0, seed=5)
        trig = gen.schedule([0, 1, 2], horizon_s=1000.0, max_failures_per_node=3)
        for n in (0, 1, 2):
            assert sum(1 for t in trig if t.node_id == n) == 3

    def test_per_node_times_strictly_increase(self):
        gen = MTBFFailureGenerator(5.0, seed=9)
        trig = gen.schedule([0], horizon_s=60.0)
        times = [t.at_time for t in trig]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_schedule_deterministic(self):
        a = MTBFFailureGenerator(10.0, seed=4).schedule([0, 1], horizon_s=80.0)
        b = MTBFFailureGenerator(10.0, seed=4).schedule([0, 1], horizon_s=80.0)
        assert a == b
