"""Tests for the kill-matrix campaign engine (repro.chaos)."""

import pytest

from repro.chaos import (
    ChaosScenario,
    KillPoint,
    RandomCampaignConfig,
    VERDICT_NOT_FIRED,
    VERDICT_SURVIVED,
    VERDICT_UNRECOVERABLE,
    VERDICT_WRONG_ANSWER,
    ChaosError,
    enumerate_kill_points,
    probe_baseline,
    random_campaign,
    render_campaign,
    render_matrix,
    run_kill_matrix,
    run_kill_point,
    run_schedule,
)
from repro.chaos.bench import bench_json, bench_record
from repro.sim.failures import PhaseTrigger, TimeTrigger
from tests.chaos.helpers import SilentCorruptRecover, small_scenario


class OracleNeverPasses(ChaosScenario):
    """The recipe with an answer oracle no run can pass."""

    def make(self):
        inst = super().make()
        inst.check = lambda result: False
        return inst


class TestProbe:
    def test_counts_every_ckpt_phase_per_node(self):
        probe = probe_baseline(small_scenario())
        assert probe.nodes == [0, 1]
        # iters=4, ckpt_every=2 -> 2 checkpoints; 1 rank per node
        for node in (0, 1):
            for phase in ("ckpt.begin", "ckpt.encode", "ckpt.flush"):
                assert probe.phase_counts[(node, phase)] == 2
        # fault-free run announces no restore phases
        assert not any("restore" in p for p in probe.phases)

    def test_broken_baseline_raises(self):
        # an oracle that can never pass must abort the campaign up front
        base = small_scenario()
        sc = OracleNeverPasses(base.kind, base.kwargs)
        with pytest.raises(ChaosError, match="oracle"):
            probe_baseline(sc)

    def test_multirank_counts_are_per_node(self):
        probe = probe_baseline(small_scenario(procs_per_node=2, n_nodes=2))
        # 2 ranks per node each announce every phase: per-node count doubles
        assert probe.phase_counts[(0, "ckpt.begin")] == 4


class TestEnumeration:
    def test_expands_occurrences(self):
        probe = probe_baseline(small_scenario())
        points = enumerate_kill_points(probe)
        assert KillPoint("ckpt.encode", 1, 0) in points
        assert KillPoint("ckpt.encode", 2, 1) in points
        # 6 phases x 2 occurrences x 2 nodes
        assert len(points) == 24

    def test_filters_and_cap(self):
        probe = probe_baseline(small_scenario())
        points = enumerate_kill_points(
            probe, nodes=[0], phases=["ckpt.flush"], max_occurrences=1
        )
        assert points == [KillPoint("ckpt.flush", 1, 0)]

    def test_deterministic_order(self):
        probe = probe_baseline(small_scenario())
        assert enumerate_kill_points(probe) == enumerate_kill_points(probe)


class TestKillMatrix:
    def test_self_survives_every_kill_point(self):
        """Acceptance: the paper's survivability claim, exhaustively — a
        node loss at *every* announced phase occurrence on *every* node of
        a 2-node-group cluster recovers to the right answer."""
        report = run_kill_matrix(small_scenario())
        assert len(report.results) == 24
        assert report.survived_all
        covered = {r.point.phase for r in report.results}
        assert "ckpt.encode" in covered and "ckpt.flush" in covered

    def test_broken_protocol_caught_as_wrong_answer(self):
        """Regression: a protocol that silently corrupts recovered data
        must show up in the matrix as wrong-answer, not survived."""
        report = run_kill_matrix(
            small_scenario(protocol_factory=SilentCorruptRecover)
        )
        assert not report.survived_all
        verdicts = {r.verdict for r in report.failures()}
        assert verdicts == {VERDICT_WRONG_ANSWER}
        # the corruption only bites once a checkpoint exists to recover from
        caught = {r.point.label for r in report.failures()}
        assert "ckpt.flush:2@n0" in caught

    def test_never_announced_phase_is_not_fired(self):
        result = run_kill_point(
            small_scenario(), KillPoint("no.such.phase", 1, 0)
        )
        assert result.verdict == VERDICT_NOT_FIRED

    def test_unrecoverable_double_loss(self):
        # losing 2 members of a 3-wide XOR group while the third still
        # holds state exceeds the code's tolerance
        sc = small_scenario(n_nodes=3, group_size=3)
        triggers = [TimeTrigger(node_id=0, at_time=2.5, extra_nodes=(1,))]
        result = run_schedule(sc, triggers)
        assert result.verdict == VERDICT_UNRECOVERABLE

    def test_whole_group_loss_restarts_fresh_and_survives(self):
        # losing *all* state is not unrecoverable: the job recomputes from
        # scratch and still reaches the right answer
        sc = small_scenario()
        triggers = [TimeTrigger(node_id=0, at_time=2.5, extra_nodes=(1,))]
        result = run_schedule(sc, triggers)
        assert result.verdict == VERDICT_SURVIVED

    def test_metrics_registry_counters(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sc = small_scenario()
        probe = probe_baseline(sc)
        run_kill_matrix(
            sc,
            probe=probe,
            nodes=[0],
            phases=["ckpt.done"],
            registry=registry,
        )
        assert registry.total("chaos.kill_points") == 2
        assert registry.total("chaos.survived") == 2
        assert registry.total("chaos.runs") == 3  # 2 points + baseline


class TestReportAndBench:
    def test_render_matrix_symbols(self):
        sc = small_scenario()
        probe = probe_baseline(sc)
        report = run_kill_matrix(
            sc, probe=probe, phases=["ckpt.begin"], max_occurrences=1
        )
        text = render_matrix(report)
        assert "survivability matrix" in text
        assert "ckpt.begin:1" in text
        assert "S=survived" in text

    def test_bench_record_roundtrip(self):
        sc = small_scenario()
        probe = probe_baseline(sc)
        report = run_kill_matrix(
            sc, probe=probe, phases=["ckpt.flush"], max_occurrences=1
        )
        cfg = RandomCampaignConfig(n_schedules=2, seed=3)
        schedules = random_campaign(sc, cfg, probe=probe)
        record = bench_record([report], schedules, seed=3)
        assert record["bench"] == "chaos"
        assert record["survived_all"] is True
        assert len(record["matrices"][0]["matrix"]) == 2
        assert len(record["random"]) == 2
        import json

        parsed = json.loads(bench_json(record))
        assert parsed == record

    def test_render_campaign_verdict_line(self):
        sc = small_scenario()
        probe = probe_baseline(sc)
        report = run_kill_matrix(
            sc, probe=probe, phases=["ckpt.done"], max_occurrences=1
        )
        text = render_campaign([report])
        assert "campaign verdict: all kill points survived" in text


class TestRankScopedKill:
    def test_rank_scoped_trigger_under_daemon(self):
        """A rank-scoped kill in a 2-ranks-per-node job must fire on the
        target rank's own announcement and still be survivable."""
        sc = small_scenario(procs_per_node=2, group_size=2)
        triggers = [
            PhaseTrigger(node_id=0, phase="ckpt.encode", rank=1, occurrence=1)
        ]
        result = run_schedule(sc, triggers)
        assert result.verdict == VERDICT_SURVIVED
        assert any("rank 1" in f for f in result.fired)
