"""Tests for randomized campaigns and the schedule shrinker."""

import pytest

from repro.chaos import (
    RandomCampaignConfig,
    VERDICT_SURVIVED,
    VERDICT_UNRECOVERABLE,
    ChaosError,
    generate_schedule,
    probe_baseline,
    random_campaign,
    run_kill_matrix,
    run_schedule,
    selfckpt_scenario,
    shrink_failures,
    shrink_schedule,
)
from repro.chaos.bench import bench_json, bench_record
from repro.sim.failures import PhaseTrigger, TimeTrigger


def scenario(**kw):
    kw.setdefault("n_nodes", 3)
    kw.setdefault("procs_per_node", 1)
    kw.setdefault("group_size", 3)
    kw.setdefault("iters", 4)
    kw.setdefault("ckpt_every", 2)
    kw.setdefault("method", "self")
    return selfckpt_scenario(**kw)


def lethal_schedule():
    """One double loss (2 of a 3-wide group, third member keeps state)
    buried between two survivable decoys."""
    return [
        PhaseTrigger(node_id=2, phase="ckpt.begin", occurrence=1),
        TimeTrigger(node_id=0, at_time=2.5, extra_nodes=(1,)),
        PhaseTrigger(node_id=2, phase="ckpt.done", occurrence=2),
    ]


class TestRandomCampaign:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RandomCampaignConfig(n_schedules=0)
        with pytest.raises(ValueError):
            RandomCampaignConfig(mtbf_scale=0)

    def test_generate_is_seed_deterministic(self):
        probe = probe_baseline(scenario())
        cfg = RandomCampaignConfig(seed=11)
        assert generate_schedule(probe, cfg, 42) == generate_schedule(
            probe, cfg, 42
        )
        # different seeds explore different schedules (across a few tries)
        alts = [generate_schedule(probe, cfg, s) for s in range(5)]
        assert any(a != alts[0] for a in alts)

    def test_campaign_same_seed_byte_identical_verdicts(self):
        """Same (scenario params, seed) => byte-identical artifact."""
        sc = scenario()
        probe = probe_baseline(sc)
        cfg = RandomCampaignConfig(n_schedules=4, seed=7, mtbf_scale=0.5)
        a = random_campaign(sc, cfg, probe=probe)
        b = random_campaign(sc, cfg, probe=probe)
        assert [(r.verdict, r.makespan_s, r.fired) for r in a] == [
            (r.verdict, r.makespan_s, r.fired) for r in b
        ]
        matrix = run_kill_matrix(
            sc, probe=probe, phases=["ckpt.done"], max_occurrences=1
        )
        assert bench_json(bench_record([matrix], a, seed=7)) == bench_json(
            bench_record([matrix], b, seed=7)
        )

    def test_multi_failure_schedules_occur(self):
        # a short MTBF relative to the makespan must yield schedules with
        # several failures (the repeated-draw fix in MTBF scheduling)
        probe = probe_baseline(scenario())
        cfg = RandomCampaignConfig(
            n_schedules=6, seed=1, mtbf_scale=0.2, max_failures_per_node=3
        )
        schedules = [
            generate_schedule(probe, cfg, cfg.seed + i)
            for i in range(cfg.n_schedules)
        ]
        assert any(len(s) >= 3 for s in schedules)


class TestShrink:
    def test_shrinks_to_lethal_trigger(self):
        sc = scenario()
        shrink = shrink_schedule(sc, lethal_schedule())
        assert shrink.verdict == VERDICT_UNRECOVERABLE
        assert shrink.minimal == [
            TimeTrigger(node_id=0, at_time=2.5, extra_nodes=(1,))
        ]
        assert len(shrink.steps) >= 2  # both decoys dropped

    def test_minimality(self):
        """Dropping any trigger of the minimal schedule loses the failure."""
        sc = scenario()
        shrink = shrink_schedule(sc, lethal_schedule())
        for i in range(len(shrink.minimal)):
            rest = shrink.minimal[:i] + shrink.minimal[i + 1 :]
            assert run_schedule(sc, rest).verdict != shrink.verdict

    def test_deterministic(self):
        sc = scenario()
        a = shrink_schedule(sc, lethal_schedule())
        b = shrink_schedule(sc, lethal_schedule())
        assert a.minimal == b.minimal
        assert a.steps == b.steps
        assert a.n_runs == b.n_runs

    def test_surviving_schedule_refuses_to_shrink(self):
        sc = scenario()
        survivable = [PhaseTrigger(node_id=0, phase="ckpt.begin", occurrence=1)]
        assert run_schedule(sc, survivable).verdict == VERDICT_SURVIVED
        with pytest.raises(ChaosError, match="does not fail"):
            shrink_schedule(sc, survivable)

    def test_empty_schedule_is_vacuous_not_failing(self):
        # not-fired must not count as a failure, else shrinking always
        # collapses to the empty schedule
        sc = scenario()
        with pytest.raises(ChaosError, match="does not fail"):
            shrink_schedule(sc, [])

    def test_budget_bounds_replays(self):
        sc = scenario()
        shrink = shrink_schedule(sc, lethal_schedule(), max_runs=2)
        assert shrink.n_runs <= 2
        # sound even when the budget stops early: still a failing schedule
        assert shrink.verdict == VERDICT_UNRECOVERABLE

    def test_shrink_failures_maps_campaign(self):
        sc = scenario()
        results = [
            run_schedule(sc, [PhaseTrigger(node_id=0, phase="ckpt.begin")], 0),
            run_schedule(sc, lethal_schedule(), 1),
        ]
        shrinks = shrink_failures(sc, results)
        assert shrinks[0] is None
        assert shrinks[1] is not None
        assert shrinks[1].minimal == [
            TimeTrigger(node_id=0, at_time=2.5, extra_nodes=(1,))
        ]


def raising_oracle_scenario():
    """The selfckpt app, except that its answer oracle *raises* on any
    run that consumed a spare node (i.e. any run a kill actually hit)."""
    import dataclasses

    from repro.chaos import ChaosScenario

    base = scenario()

    def factory():
        inst = base.make()
        active = [n.node_id for n in inst.cluster.nodes]

        def check(result):
            if [n.node_id for n in inst.cluster.nodes] != active:
                raise RuntimeError("oracle exploded")
            return inst.check(result)

        return dataclasses.replace(inst, check=check)

    return ChaosScenario(name=base.name, params=base.params, factory=factory)


class TestCrashFoldingIsDoorIndependent:
    """A replay that raises is a ``gave-up`` verdict through every door —
    the campaign, ``run_schedule``, ``run_kill_point`` — so whatever a
    campaign classified, the shrinker can re-probe."""

    def test_single_replay_doors_fold_like_the_campaign(self):
        from repro.chaos import KillPoint, run_kill_point

        sc = raising_oracle_scenario()
        kill = [TimeTrigger(node_id=0, at_time=2.5)]
        cfg = RandomCampaignConfig(n_schedules=4, seed=3)
        crashed = [
            r for r in random_campaign(sc, cfg) if r.verdict == "gave-up"
        ]
        assert crashed, "no schedule of the campaign reached the oracle"
        for result in crashed + [
            run_schedule(sc, kill),
            run_kill_point(sc, KillPoint("ckpt.flush", 1, 0)),
        ]:
            assert result.verdict == "gave-up"
            assert result.gave_up_reason == (
                "replay crashed: RuntimeError: oracle exploded"
            )

    def test_shrinks_a_schedule_whose_oracle_raises(self):
        sc = raising_oracle_scenario()
        triggers = [
            PhaseTrigger(node_id=2, phase="ckpt.begin", occurrence=1),
            TimeTrigger(node_id=0, at_time=2.5),
        ]
        (shrunk,) = shrink_failures(sc, [run_schedule(sc, triggers)])
        assert shrunk.verdict == "gave-up"
        assert len(shrunk.minimal) == 1
