"""Tests for the shard planner (repro.shard.planner)."""

import pytest

from repro.chaos import (
    RandomCampaignConfig,
    enumerate_kill_points,
    probe_baseline,
)
from repro.par import ReplaySpec, replay_fingerprint
from repro.shard import plan_campaign
from repro.shard.planner import KIND_KILL, KIND_RANDOM, partition
from tests.chaos.helpers import small_scenario


@pytest.fixture(scope="module")
def scenario():
    return small_scenario()


@pytest.fixture(scope="module")
def probe(scenario):
    return probe_baseline(scenario)


class TestPartition:
    def test_covers_every_ordinal_exactly_once(self):
        stripes = partition(11, 3)
        flat = sorted(o for s in stripes for o in s)
        assert flat == list(range(11))

    def test_round_robin_striping(self):
        assert partition(7, 3) == [(0, 3, 6), (1, 4), (2, 5)]

    def test_more_shards_than_units_drops_empties(self):
        stripes = partition(2, 8)
        assert stripes == [(0,), (1,)]

    def test_one_shard_is_the_identity(self):
        assert partition(5, 1) == [(0, 1, 2, 3, 4)]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            partition(5, 0)


class TestPlan:
    def test_same_inputs_same_plan(self, scenario, probe):
        a = plan_campaign([scenario], n_shards=3, seed=5, probes=[probe])
        b = plan_campaign([scenario], n_shards=3, seed=5, probes=[probe])
        assert a.fingerprint == b.fingerprint
        assert [s.shard_id for s in a.shards] == [s.shard_id for s in b.shards]
        assert [u.fingerprint for u in a.units] == [
            u.fingerprint for u in b.units
        ]

    def test_fingerprint_tracks_shard_count(self, scenario, probe):
        a = plan_campaign([scenario], n_shards=2, probes=[probe])
        b = plan_campaign([scenario], n_shards=3, probes=[probe])
        assert a.fingerprint != b.fingerprint

    def test_unit_identity_is_the_replay_fingerprint(self, scenario, probe):
        from repro.chaos.campaign import point_trigger

        plan = plan_campaign([scenario], n_shards=2, probes=[probe])
        points = enumerate_kill_points(probe)
        assert [u.point for u in plan.units] == points
        for unit, point in zip(plan.units, points):
            spec = ReplaySpec(scenario, (point_trigger(point, probe),), obs="off")
            assert unit.fingerprint == replay_fingerprint(spec)

    def test_random_units_ride_behind_the_matrices(self, scenario, probe):
        cfg = RandomCampaignConfig(n_schedules=3, seed=9)
        plan = plan_campaign(
            [scenario], n_shards=2, probes=[probe], random_cfg=cfg
        )
        kinds = [u.kind for u in plan.units]
        n_kill = kinds.count(KIND_KILL)
        assert kinds == [KIND_KILL] * n_kill + [KIND_RANDOM] * 3
        assert [
            u.schedule_index for u in plan.units if u.kind == KIND_RANDOM
        ] == [0, 1, 2]
        assert len(plan.schedules) == 3

    def test_every_unit_lands_in_exactly_one_shard(self, scenario, probe):
        plan = plan_campaign([scenario], n_shards=3, probes=[probe])
        ords = sorted(o for s in plan.shards for o in s.unit_ords)
        assert ords == [u.ord for u in plan.units]
