"""Tests for the SQLite work queue (repro.shard.queue)."""

import pytest

from repro.chaos import probe_baseline
from repro.par import ReplayOutcome
from repro.shard import ShardQueue, plan_campaign
from repro.shard.queue import QueueMismatchError, queue_path_for
from tests.chaos.helpers import small_scenario


@pytest.fixture(scope="module")
def plans():
    sc = small_scenario()
    probe = probe_baseline(sc)
    return (
        plan_campaign([sc], n_shards=2, probes=[probe]),
        plan_campaign([sc], n_shards=3, probes=[probe]),
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def queue(tmp_path, plans):
    clock = FakeClock()
    q = ShardQueue(queue_path_for(str(tmp_path)), clock=clock)
    q.clock_handle = clock
    assert q.populate(plans[0]) is True
    yield q
    q.close()


def outcome(tag: str = "x") -> ReplayOutcome:
    return ReplayOutcome(
        verdict="survived",
        n_restarts=1,
        makespan_s=12.5,
        gave_up_reason=None,
        fired=(f"fired:{tag}",),
        obs={"metrics": {"runs": 1}},
    )


class TestPopulate:
    def test_repopulate_same_plan_is_noop(self, queue, plans):
        assert queue.populate(plans[0]) is False

    def test_repopulate_preserves_results(self, queue, plans):
        queue.record(0, plans[0].units[0].fingerprint, outcome())
        queue.populate(plans[0])
        assert queue.has_result(0)

    def test_different_plan_rejected(self, queue, plans):
        with pytest.raises(QueueMismatchError, match="plans"):
            queue.populate(plans[1])


class TestLeases:
    def test_claims_come_in_shard_index_order(self, queue, plans):
        first = queue.claim("a", 60.0)
        second = queue.claim("b", 60.0)
        assert first.shard_id == plans[0].shards[0].shard_id
        assert second.shard_id == plans[0].shards[1].shard_id

    def test_all_leased_means_no_claim(self, queue):
        queue.claim("a", 60.0)
        queue.claim("a", 60.0)
        assert queue.claim("b", 60.0) is None

    def test_expired_lease_is_reissued(self, queue):
        lease = queue.claim("dead-executor", 30.0)
        queue.claim("other", 1000.0)
        queue.clock_handle.now += 31.0
        assert queue.claim("survivor", 60.0).shard_id == lease.shard_id

    def test_renew_keeps_a_lease_alive(self, queue):
        lease = queue.claim("worker", 30.0)
        queue.clock_handle.now += 25.0
        assert queue.renew(lease, 30.0) is True
        queue.clock_handle.now += 25.0  # past the original expiry
        thief = queue.claim("thief", 60.0)
        assert thief.shard_id != lease.shard_id

    def test_committed_shard_never_reissued(self, queue):
        lease = queue.claim("worker", 1.0)
        for ord_, fp, _spec in queue.shard_units(lease.shard_id):
            queue.record(ord_, fp, outcome(), lease)
        assert queue.commit_shard(lease) is True
        queue.clock_handle.now += 1e6
        late = queue.claim("late", 60.0)
        assert late.shard_id != lease.shard_id


class TestFencing:
    """The zombie regression: a stalled-then-revived executor whose
    shard was re-issued must have every write rejected."""

    def _expire_and_steal(self, queue, lease, thief="thief"):
        queue.clock_handle.now += 1e6
        stolen = queue.claim(thief, 60.0)
        assert stolen.shard_id == lease.shard_id
        assert stolen.fence > lease.fence
        return stolen

    def test_fence_tokens_increase_monotonically(self, queue):
        a = queue.claim("a", 60.0)
        b = queue.claim("b", 60.0)
        assert b.fence > a.fence > 0

    def test_zombie_record_rejected(self, queue, plans):
        zombie = queue.claim("zombie", 1.0)
        self._expire_and_steal(queue, zombie)
        ord_, fp, _spec = queue.shard_units(zombie.shard_id)[0]
        assert queue.record(ord_, fp, outcome(), zombie) is False
        assert not queue.has_result(ord_)
        assert queue.stats()["fence_rejections"] == 1

    def test_zombie_commit_rejected(self, queue):
        """Regression: commit_shard used to update WHERE shard_id alone,
        so a zombie could mark a shard 'done' out from under the live
        claimant; now owner+fence+status guard it."""
        zombie = queue.claim("zombie", 1.0)
        live = self._expire_and_steal(queue, zombie)
        assert queue.commit_shard(zombie) is False
        assert not queue.all_done()
        for ord_, fp, _spec in queue.shard_units(live.shard_id):
            queue.record(ord_, fp, outcome(), live)
        assert queue.commit_shard(live) is True

    def test_zombie_renew_rejected(self, queue):
        zombie = queue.claim("zombie", 1.0)
        self._expire_and_steal(queue, zombie)
        assert queue.renew(zombie, 60.0) is False

    def test_expired_but_unclaimed_lease_still_writes(self, queue, plans):
        """An expired lease nobody re-claimed keeps its token: the work
        is deterministic, so letting the laggard finish is safe and
        loses nothing."""
        lease = queue.claim("slow", 1.0)
        queue.clock_handle.now += 100.0
        ord_ = plans[0].shards[0].unit_ords[0]
        fp = plans[0].units[ord_].fingerprint
        assert queue.record(ord_, fp, outcome(), lease) is True

    def test_lease_race_double_run_is_idempotent(self, queue, plans):
        """Satellite: two executors run the same expired shard; the
        journal rows are identical by content and exactly one commit
        survives fencing."""
        import json

        first = queue.claim("first", 1.0)
        # first journals one unit, then stalls past its lease
        units = queue.shard_units(first.shard_id)
        ord0, fp0, _ = units[0]
        assert queue.record(ord0, fp0, outcome("same"), first) is True
        second = self._expire_and_steal(queue, first, thief="second")
        # both replay unit 1 — determinism makes the rows byte-identical
        ord1, fp1, _ = units[1]
        row = json.dumps(outcome("same").to_json(), sort_keys=True)
        assert queue.record(ord1, fp1, outcome("same"), second) is True
        assert queue.record(ord1, fp1, outcome("same"), first) is False
        got = queue._conn.execute(
            "SELECT outcome_json FROM results WHERE ord = ?", (ord1,)
        ).fetchone()[0]
        assert got == row
        # the zombie's commit loses, the live claimant's wins
        for ord_, fp, _spec in units:
            if not queue.has_result(ord_):
                queue.record(ord_, fp, outcome("same"), second)
        assert queue.commit_shard(first) is False
        assert queue.commit_shard(second) is True


class TestAttempts:
    """The poison-unit signal: ``attempts`` counts consecutive re-issues
    with no journal progress, resetting whenever anything was journaled
    since the previous claim."""

    def test_fresh_claim_has_zero_attempts(self, queue):
        assert queue.claim("a", 60.0).attempts == 0

    def test_barren_reissues_accumulate(self, queue):
        lease = queue.claim("w0", 1.0)
        for expected in (1, 2, 3):
            queue.clock_handle.now += 10.0
            lease = queue.claim(f"w{expected}", 1.0)
            assert lease.attempts == expected

    def test_journal_progress_resets_attempts(self, queue):
        lease = queue.claim("w", 1.0)
        queue.clock_handle.now += 10.0
        lease = queue.claim("w", 1.0)
        assert lease.attempts == 1
        ord_, fp, _spec = queue.shard_units(lease.shard_id)[0]
        queue.record(ord_, fp, outcome(), lease)
        queue.clock_handle.now += 10.0
        assert queue.claim("w", 1.0).attempts == 0


class TestJournal:
    def test_units_round_trip_their_specs(self, queue, plans):
        from repro.par import replay_fingerprint

        shard = plans[0].shards[0]
        units = queue.shard_units(shard.shard_id)
        assert [u[0] for u in units] == list(shard.unit_ords)
        for ord_, fp, spec in units:
            assert spec == plans[0].units[ord_].spec
            assert replay_fingerprint(spec) == fp

    def test_outcomes_round_trip(self, queue, plans):
        want = outcome("roundtrip")
        queue.record(3, plans[0].units[3].fingerprint, want)
        assert queue.outcomes() == {3: want}

    def test_record_is_idempotent(self, queue, plans):
        fp = plans[0].units[0].fingerprint
        queue.record(0, fp, outcome())
        queue.record(0, fp, outcome())  # lease-race double journal
        assert queue.progress()["done_units"] == 1

    def test_results_key_on_ordinal_not_fingerprint(self, queue):
        queue.record(0, "same-fp", outcome("a"))
        queue.record(1, "same-fp", outcome("b"))
        assert queue.progress()["done_units"] == 2

    def test_first_unjournaled_walks_the_shard(self, queue, plans):
        shard = plans[0].shards[0]
        units = queue.shard_units(shard.shard_id)
        assert queue.first_unjournaled(shard.shard_id) == (
            units[0][0], units[0][1]
        )
        queue.record(units[0][0], units[0][1], outcome())
        assert queue.first_unjournaled(shard.shard_id) == (
            units[1][0], units[1][1]
        )
        for ord_, fp, _spec in units:
            queue.record(ord_, fp, outcome())
        assert queue.first_unjournaled(shard.shard_id) is None

    def test_all_done_requires_every_shard_committed(self, queue, plans):
        assert not queue.all_done()
        for _shard in plans[0].shards:
            lease = queue.claim("w", 60.0)
            for ord_, fp, _spec in queue.shard_units(lease.shard_id):
                queue.record(ord_, fp, outcome(), lease)
            assert queue.commit_shard(lease) is True
        assert queue.all_done()
        stats = queue.progress()
        assert stats["done_units"] == stats["total_units"] == plans[0].n_units
        assert stats["done_shards"] == stats["total_shards"] == 2

    def test_two_connections_share_the_journal(self, tmp_path, plans):
        path = queue_path_for(str(tmp_path))
        with ShardQueue(path) as writer, ShardQueue(path) as reader:
            writer.populate(plans[0])
            writer.record(0, plans[0].units[0].fingerprint, outcome())
            assert reader.has_result(0)
            assert reader.progress()["done_units"] == 1


class TestIntegrityAndSalvage:
    def test_healthy_queue_reports_no_problems(self, tmp_path, plans):
        from repro.shard.queue import integrity_problems

        path = queue_path_for(str(tmp_path))
        with ShardQueue(path) as q:
            q.populate(plans[0])
        assert integrity_problems(path) == []

    def test_garbage_file_reports_problems(self, tmp_path):
        from repro.shard.queue import integrity_problems

        path = queue_path_for(str(tmp_path))
        with open(path, "wb") as f:
            f.write(b"this is not a sqlite database at all" * 100)
        assert integrity_problems(path) != []

    def test_salvage_recovers_matching_rows(self, tmp_path, plans):
        from repro.shard.queue import salvage_results

        path = queue_path_for(str(tmp_path))
        with ShardQueue(path) as q:
            q.populate(plans[0])
            q.record(0, plans[0].units[0].fingerprint, outcome("keep"))
            q.record(1, "wrong-fingerprint", outcome("drop"))
            q._conn.execute(
                "INSERT INTO results (ord, fingerprint, outcome_json) "
                "VALUES (?,?,?)",
                (2, plans[0].units[2].fingerprint, "{not json"),
            )
        rows = salvage_results(path, plans[0])
        assert [r[0] for r in rows] == [0]

    def test_salvaged_rows_restore_into_fresh_queue(self, tmp_path, plans):
        from repro.shard.queue import salvage_results

        old = queue_path_for(str(tmp_path / "old"))
        (tmp_path / "old").mkdir()
        with ShardQueue(old) as q:
            q.populate(plans[0])
            q.record(0, plans[0].units[0].fingerprint, outcome("keep"))
        rows = salvage_results(old, plans[0])
        new = queue_path_for(str(tmp_path))
        with ShardQueue(new) as q:
            q.populate(plans[0])
            assert q.restore_results(rows) == 1
            assert q.has_result(0)
            assert q.outcomes()[0] == outcome("keep")

    def test_quarantine_queue_file_moves_wal_aside(self, tmp_path, plans):
        import os

        from repro.shard.queue import quarantine_queue_file

        path = queue_path_for(str(tmp_path))
        q = ShardQueue(path)
        q.populate(plans[0])
        q.close()
        target = quarantine_queue_file(path)
        assert not os.path.exists(path)
        assert os.path.exists(target)
