"""Tests for the self-healing machinery (repro.shard.health)."""

import multiprocessing
import sqlite3
import time

import pytest

from repro.chaos import probe_baseline, selfckpt_scenario
from repro.shard import plan_campaign
from repro.shard.health import (
    DEFAULT_ATTEMPTS_CAP,
    ExecutorSupervisor,
    LeaseHeartbeat,
    is_quarantined,
    quarantine_outcome,
    retry_transient,
)
from repro.shard.queue import ShardQueue, queue_path_for


class TestRetryTransient:
    def test_first_try_success_never_sleeps(self):
        slept = []
        assert retry_transient(lambda: 42, sleep=slept.append) == 42
        assert slept == []

    def test_transient_errors_are_absorbed(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        slept = []
        assert retry_transient(flaky, sleep=slept.append) == "ok"
        assert calls["n"] == 3 and len(slept) == 2

    def test_budget_exhaustion_propagates_the_error(self):
        def always():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            retry_transient(always, retries=2, sleep=lambda _s: None)

    def test_non_transient_errors_propagate_immediately(self):
        def broken():
            raise sqlite3.DatabaseError("file is not a database")

        slept = []
        with pytest.raises(sqlite3.DatabaseError):
            retry_transient(broken, sleep=slept.append)
        assert slept == []

    def test_backoff_grows_and_caps(self):
        def always():
            raise sqlite3.OperationalError("locked")

        slept = []
        with pytest.raises(sqlite3.OperationalError):
            retry_transient(
                always, retries=6, base_s=0.1, cap_s=0.4, sleep=slept.append
            )
        # each delay is (capped exponential) * jitter in [0.5, 1.5)
        caps = [min(0.4, 0.1 * 2.0**i) for i in range(6)]
        for got, cap in zip(slept, caps):
            assert 0.5 * cap <= got < 1.5 * cap

    def test_jitter_is_deterministic_per_seed(self):
        def always():
            raise sqlite3.OperationalError("locked")

        def run(seed):
            slept = []
            with pytest.raises(sqlite3.OperationalError):
                retry_transient(
                    always, retries=3, seed=seed, sleep=slept.append
                )
            return slept

        assert run("owner-a") == run("owner-a")
        assert run("owner-a") != run("owner-b")


class TestQuarantineOutcome:
    def test_row_is_deterministic(self):
        a = quarantine_outcome("abcdef0123456789", 7, 3, 3)
        b = quarantine_outcome("abcdef0123456789", 7, 3, 3)
        assert a == b  # resume re-quarantines to the identical row

    def test_provenance_fields_are_in_the_reason(self):
        out = quarantine_outcome("abcdef0123456789", 7, 3, DEFAULT_ATTEMPTS_CAP)
        assert is_quarantined(out)
        assert "unit 7" in out.gave_up_reason
        assert "3 consecutive re-issues" in out.gave_up_reason
        assert f"attempts_cap={DEFAULT_ATTEMPTS_CAP}" in out.gave_up_reason
        assert "abcdef012345" in out.gave_up_reason

    def test_normal_gave_up_is_not_quarantined(self):
        from repro.par import ReplayOutcome

        out = ReplayOutcome(
            verdict="gave-up",
            n_restarts=9,
            makespan_s=1.0,
            gave_up_reason="restart budget exhausted",
            fired=(),
        )
        assert not is_quarantined(out)


def _wait_until(cond, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.01)
    return cond()


@pytest.fixture(scope="module")
def plan():
    sc = selfckpt_scenario(
        n_nodes=2, procs_per_node=1, group_size=2, iters=4,
        ckpt_every=2, method="self",
    )
    return plan_campaign([sc], n_shards=2, probes=[probe_baseline(sc)])


class MutableClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestLeaseHeartbeat:
    """Real threads against a real queue file; lease *expiry* runs on an
    injected clock so nothing here sleeps for a whole lease."""

    def test_heartbeat_keeps_an_expiring_lease_alive(self, tmp_path, plan):
        clock = MutableClock()
        path = queue_path_for(str(tmp_path))
        with ShardQueue(path, clock=clock) as q:
            q.populate(plan)
            lease = q.claim("worker", 10.0)
            q.claim("other", 1000.0)  # park the second shard

            def expiry():
                return q._conn.execute(
                    "SELECT lease_expires FROM shards WHERE shard_id = ?",
                    (lease.shard_id,),
                ).fetchone()[0]

            original = expiry()
            with LeaseHeartbeat(
                path, lease, 10.0, interval_s=0.02, clock=clock
            ):
                clock.now += 11.0  # past the original expiry
                assert _wait_until(lambda: expiry() > original)
                # a renewal landed after the bump, so nothing is stealable
                assert q.claim("thief", 10.0) is None

    def test_fenced_out_heartbeat_latches_lost(self, tmp_path, plan):
        clock = MutableClock()
        path = queue_path_for(str(tmp_path))
        with ShardQueue(path, clock=clock) as q:
            q.populate(plan)
            lease = q.claim("zombie", 10.0)
            hb = LeaseHeartbeat(
                path, lease, 10.0, interval_s=0.02, clock=clock
            ).start()
            try:
                # SIGSTOP analogue: freeze long enough for expiry + theft
                # by expiring via the shared fake clock, then stealing
                clock.now += 11.0
                stolen = q.claim("thief", 1000.0)
                while stolen is not None and stolen.shard_id != lease.shard_id:
                    stolen = q.claim("thief", 1000.0)
                assert stolen is not None
                assert _wait_until(lambda: hb.lost)
            finally:
                hb.stop()

    def test_stop_is_idempotent_and_context_managed(self, tmp_path, plan):
        path = queue_path_for(str(tmp_path))
        with ShardQueue(path) as q:
            q.populate(plan)
            lease = q.claim("worker", 60.0)
        hb = LeaseHeartbeat(path, lease, 60.0, interval_s=0.02)
        with hb:
            pass
        hb.stop()  # second stop is a no-op
        assert not hb.lost


class FakeProc:
    def __init__(self, index):
        self.index = index
        self.exitcode = None

    def is_alive(self):
        return self.exitcode is None

    def join(self, timeout=None):
        return None

    def die(self, code):
        self.exitcode = code


class Harness:
    def __init__(self, **kw):
        self.clock = MutableClock()
        self.procs = []

        def spawn(index):
            proc = FakeProc(index)
            self.procs.append(proc)
            return proc

        self.sup = ExecutorSupervisor(spawn, clock=self.clock, **kw)


class TestExecutorSupervisor:
    def test_start_spawns_every_slot(self):
        h = Harness(n_slots=3)
        h.sup.start()
        assert [p.index for p in h.procs] == [0, 1, 2]
        assert h.sup.poll() == 3

    def test_clean_exit_retires_without_burning_budget(self):
        h = Harness(n_slots=2, respawn=5)
        h.sup.start()
        h.procs[0].die(0)  # queue drained: clean retirement
        assert h.sup.poll() == 1
        assert h.sup.budget == 5 and h.sup.crashes == 0
        assert not h.sup.pending_respawns()

    def test_crash_without_budget_degrades(self):
        h = Harness(n_slots=2, respawn=0)
        h.sup.start()
        h.procs[0].die(1)
        assert h.sup.poll() == 1  # degraded, no respawn ever
        assert h.sup.crashes == 1
        assert h.sup.exhausted()
        h.clock.now += 1e6
        assert h.sup.poll() == 1
        assert len(h.procs) == 2

    def test_respawn_waits_out_exponential_backoff(self):
        h = Harness(n_slots=1, respawn=3, backoff_s=0.25)
        h.sup.start()
        h.procs[0].die(9)
        assert h.sup.poll() == 0  # death reaped; respawn scheduled
        assert h.sup.pending_respawns()
        h.clock.now += 0.1  # backoff (0.25s) not yet served
        assert h.sup.poll() == 0
        assert len(h.procs) == 1
        h.clock.now += 0.2
        assert h.sup.poll() == 1
        assert len(h.procs) == 2
        assert h.sup.respawns == 1 and h.sup.budget == 2
        assert not h.sup.pending_respawns()

    def test_backoff_doubles_per_slot_death_and_caps(self):
        sup = ExecutorSupervisor(
            lambda i: FakeProc(i), 1, respawn=9,
            backoff_s=0.25, backoff_cap_s=1.0,
        )
        assert sup.backoff_for(1) == 0.25
        assert sup.backoff_for(2) == 0.5
        assert sup.backoff_for(3) == 1.0
        assert sup.backoff_for(10) == 1.0  # capped

    def test_budget_is_shared_across_slots(self):
        h = Harness(n_slots=2, respawn=1, backoff_s=0.0)
        h.sup.start()
        h.procs[0].die(9)
        h.procs[1].die(9)
        h.sup.poll()  # both reaped, both scheduled
        alive = h.sup.poll()  # one respawn wins, the other retires
        assert alive == 1
        assert h.sup.respawns == 1 and h.sup.budget == 0
        assert h.sup.exhausted()

    def test_everything_dead_and_exhausted_reaches_zero(self):
        h = Harness(n_slots=2, respawn=1, backoff_s=0.0)
        h.sup.start()
        h.procs[0].die(9)
        h.sup.poll()
        h.sup.poll()  # respawn slot 0
        h.procs[1].die(9)
        h.procs[2].die(9)  # the respawned executor dies too
        h.sup.poll()
        assert h.sup.poll() == 0
        assert not h.sup.pending_respawns()
        assert h.sup.exhausted()

    def test_wait_wakes_when_an_executor_exits(self):
        """The driver's liveness loop waits on the executors' sentinels: a
        campaign returns when its last executor exits, not a tick later."""
        ctx = multiprocessing.get_context()

        def spawn(index):
            proc = ctx.Process(target=time.sleep, args=(0.05,))
            proc.start()
            return proc

        sup = ExecutorSupervisor(spawn, 1)
        sup.start()
        t0 = time.monotonic()
        # the sentinel fires as the child closes its files, a moment
        # before it can be reaped: the driver's loop just waits again
        while sup.poll():
            assert time.monotonic() - t0 < 10.0
            sup.wait(60.0)
        assert time.monotonic() - t0 < 10.0  # the exit, not the timeout
        t0 = time.monotonic()
        sup.wait(0.05)  # nothing running: a plain sleep keeps respawn cadence
        assert time.monotonic() - t0 >= 0.04
        sup.join()

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="n_slots"):
            ExecutorSupervisor(lambda i: FakeProc(i), 0)
        with pytest.raises(ValueError, match="respawn"):
            ExecutorSupervisor(lambda i: FakeProc(i), 1, respawn=-1)
