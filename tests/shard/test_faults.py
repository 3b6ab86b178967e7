"""Tests for the declarative infra-chaos fault grammar (repro.shard.faults)."""

import sqlite3

import pytest

from repro.shard.faults import (
    DIE_EXIT_CODE,
    FAULTS_ENV,
    POISON_EXIT_CODE,
    Fault,
    FaultPlan,
    FaultSpecError,
    parse_faults,
)

# the retired hooks: repro.shard no longer names them except to refuse them
DIE_AFTER_ENV = "REPRO_SHARD_DIE_AFTER"
DIE_WORKER_ENV = "REPRO_SHARD_DIE_WORKER"


class TestParse:
    def test_empty_and_none_mean_no_faults(self):
        assert parse_faults(None) == []
        assert parse_faults("") == []
        assert parse_faults("  ; ;  ") == []

    def test_kill(self):
        (f,) = parse_faults("kill:after=2,worker=0")
        assert f == Fault(kind="kill", after=2, worker=0)

    def test_zombie(self):
        (f,) = parse_faults("zombie:after=1,worker=1,stall=2.5")
        assert f == Fault(kind="zombie", after=1, worker=1, stall_s=2.5)

    def test_poison(self):
        (f,) = parse_faults("poison:ord=5")
        assert f == Fault(kind="poison", ord=5)

    def test_busy(self):
        (f,) = parse_faults("busy:ops=3,worker=2")
        assert f == Fault(kind="busy", ops=3, worker=2)

    def test_skew(self):
        (f,) = parse_faults("skew:delta=-30,worker=2")
        assert f == Fault(kind="skew", delta_s=-30.0, worker=2)

    def test_multiple_clauses(self):
        faults = parse_faults("kill:after=2,worker=0; poison:ord=1")
        assert [f.kind for f in faults] == ["kill", "poison"]

    def test_worker_all_targets_everyone(self):
        (f,) = parse_faults("kill:after=1,worker=all")
        assert f.worker is None
        assert f.targets(0) and f.targets(7)

    def test_default_worker_targets_everyone(self):
        (f,) = parse_faults("poison:ord=0")
        assert f.targets(3)

    def test_specific_worker_targets_only_itself(self):
        (f,) = parse_faults("kill:after=1,worker=1")
        assert f.targets(1) and not f.targets(0)


class TestParseErrors:
    """Every rejection names the environment variable — a typo'd chaos
    spec must never look like a passing campaign."""

    @pytest.mark.parametrize(
        "raw",
        [
            "explode:after=1",  # unknown kind
            "kill",  # missing required key
            "kill:after",  # not key=value
            "kill:after=",  # empty value
            "kill:after=soon",  # non-integer
            "kill:after=0",  # below minimum
            "kill:after=1,color=red",  # unknown key
            "kill:after=1,worker=-1",  # negative worker
            "kill:after=1,worker=first",  # non-integer worker
            "zombie:after=1",  # missing stall
            "zombie:after=1,stall=0",  # stall must be positive
            "poison:ord=-1",
            "busy:ops=0",
            "skew:delta=0",  # zero skew is a no-op typo
        ],
    )
    def test_malformed_specs_name_the_env_var(self, raw):
        with pytest.raises(FaultSpecError, match=FAULTS_ENV):
            parse_faults(raw)

    def test_message_carries_the_offending_spec(self):
        with pytest.raises(FaultSpecError, match="explode"):
            parse_faults("explode:after=1")


class TestLegacyEnv:
    """The retired ``REPRO_SHARD_DIE_*`` pair is refused, never folded
    in and never ignored: a stale CI environment must not look like a
    passing campaign.  (Test ids predate the retirement.)"""

    @staticmethod
    def rejected(environ):
        with pytest.raises(FaultSpecError) as exc:
            FaultPlan.from_env(0, environ)
        return str(exc.value)

    def test_absent_means_no_fault(self):
        assert not FaultPlan.from_env(0, {}).faults

    def test_valid_pair_folds_into_a_kill_fault(self):
        msg = self.rejected({DIE_AFTER_ENV: "2", DIE_WORKER_ENV: "1"})
        assert f'{FAULTS_ENV}="kill:after=K,worker=W"' in msg

    def test_worker_defaults_to_zero(self):
        assert DIE_AFTER_ENV in self.rejected({DIE_AFTER_ENV: "1"})

    def test_worker_all(self):
        # the worker variable alone is just as stale as the pair
        assert DIE_WORKER_ENV in self.rejected({DIE_WORKER_ENV: "all"})

    @pytest.mark.parametrize("bad", ["", "two", "1.5", "0", "-3"])
    def test_malformed_die_after_names_its_variable(self, bad):
        assert DIE_AFTER_ENV in self.rejected({DIE_AFTER_ENV: bad})

    @pytest.mark.parametrize("bad", ["", "first", "-1"])
    def test_malformed_die_worker_names_its_variable(self, bad):
        assert DIE_WORKER_ENV in self.rejected({DIE_WORKER_ENV: bad})


class Exited(Exception):
    def __init__(self, code):
        self.code = code


def plan_for(spec, worker=0, environ=None):
    env = {FAULTS_ENV: spec} if spec is not None else {}
    env.update(environ or {})

    def hard_exit(code):
        raise Exited(code)

    slept = []
    plan = FaultPlan.from_env(
        worker, env, sleep=slept.append, hard_exit=hard_exit
    )
    plan.slept = slept
    return plan


class TestFaultPlan:
    def test_unarmed_plan_is_inert(self):
        plan = plan_for(None)
        assert not plan.faults
        plan.queue_hook("claim")
        plan.check_poison(0)
        plan.check_kill(10**6)
        assert plan.zombie_stall(10**6) is None
        assert plan.clock_offset_s == 0.0

    def test_faults_for_other_workers_are_dropped(self):
        plan = plan_for("kill:after=1,worker=0", worker=1)
        assert not plan.faults

    def test_legacy_env_folds_in(self):
        # ... no longer: even next to a valid spec it is refused
        with pytest.raises(FaultSpecError, match="kill:after=K"):
            plan_for("kill:after=3", environ={DIE_AFTER_ENV: "3"})

    def test_kill_fires_at_the_threshold(self):
        plan = plan_for("kill:after=2")
        plan.check_kill(1)  # not yet
        with pytest.raises(Exited) as exc:
            plan.check_kill(2)
        assert exc.value.code == DIE_EXIT_CODE

    def test_poison_exit_code_is_distinct(self):
        plan = plan_for("poison:ord=4")
        plan.check_poison(3)
        with pytest.raises(Exited) as exc:
            plan.check_poison(4)
        assert exc.value.code == POISON_EXIT_CODE
        assert POISON_EXIT_CODE != DIE_EXIT_CODE

    def test_busy_budget_raises_then_drains(self):
        plan = plan_for("busy:ops=2")
        for _ in range(2):
            with pytest.raises(sqlite3.OperationalError, match="injected"):
                plan.queue_hook("claim")
        plan.queue_hook("claim")  # budget spent: back to normal

    def test_zombie_stall_fires_exactly_once(self):
        plan = plan_for("zombie:after=1,stall=2.0")
        assert plan.zombie_stall(0) is None
        assert plan.zombie_stall(1) == 2.0
        assert plan.zombie_stall(2) is None  # revived zombies stay revived

    def test_skew_sums_into_clock_offset(self):
        plan = plan_for("skew:delta=-30; skew:delta=5")
        assert plan.clock_offset_s == -25.0

    def test_sleep_goes_through_the_injected_hook(self):
        plan = plan_for("zombie:after=1,stall=1.5")
        plan.sleep(plan.zombie_stall(1))
        assert plan.slept == [1.5]
