"""The infra-chaos torture suite: every fault class in
``REPRO_SHARD_FAULTS`` driven end-to-end through the sharded campaign
engine, with artifacts compared against an uninterrupted serial run.

The acceptance bar (docs/CHAOS.md): under kill / zombie / busy / skew
faults the final artifacts are byte-identical to serial; poison-unit
quarantine is the one *documented* degradation (a synthesized
``gave-up`` row), and it must terminate the campaign within the
attempts cap instead of crash-looping.
"""

import math
import os

import pytest

from repro.chaos import (
    chaos_main,
    probe_baseline,
    run_kill_matrix,
)
from repro.chaos.report import render_campaign
from repro.shard import driver as shard_driver
from repro.shard import (
    QueueCorruptError,
    ShardCampaignError,
    plan_campaign,
    quarantined_ords,
    run_sharded_campaign,
)
from repro.shard.faults import FAULTS_ENV, POISON_EXIT_CODE
from repro.shard.health import is_quarantined
from repro.shard.queue import ShardQueue, queue_path_for
from tests.chaos.helpers import bench_bytes, small_scenario

SEED = 11


def scenarios():
    return [small_scenario()]


@pytest.fixture(scope="module")
def serial():
    sc = scenarios()[0]
    return [run_kill_matrix(sc, probe=probe_baseline(sc), max_occurrences=1)]


@pytest.fixture(scope="module")
def the_plan():
    """The same plan the driver will freeze — used to pick poison ords."""
    return plan_campaign(
        scenarios(), n_shards=2, seed=SEED, max_occurrences=1
    )


@pytest.fixture(autouse=True)
def no_stray_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)


def run_sharded(out_dir, **kw):
    kw.setdefault("n_shards", 2)
    kw.setdefault("seed", SEED)
    kw.setdefault("max_occurrences", 1)
    kw.setdefault("lease_s", 0.5)
    kw.setdefault("respawn_backoff_s", 0.01)
    return run_sharded_campaign(scenarios(), out_dir=str(out_dir), **kw)


def assert_matches_serial(serial, matrices):
    assert bench_bytes(matrices, seed=SEED) == bench_bytes(serial, seed=SEED)
    assert render_campaign(matrices, None) == render_campaign(serial, None)


def pin_cpus(monkeypatch, n):
    """The driver's CPU count, so a test's meaning does not depend on the
    cores of the host it runs on."""
    monkeypatch.setattr(shard_driver, "usable_cpus", lambda: n)


@pytest.fixture
def spawned(monkeypatch):
    """Slot index of every executor the driver starts, in order; each
    start asserts that fewer than ``usable_cpus()`` earlier executors
    are still alive."""
    log = []
    make = shard_driver._executor_spawner

    def spawner(*args, **kw):
        spawn = make(*args, **kw)

        def counted(index):
            running = sum(p.is_alive() for _, p in log)
            assert running < shard_driver.usable_cpus(), (index, log)
            proc = spawn(index)
            log.append((index, proc))
            return proc

        return counted

    monkeypatch.setattr(shard_driver, "_executor_spawner", spawner)
    return log


class TestKillFaults:
    def test_kill_heals_by_reissue_to_survivors(
        self, serial, tmp_path, monkeypatch
    ):
        """Executor 0 SIGKILLs itself after one unit; with no respawn
        budget the survivors absorb its shards via lease expiry."""
        pin_cpus(monkeypatch, 2)
        monkeypatch.setenv(FAULTS_ENV, "kill:after=1,worker=0")
        plan, matrices, _, stats = run_sharded(tmp_path / "out")
        assert stats["done_units"] == plan.n_units
        assert stats["executor_crashes"] >= 1
        assert stats["respawns"] == 0
        assert_matches_serial(serial, matrices)

    def test_respawn_budget_restores_width(
        self, serial, tmp_path, monkeypatch, the_plan
    ):
        """Every executor dies after two units, every time — only the
        supervisor's respawns keep the campaign moving."""
        monkeypatch.setenv(FAULTS_ENV, "kill:after=2,worker=all")
        budget = the_plan.n_units  # generous: ~one respawn per 2 units
        plan, matrices, _, stats = run_sharded(
            tmp_path / "out", respawn=budget
        )
        assert stats["done_units"] == plan.n_units
        assert stats["respawns"] >= 1
        assert_matches_serial(serial, matrices)

    def test_exhausted_budget_names_the_remedy(
        self, serial, tmp_path, monkeypatch
    ):
        """Budget too small: the campaign aborts resumably and the error
        says both how to resume and how to raise the budget."""
        out = tmp_path / "out"
        monkeypatch.setenv(FAULTS_ENV, "kill:after=1,worker=all")
        with pytest.raises(
            ShardCampaignError, match="respawn budget exhausted"
        ) as exc:
            run_sharded(out, respawn=1)
        assert "--resume" in str(exc.value)
        monkeypatch.delenv(FAULTS_ENV)
        plan, matrices, _, stats = run_sharded(out)
        assert stats["done_units"] == plan.n_units
        assert_matches_serial(serial, matrices)


class TestExecutorCap:
    """At most ``usable_cpus()`` executors run at once; the other slots
    are reserves that replace crashed executors."""

    def test_one_cpu_runs_one_executor_byte_identical(
        self, serial, tmp_path, monkeypatch, spawned
    ):
        pin_cpus(monkeypatch, 1)
        plan, matrices, _, stats = run_sharded(tmp_path / "out")
        assert stats["done_units"] == plan.n_units
        assert [i for i, _ in spawned] == [0]  # drained both shards alone
        assert_matches_serial(serial, matrices)

    def test_one_cpu_absorbs_a_kill_through_the_reserve(
        self, serial, tmp_path, monkeypatch, spawned
    ):
        """``--respawn 0``: executor 0 dies after one unit and reserve
        slot 1 (not targeted by ``worker=0``) finishes the campaign,
        re-claiming the dead executor's shard when its lease expires."""
        pin_cpus(monkeypatch, 1)
        monkeypatch.setenv(FAULTS_ENV, "kill:after=1,worker=0")
        plan, matrices, _, stats = run_sharded(tmp_path / "out", respawn=0)
        assert stats["done_units"] == plan.n_units
        assert [i for i, _ in spawned] == [0, 1]
        assert stats["executor_crashes"] == 1 and stats["respawns"] == 0
        assert_matches_serial(serial, matrices)

    def test_enough_cpus_start_every_slot(
        self, serial, tmp_path, monkeypatch, spawned
    ):
        pin_cpus(monkeypatch, 4)
        _, matrices, _, _ = run_sharded(tmp_path / "out")
        assert [i for i, _ in spawned] == [0, 1]
        assert_matches_serial(serial, matrices)


class TestZombieFault:
    def test_zombie_writes_fenced_artifacts_identical(
        self, serial, tmp_path, monkeypatch
    ):
        """Executor 0 stalls past its lease (heartbeat frozen, as under
        SIGSTOP), the shard is re-issued, the zombie revives and keeps
        writing — every write is rejected and the artifacts stay
        byte-identical."""
        pin_cpus(monkeypatch, 2)
        monkeypatch.setenv(FAULTS_ENV, "zombie:after=1,worker=0,stall=2.5")
        plan, matrices, _, stats = run_sharded(tmp_path / "out")
        assert stats["done_units"] == plan.n_units
        assert stats["fence_rejections"] >= 1
        assert_matches_serial(serial, matrices)


class TestPoisonFault:
    def test_poison_unit_quarantined_within_cap(
        self, serial, tmp_path, monkeypatch, the_plan
    ):
        """A unit that kills *every* executor that runs it is journaled
        as a synthesized gave-up after at most attempts_cap barren
        re-issues — the campaign terminates instead of crash-looping."""
        victim = the_plan.n_units // 2
        cap = 2
        monkeypatch.setenv(FAULTS_ENV, f"poison:ord={victim},worker=all")
        out = tmp_path / "out"
        plan, matrices, _, stats = run_sharded(
            out, respawn=10, attempts_cap=cap
        )
        assert stats["done_units"] == plan.n_units
        assert stats["quarantined"] == 1
        # ≤ cap barren re-issues (+1 first run that made progress)
        assert stats["executor_crashes"] <= cap + 1
        with ShardQueue(queue_path_for(str(out))) as queue:
            outcomes = queue.outcomes()
        assert quarantined_ords(outcomes) == [victim]
        assert is_quarantined(outcomes[victim])
        assert outcomes[victim].verdict == "gave-up"
        # documented degradation: exactly the poisoned cell diverges
        assert bench_bytes(matrices, seed=SEED) != bench_bytes(serial, seed=SEED)
        clean = {
            ord_: out_
            for ord_, out_ in outcomes.items()
            if ord_ != victim
        }
        assert len(clean) == plan.n_units - 1

    def test_resume_requarantines_to_the_identical_row(
        self, tmp_path, monkeypatch, the_plan
    ):
        """Quarantine provenance is deterministic: killing the campaign
        after a quarantine and resuming keeps the identical journal row
        (no pids, no wallclock in the synthesized outcome)."""
        victim = the_plan.n_units // 2
        monkeypatch.setenv(FAULTS_ENV, f"poison:ord={victim},worker=all")
        out = tmp_path / "out"
        run_sharded(out, respawn=10, attempts_cap=2)
        with ShardQueue(queue_path_for(str(out))) as queue:
            first = queue.outcomes()[victim]
        monkeypatch.delenv(FAULTS_ENV)
        _, matrices, _, stats = run_sharded(out)  # resume: all journaled
        with ShardQueue(queue_path_for(str(out))) as queue:
            assert queue.outcomes()[victim] == first


class TestBusyFault:
    def test_injected_operational_errors_are_absorbed(
        self, serial, tmp_path, monkeypatch
    ):
        """The first queue ops of every executor raise ``database is
        locked``; jittered retry absorbs them all and the campaign never
        notices."""
        monkeypatch.setenv(FAULTS_ENV, "busy:ops=4,worker=all")
        plan, matrices, _, stats = run_sharded(tmp_path / "out")
        assert stats["done_units"] == plan.n_units
        assert stats["executor_crashes"] == 0
        assert_matches_serial(serial, matrices)


class TestSkewFault:
    def test_skewed_executor_clock_is_harmless(
        self, serial, tmp_path, monkeypatch
    ):
        """Executor 0's queue clock runs 30s behind; lease arithmetic
        under the wrong clock must not lose or duplicate work."""
        pin_cpus(monkeypatch, 2)
        monkeypatch.setenv(FAULTS_ENV, "skew:delta=-30,worker=0")
        plan, matrices, _, stats = run_sharded(
            tmp_path / "out", lease_s=60.0
        )
        assert stats["done_units"] == plan.n_units
        assert_matches_serial(serial, matrices)


class TestSalvage:
    def _partial_then_corrupt(self, out, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:after=1,worker=all")
        with pytest.raises(ShardCampaignError):
            run_sharded(out)
        monkeypatch.delenv(FAULTS_ENV)
        path = queue_path_for(str(out))
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.seek(max(1024, size // 3))
            f.write(b"\xde\xad\xbe\xef" * 1024)
        return path

    def test_corrupt_queue_refused_without_salvage(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        self._partial_then_corrupt(out, monkeypatch)
        with pytest.raises(QueueCorruptError, match="--salvage"):
            run_sharded(out)

    def test_salvage_rebuilds_and_completes(
        self, serial, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        path = self._partial_then_corrupt(out, monkeypatch)
        plan, matrices, _, stats = run_sharded(out, salvage=True)
        assert stats["done_units"] == plan.n_units
        assert_matches_serial(serial, matrices)
        assert os.path.exists(path + ".corrupt")  # moved aside, kept


CLI_FLAGS = [
    "--methods", "self", "--nodes", "2", "--ppn", "1",
    "--group-size", "2", "--iters", "4", "--ckpt-every", "2",
    "--max-occurrences", "1", "--seed", str(SEED), "--no-progress",
]


def cli(*extra):
    """``repro chaos`` in-process: its exit status, ``SystemExit(2)`` of a
    usage error included.  A fault spec set with ``monkeypatch.setenv``
    reaches the forked executors, which inherit the environment."""
    try:
        return chaos_main([*CLI_FLAGS, *extra])
    except SystemExit as exc:
        return exc.code


class TestCLIExitContract:
    """The exit-code contract documented in docs/CHAOS.md: 0 clean,
    1 findings, 2 infra misuse/corruption, 3 resumable abort."""

    def test_malformed_fault_spec_is_exit_2_not_a_crash_loop(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(FAULTS_ENV, "explode:when=now")
        assert cli("--shards", "2", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert FAULTS_ENV in err
        assert "explode" in err

    def test_salvage_without_resume_is_a_usage_error(self, tmp_path, capsys):
        assert cli("--shards", "2", "--out", str(tmp_path / "out"), "--salvage") == 2
        assert "--resume" in capsys.readouterr().err

    def test_quarantine_surfaces_on_stdout_and_campaign_succeeds(
        self, tmp_path, the_plan, monkeypatch, capsys
    ):
        victim = the_plan.n_units // 2
        monkeypatch.setenv(FAULTS_ENV, f"poison:ord={victim},worker=all")
        status = cli(
            "--shards", "2", "--lease", "1", "--out", str(tmp_path / "out"),
            "--respawn", "10", "--attempts-cap", "2",
        )
        out, err = capsys.readouterr()
        assert status in (0, 1), err
        assert "quarantined" in out
        assert str(victim) in out
        assert "respawned" in out


class TestLeaseValidation:
    """``--lease 0`` used to run: leases expired at grant, executors
    stole shards from each other, barren re-issues hit the attempts cap
    and healthy units were journaled as ``quarantined:`` gave-up rows.
    A non-positive lease is refused at every door instead, and so is a
    non-finite one: a NaN lease fenced out healthy executors' writes, and
    an infinite one never re-issued a crashed executor's shard."""

    @pytest.mark.parametrize("lease", ["0", "-1.5", "nan", "inf"])
    def test_cli_rejects_nonpositive_lease(self, tmp_path, lease, capsys):
        out = tmp_path / "out"
        assert cli("--shards", "2", "--lease", lease, "--out", str(out)) == 2
        assert "--lease" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lease_s", [0, -1.0, math.nan, math.inf])
    def test_driver_rejects_nonpositive_lease(self, tmp_path, lease_s):
        with pytest.raises(ValueError, match="lease_s"):
            run_sharded(tmp_path / "out", lease_s=lease_s)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lease_s", [0, -1.0, math.nan, math.inf])
    def test_executor_rejects_nonpositive_lease(self, tmp_path, the_plan, lease_s):
        from repro.shard import run_executor

        path = queue_path_for(str(tmp_path))
        with ShardQueue(path) as queue:
            queue.populate(the_plan)
        with pytest.raises(ValueError, match="lease_s"):
            run_executor(path, 0, lease_s=lease_s)
        with ShardQueue(path) as queue:
            assert queue.progress()["done_units"] == 0


def test_poison_exit_code_is_observable():
    """Torture bookkeeping: poison deaths are distinguishable from kill
    deaths by exit code, so the CI job can assert which fault fired."""
    assert POISON_EXIT_CODE != 0
