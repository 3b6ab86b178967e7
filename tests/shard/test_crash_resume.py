"""Crash/resume equivalence for the sharded campaign engine.

The contract under test is the tentpole's acceptance bar: a sharded
campaign — uninterrupted, with an executor killed mid-shard, or with
the whole invocation killed mid-campaign and resumed — produces
``BENCH_chaos.json`` bytes, report text and trace-store digests
identical to the serial engine's.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.chaos import (
    RandomCampaignConfig,
    probe_baseline,
    random_campaign,
    run_kill_matrix,
)
from repro.chaos.report import render_campaign
from repro.shard import ShardCampaignError, run_sharded_campaign
from repro.shard.faults import FAULTS_ENV
from repro.shard.queue import ShardQueue, queue_path_for
from tests.chaos.helpers import bench_bytes, small_scenario

SEED = 7
METHODS = ("self", "double")


def scenarios():
    return [small_scenario(method=m) for m in METHODS]


@pytest.fixture(scope="module")
def serial():
    """The uninterrupted serial campaign every sharded run must match."""
    matrices, schedules = [], None
    random_cfg = RandomCampaignConfig(n_schedules=3, seed=SEED)
    for i, sc in enumerate(scenarios()):
        probe = probe_baseline(sc)
        matrices.append(run_kill_matrix(sc, probe=probe, max_occurrences=1))
        if i == 0:
            schedules = random_campaign(sc, random_cfg, probe=probe)
    return matrices, schedules


def run_sharded(out_dir, **kw):
    kw.setdefault("n_shards", 3)
    kw.setdefault("seed", SEED)
    kw.setdefault("max_occurrences", 1)
    kw.setdefault("random_cfg", RandomCampaignConfig(n_schedules=3, seed=SEED))
    return run_sharded_campaign(scenarios(), out_dir=str(out_dir), **kw)


def assert_matches_serial(serial, matrices, schedules):
    s_matrices, s_schedules = serial
    assert bench_bytes(matrices, schedules, SEED) == bench_bytes(
        s_matrices, s_schedules, SEED
    )
    assert render_campaign(matrices, schedules) == render_campaign(
        s_matrices, s_schedules
    )


def store_digest(tmp_path, name, matrices, schedules, probes):
    from repro.obs.store import (
        TraceStore,
        campaign_id_for,
        ingest_kill_matrix,
        ingest_schedules,
    )

    cid = campaign_id_for(SEED, "selfckpt", list(METHODS))
    with TraceStore(str(tmp_path / name)) as store:
        ord_ = 0
        for sc, probe, rep in zip(scenarios(), probes, matrices):
            ord_ = ingest_kill_matrix(
                store, cid, sc, rep,
                seed=SEED, obs_mode="off", ord_base=ord_, probe=probe,
            )
        ingest_schedules(
            store, cid, scenarios()[0], schedules,
            seed=SEED, obs_mode="off", ord_base=ord_,
        )
        return store.digest()


class TestShardedEquivalence:
    def test_sharded_matches_serial(self, serial, tmp_path):
        plan, matrices, schedules, stats = run_sharded(tmp_path / "out")
        assert stats["done_units"] == plan.n_units
        assert_matches_serial(serial, matrices, schedules)

    def test_store_digest_matches_serial(self, serial, tmp_path):
        plan, matrices, schedules, _ = run_sharded(tmp_path / "out")
        probes = [m.probe for m in plan.matrices]
        sharded = store_digest(
            tmp_path, "sharded.sqlite", matrices, schedules, probes
        )
        s_matrices, s_schedules = serial
        serial_d = store_digest(
            tmp_path, "serial.sqlite", s_matrices, s_schedules, probes
        )
        assert sharded == serial_d

    def test_shard_count_is_artifact_invariant(self, serial, tmp_path):
        _, matrices, schedules, _ = run_sharded(
            tmp_path / "one", n_shards=1
        )
        assert_matches_serial(serial, matrices, schedules)


class TestExecutorCrash:
    def test_killed_executor_is_reissued_in_flight(
        self, serial, tmp_path, monkeypatch
    ):
        """Worker 0 hard-exits after one journaled unit; the survivors
        take over its expired lease and finish the same invocation."""
        monkeypatch.setenv(FAULTS_ENV, "kill:after=1,worker=0")
        plan, matrices, schedules, stats = run_sharded(
            tmp_path / "out", lease_s=0.5
        )
        assert stats["done_units"] == plan.n_units
        assert_matches_serial(serial, matrices, schedules)

    def test_all_executors_dead_leaves_resumable_queue(
        self, serial, tmp_path, monkeypatch
    ):
        """Every executor dies mid-shard (the deterministic stand-in for
        a dead driver); the same out dir resumes to identical results."""
        out = tmp_path / "out"
        monkeypatch.setenv(FAULTS_ENV, "kill:after=2,worker=all")
        with pytest.raises(ShardCampaignError, match="resume"):
            run_sharded(out, lease_s=0.5)
        with ShardQueue(queue_path_for(str(out))) as queue:
            partial = queue.progress()
        assert 0 < partial["done_units"] < partial["total_units"]
        monkeypatch.delenv(FAULTS_ENV)
        plan, matrices, schedules, stats = run_sharded(out, lease_s=0.5)
        assert stats["done_units"] == plan.n_units
        assert_matches_serial(serial, matrices, schedules)


CLI_FLAGS = [
    "--methods", ",".join(METHODS), "--nodes", "2", "--ppn", "1",
    "--group-size", "2", "--iters", "4", "--ckpt-every", "2",
    "--max-occurrences", "1", "--random", "3", "--seed", str(SEED),
    "--no-progress",
]


def cli_cmd(*extra):
    return [sys.executable, "-m", "repro", "chaos", *CLI_FLAGS, *extra]


def cli_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env.pop(FAULTS_ENV, None)
    return env


class TestDriverKill:
    def test_sigkilled_driver_resumes_byte_identical(self, tmp_path):
        """The real thing: SIGKILL the whole driver process group while
        units are being journaled, then ``--resume`` and compare both
        artifacts byte-for-byte against a serial CLI run."""
        serial_out = tmp_path / "serial"
        res = subprocess.run(
            cli_cmd("--out", str(serial_out)),
            env=cli_env(), capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr

        shard_out = tmp_path / "sharded"
        proc = subprocess.Popen(
            cli_cmd("--shards", "3", "--lease", "1", "--out", str(shard_out)),
            env=cli_env(), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        queue_path = queue_path_for(str(shard_out))
        killed_midway = False
        deadline = time.monotonic() + 300
        while proc.poll() is None and time.monotonic() < deadline:
            if os.path.exists(queue_path):
                with ShardQueue(queue_path) as queue:
                    stats = queue.progress()
                if 0 < stats["done_units"] < stats["total_units"]:
                    os.killpg(proc.pid, signal.SIGKILL)
                    killed_midway = True
                    break
            time.sleep(0.005)
        proc.wait(timeout=300)

        res = subprocess.run(
            cli_cmd("--shards", "3", "--lease", "1", "--resume", str(shard_out)),
            env=cli_env(), capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr
        assert killed_midway, "campaign finished before the kill window"

        for name in ("BENCH_chaos.json", "report.txt"):
            with open(serial_out / name, "rb") as f:
                want = f.read()
            with open(shard_out / name, "rb") as f:
                got = f.read()
            assert got == want, f"{name} diverged after driver kill"
        doc = json.loads((shard_out / "BENCH_chaos.json").read_text())
        assert doc["seed"] == SEED
