"""Tests for the BLCR-like disk checkpoint and the SCR-like multi-level tier."""

import pytest

from repro.ckpt import (
    HDD,
    SSD,
    BlockDevice,
)
from repro.sim import Cluster, Job
from tests.ckpt.conftest import MultiLevelFlushEach, assert_final_state, make_app

N = 8


class TestBlockDevice:
    def test_write_time_scales_with_sharing(self):
        dev = BlockDevice("d", write_Bps=100e6, read_Bps=100e6, latency_s=0)
        assert dev.write_time(100e6) == pytest.approx(1.0)
        assert dev.write_time(100e6, ranks_sharing=4) == pytest.approx(4.0)

    def test_ssd_faster_than_hdd(self):
        nbytes = 10**9
        assert SSD.write_time(nbytes) < HDD.write_time(nbytes)


class TestDiskCheckpoint:
    @pytest.mark.parametrize("method", ["disk-hdd", "disk-ssd"])
    def test_survives_any_failure_phase(self, cycle, method):
        """Table 3: BLCR rows recover after power-off."""
        app = make_app(method)
        _, second = cycle(app, n_ranks=N, phase="ckpt.flush", occurrence=2)
        assert_final_state(second, N)

    def test_survives_multiple_node_losses(self):
        """Unlike XOR groups, the device tolerates any number of losses."""
        app = make_app("disk-hdd")
        cluster = Cluster(N, n_spares=4)
        job = Job(cluster, app, N, procs_per_node=1)
        assert job.run().completed
        for nid in (0, 2, 5):
            cluster.fail_node(nid)
        repl = cluster.replace_dead()
        ranklist = [repl.get(n, n) for n in job.ranklist]
        res = Job(cluster, app, N, ranklist=ranklist).run()
        assert_final_state(res, N)

    def test_checkpoint_time_far_exceeds_in_memory(self):
        """The core trade-off of Table 3: disk checkpoints stall for much
        longer than the in-memory encode."""
        results = {}
        for method in ("disk-hdd", "self"):
            cluster = Cluster(N)
            app = make_app(method, array_len=200_000)  # 1.6 MB/rank
            res = Job(cluster, app, N, procs_per_node=1).run()
            assert res.completed
            results[method] = res.rank_results[0]["ckpt_seconds"]
        assert results["disk-hdd"] > 5 * results["self"]

    def test_zero_ram_overhead(self):
        cluster = Cluster(N)
        app = make_app("disk-hdd")
        res = Job(cluster, app, N, procs_per_node=1).run()
        assert res.rank_results[0]["overhead"] == 0


class TestMultiLevel:
    def test_memory_level_restores_fast_path(self, cycle):
        app = make_app("multilevel")  # 3 checkpoints, FLUSH_EVERY 10: no level 2
        _, second = cycle(app, n_ranks=N, phase="ckpt.done")
        assert_final_state(second, N)
        assert second.rank_results[0]["restore"].source == "checkpoint"

    def test_level2_covers_double_group_loss(self):
        """Two losses in one group defeat the in-memory level; the level-2
        image still recovers — the whole point of multi-level CR."""
        app = make_app("multilevel", protocol_factory=MultiLevelFlushEach)
        cluster = Cluster(N, n_spares=4)
        job = Job(cluster, app, N, procs_per_node=1)
        assert job.run().completed
        cluster.fail_node(0)
        cluster.fail_node(2)  # both in stride-group 0
        repl = cluster.replace_dead()
        ranklist = [repl.get(n, n) for n in job.ranklist]
        res = Job(cluster, app, N, ranklist=ranklist).run()
        assert_final_state(res, N)
        # ranks of the destroyed group came back via the disk image
        assert res.rank_results[0]["restore"].source == "disk"

    def test_level2_restore_is_counted_and_traced(self):
        """The disk fallback is a restore like any other: it returns a
        ``RestoreReport`` and opens the ``restore`` span."""
        from repro.ckpt import CheckpointManager
        from repro.obs.spans import SpanTracer

        def app(ctx):
            mgr = CheckpointManager(
                ctx,
                ctx.world,
                group_size=4,
                method="multilevel",
                protocol_factory=MultiLevelFlushEach,
            )
            a = mgr.alloc("data", 16)
            mgr.commit()
            report = mgr.try_restore()
            if report is None:
                a[:] = ctx.world.rank
                mgr.checkpoint()
                return None
            return report.source

        cluster = Cluster(N, n_spares=4)
        job = Job(cluster, app, N, procs_per_node=1)
        assert job.run().completed
        cluster.fail_node(0)
        cluster.fail_node(2)  # both in stride-group 0
        repl = cluster.replace_dead()
        tracer = SpanTracer()
        res = Job(
            cluster, app, N, ranklist=[repl.get(n, n) for n in job.ranklist], tracer=tracer
        ).run()
        assert res.completed and set(res.rank_results.values()) == {"disk"}
        restores = tracer.by_name("restore")
        assert len(restores) == N
        assert {s.attrs["source"] for s in restores} == {"disk"}
        assert {s.attrs["missing"] for s in restores} == {0, 2}  # group 1 lost nobody
