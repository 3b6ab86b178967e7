"""SKT-HPL integration tests: checkpoint/restore correctness and the
power-off survival the paper validates in sections 6.2-6.3."""

import numpy as np
import pytest

from repro.hpl import (
    HPLConfig,
    JobDaemon,
    RestartPolicy,
    SKTConfig,
    skt_hpl_main,
)
from repro.hpl.matgen import dense_matrix, dense_rhs
from repro.sim import Cluster, FailurePlan, Job, PhaseTrigger
from tests.ckpt.conftest import double_loss_plan

CFG = HPLConfig(n=96, nb=8, p=2, q=4)  # 8 ranks, 12 panels


def x_ref():
    return np.linalg.solve(dense_matrix(CFG), dense_rhs(CFG))


def daemon_run(scfg, plan, n_spares=2, max_restarts=3):
    cluster = Cluster(8, n_spares=n_spares)
    daemon = JobDaemon(
        cluster,
        skt_hpl_main,
        8,
        args=(scfg,),
        procs_per_node=1,
        failure_plan=plan,
        policy=RestartPolicy(max_restarts=max_restarts),
    )
    return daemon.run()


class TestFaultFree:
    @pytest.mark.parametrize("method", ["self", "double", "single", "disk-ssd"])
    def test_correct_solution_with_checkpoints(self, method):
        scfg = SKTConfig(hpl=CFG, method=method, group_size=4, interval_panels=3)
        cluster = Cluster(8)
        res = Job(
            cluster, skt_hpl_main, 8, args=(scfg,), procs_per_node=1
        ).run()
        assert res.completed, res.rank_errors
        r0 = res.rank_results[0]
        assert r0.hpl.passed
        assert not r0.restored
        assert r0.n_checkpoints == 3  # panels 3, 6, 9 (12 is last, skipped)
        np.testing.assert_allclose(r0.hpl.x, x_ref(), rtol=1e-8)

    def test_checkpoint_time_accounted(self):
        scfg = SKTConfig(hpl=CFG, method="self", group_size=4, interval_panels=3)
        cluster = Cluster(8)
        res = Job(cluster, skt_hpl_main, 8, args=(scfg,), procs_per_node=1).run()
        r0 = res.rank_results[0]
        assert r0.ckpt_encode_s > 0
        assert r0.ckpt_flush_s > 0
        assert r0.overhead_bytes > 0

    def test_multilevel_reports_its_level1_cost(self):
        """Level 1 of multilevel IS the double scheme: the same checkpoints
        cost the same encode / flush seconds (they once read as 0.0)."""

        def run(method):
            scfg = SKTConfig(hpl=CFG, method=method, group_size=4, interval_panels=3)
            res = Job(Cluster(8), skt_hpl_main, 8, args=(scfg,), procs_per_node=1).run()
            return res.rank_results[0]

        double, multilevel = run("double"), run("multilevel")
        assert multilevel.n_checkpoints == double.n_checkpoints == 3
        assert multilevel.ckpt_encode_s == double.ckpt_encode_s > 0
        assert multilevel.ckpt_flush_s == double.ckpt_flush_s > 0

    def test_disk_flush_time_is_the_device_write(self):
        scfg = SKTConfig(hpl=CFG, method="disk-ssd", interval_panels=3)
        res = Job(Cluster(8), skt_hpl_main, 8, args=(scfg,), procs_per_node=1).run()
        r0 = res.rank_results[0]
        assert r0.ckpt_encode_s == 0.0 and r0.ckpt_flush_s > 3 * 5e-3  # 3 x latency

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            SKTConfig(hpl=CFG, interval_panels=0)
        with pytest.raises(ValueError):
            SKTConfig(hpl=CFG, auto_interval_mtbf_s=0.0)

    def test_fractional_interval_is_refused(self):
        """2.5 once meant "every 3 panels", silently."""
        with pytest.raises(TypeError, match="^interval_panels must be an int"):
            SKTConfig(hpl=CFG, interval_panels=2.5)
        with pytest.raises(TypeError, match="^group_size must be an int"):
            SKTConfig(hpl=CFG, group_size=4.0)

    @pytest.mark.parametrize("mtbf", [float("nan"), float("inf")])
    def test_non_finite_mtbf_is_refused(self, mtbf):
        with pytest.raises(ValueError, match="^auto_interval_mtbf_s must be finite"):
            SKTConfig(hpl=CFG, auto_interval_mtbf_s=mtbf)

    def test_unknown_method_is_refused_before_any_rank_runs(self):
        with pytest.raises(ValueError, match="^method must be one of"):
            SKTConfig(hpl=CFG, method="bogus")

    def test_auto_interval_adapts_to_mtbf(self):
        """Young-driven pacing: a hostile MTBF forces frequent checkpoints,
        a benign one backs off to almost none."""

        def run(mtbf):
            scfg = SKTConfig(
                hpl=CFG,
                method="self",
                group_size=4,
                interval_panels=2,
                auto_interval_mtbf_s=mtbf,
            )
            cluster = Cluster(8)
            res = Job(cluster, skt_hpl_main, 8, args=(scfg,), procs_per_node=1).run()
            assert res.completed, res.rank_errors
            r0 = res.rank_results[0]
            assert r0.hpl.passed
            return r0.n_checkpoints

        # virtual panels take ~10 us here, so the crossover MTBF is tiny
        assert run(1e-9) > run(1e3) >= 1

    def test_auto_interval_paces_on_panel_work_alone(self, monkeypatch):
        """Young's T_opt is compute time between checkpoints, so the panel
        time it is divided by counts every panel from the loop's start and
        none of a checkpoint's own seconds.  The stand-in for Young returns
        10.2 of the rank's exact mean panel work: only an exact estimate
        rounds to an interval of 10 on every rank."""
        from repro.ckpt import interval
        from repro.ckpt.manager import CheckpointManager
        from repro.hpl import skt

        start, ckpt_s, ckpt_panels = {}, {}, {}
        solve, checkpoint = skt.hpl_solve, CheckpointManager.checkpoint
        # nothing parks between a checkpoint's return and the Young call
        # it feeds, so the last checkpoint's context is the caller's
        last_ctx = []

        def timed_solve(ctx, *args, **kwargs):
            start[ctx.rank] = ctx.clock
            return solve(ctx, *args, **kwargs)

        def timed_checkpoint(mgr):
            ctx = mgr.ctx
            before = ctx.clock
            info = checkpoint(mgr)
            ckpt_s[ctx.rank] = ckpt_s.get(ctx.rank, 0.0) + ctx.clock - before
            ckpt_panels.setdefault(ctx.rank, []).append(mgr.local["panel"])
            last_ctx[:] = [ctx]
            return info

        def young(delta_s, mtbf_s):
            (ctx,) = last_ctx
            work_s = ctx.clock - start[ctx.rank] - ckpt_s[ctx.rank]
            return 10.2 * work_s / ckpt_panels[ctx.rank][-1]

        monkeypatch.setattr(skt, "hpl_solve", timed_solve)
        monkeypatch.setattr(CheckpointManager, "checkpoint", timed_checkpoint)
        monkeypatch.setattr(interval, "optimal_interval_young", young)
        cfg = HPLConfig(n=256, nb=8, p=2, q=4)  # 32 panels
        scfg = SKTConfig(
            hpl=cfg, method="self", group_size=4, interval_panels=4, auto_interval_mtbf_s=1e-3
        )
        res = Job(Cluster(8), skt_hpl_main, 8, args=(scfg,), procs_per_node=1).run()
        assert res.completed, res.rank_errors
        assert ckpt_panels == {r: [4, 14, 24] for r in range(8)}

    @pytest.mark.parametrize("n, mtbf", [(256, 1e-3), (192, 1e-4), (192, 1e-3), (192, 3e-3)])
    def test_auto_interval_is_one_interval_for_every_rank(self, n, mtbf):
        """Each rank times its own panels, so their Young intervals differ;
        a rank checkpointing at another panel than its group deadlocks."""
        cfg = HPLConfig(n=n, nb=8, p=2, q=4)
        scfg = SKTConfig(
            hpl=cfg, method="self", group_size=4, interval_panels=2, auto_interval_mtbf_s=mtbf
        )
        res = Job(Cluster(8), skt_hpl_main, 8, args=(scfg,), procs_per_node=1).run()
        assert res.completed, res.rank_errors
        assert len({r.n_checkpoints for r in res.rank_results.values()}) == 1
        assert all(r.hpl.passed for r in res.rank_results.values())

    def test_auto_interval_recovery_still_works(self):
        scfg = SKTConfig(
            hpl=CFG,
            method="self",
            group_size=4,
            interval_panels=2,
            auto_interval_mtbf_s=1e-9,  # checkpoint every panel
        )
        plan = FailurePlan([PhaseTrigger(node_id=3, phase="ckpt.flush", occurrence=4)])
        report = daemon_run(scfg, plan)
        assert report.completed, report.gave_up_reason
        r0 = report.result.rank_results[0]
        assert r0.restored and r0.hpl.passed


class TestPowerOff:
    """The paper's §6.3 validation: remove a node mid-run; SKT-HPL must
    replace it with a spare, recover the data and pass verification."""

    @pytest.mark.parametrize(
        "phase",
        ["ckpt.encode", "ckpt.flush_license", "ckpt.flush", "ckpt.done"],
    )
    def test_recovers_from_every_checkpoint_phase(self, phase):
        scfg = SKTConfig(hpl=CFG, method="self", group_size=4, interval_panels=3)
        plan = FailurePlan([PhaseTrigger(node_id=3, phase=phase, occurrence=2)])
        report = daemon_run(scfg, plan)
        assert report.completed, report.gave_up_reason
        assert report.n_restarts == 1
        r0 = report.result.rank_results[0]
        assert r0.restored and r0.hpl.passed
        np.testing.assert_allclose(r0.hpl.x, x_ref(), rtol=1e-8)

    def test_resumes_from_checkpoint_not_scratch(self):
        scfg = SKTConfig(hpl=CFG, method="self", group_size=4, interval_panels=3)
        plan = FailurePlan([PhaseTrigger(node_id=1, phase="ckpt.done", occurrence=2)])
        report = daemon_run(scfg, plan)
        r0 = report.result.rank_results[0]
        assert r0.restored_panel == 6  # second checkpoint covered panels 0-5

    def test_two_sequential_failures(self):
        scfg = SKTConfig(hpl=CFG, method="self", group_size=4, interval_panels=3)
        plan = FailurePlan(
            [
                PhaseTrigger(node_id=2, phase="ckpt.done", occurrence=1),
                PhaseTrigger(node_id=5, phase="ckpt.flush", occurrence=3),
            ]
        )
        report = daemon_run(scfg, plan, n_spares=3, max_restarts=4)
        assert report.completed
        assert report.n_restarts == 2
        assert report.result.rank_results[0].hpl.passed

    def test_downtime_accounting(self):
        scfg = SKTConfig(hpl=CFG, method="self", group_size=4, interval_panels=3)
        plan = FailurePlan([PhaseTrigger(node_id=3, phase="ckpt.done", occurrence=2)])
        policy = RestartPolicy(detect_s=63.0, replace_s=10.0, restart_s=9.0)
        cluster = Cluster(8, n_spares=2)
        report = JobDaemon(
            cluster,
            skt_hpl_main,
            8,
            args=(scfg,),
            procs_per_node=1,
            failure_plan=plan,
            policy=policy,
        ).run()
        downtime = sum(c.detect_s + c.replace_s + c.restart_s for c in report.cycles)
        assert downtime == pytest.approx(82.0)
        assert report.total_virtual_s > downtime

    @pytest.mark.parametrize("method", ["double", "disk-hdd", "multilevel"])
    def test_other_recoverable_methods_also_survive(self, method):
        scfg = SKTConfig(hpl=CFG, method=method, group_size=4, interval_panels=3)
        phase = "ckpt.flush" if method == "disk-hdd" else "ckpt.update.mid"
        plan = FailurePlan([PhaseTrigger(node_id=3, phase=phase, occurrence=2)])
        report = daemon_run(scfg, plan)
        assert report.completed, report.gave_up_reason
        r0 = report.result.rank_results[0]
        assert r0.hpl.passed and r0.restored

    def test_single_checkpoint_fails_midupdate(self):
        scfg = SKTConfig(hpl=CFG, method="single", group_size=4, interval_panels=3)
        plan = FailurePlan(
            [PhaseTrigger(node_id=3, phase="ckpt.update.mid", occurrence=2)]
        )
        report = daemon_run(scfg, plan)
        assert not report.completed
        assert report.gave_up_reason == "application state unrecoverable"

    def test_simultaneous_double_loss_rs_recovers(self):
        """Extension: SKT-HPL on the Reed-Solomon scheme survives two
        nodes of one group dying at the same instant."""
        scfg = SKTConfig(hpl=CFG, method="self-rs", group_size=8, interval_panels=3)
        plan = double_loss_plan()
        report = daemon_run(scfg, plan, n_spares=4)
        assert report.completed, report.gave_up_reason
        r0 = report.result.rank_results[0]
        assert r0.restored and r0.hpl.passed
        np.testing.assert_allclose(r0.hpl.x, x_ref(), rtol=1e-8)

    def test_simultaneous_double_loss_xor_fails(self):
        scfg = SKTConfig(hpl=CFG, method="self", group_size=8, interval_panels=3)
        plan = double_loss_plan()
        report = daemon_run(scfg, plan, n_spares=4)
        assert not report.completed
        assert report.gave_up_reason == "application state unrecoverable"

    def test_spare_pool_exhaustion_reported(self):
        scfg = SKTConfig(hpl=CFG, method="self", group_size=4, interval_panels=3)
        plan = FailurePlan([PhaseTrigger(node_id=3, phase="ckpt.done", occurrence=1)])
        report = daemon_run(scfg, plan, n_spares=0)
        assert not report.completed
        assert report.gave_up_reason == "spare pool exhausted"
