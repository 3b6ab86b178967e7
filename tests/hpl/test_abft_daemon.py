"""Tests for the ABFT baseline and the restart daemon.

``abft_golden.json`` pins ``abft_hpl_main`` bit for bit.  It was captured at
the commit *before* ABFT's private copy of the elimination loop was replaced
by ``hpl_solve``'s factor hook (ISSUE 18), by running this module
(``PYTHONPATH=src python -m tests.hpl.test_abft_daemon``) on that tree;
recapture the same way, and only when a change of the solve's arithmetic or
charged virtual time is intended.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.hpl import (
    HPLConfig,
    JobDaemon,
    RestartPolicy,
    abft_hpl_main,
    hpl_main,
)
from repro.hpl.abft import SoftErrorInjection
from repro.hpl.matgen import dense_matrix, dense_rhs
from repro.sim import Cluster, FailurePlan, Job, PhaseTrigger, TimeTrigger

CFG = HPLConfig(n=64, nb=8, p=2, q=2)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "abft_golden.json")
#: name -> (config, injection): one clean run and two corrected soft errors
GOLDEN_RUNS = {
    "clean-48": (HPLConfig(n=48, nb=8, p=2, q=2), None),
    "inject-64-2x4": (
        HPLConfig(n=64, nb=8, p=2, q=4),
        SoftErrorInjection(panel=2, world_rank=3),
    ),
    "inject-40": (
        HPLConfig(n=40, nb=8, p=2, q=2),
        SoftErrorInjection(panel=1, world_rank=0),
    ),
}


def abft_fingerprint(cfg, inject):
    """Everything one ABFT run computes and charges, exactly: per rank the
    solution bytes, residual, error counts, phase timers and final clock."""
    n = cfg.n_ranks
    res = Job(
        Cluster(n), lambda ctx: abft_hpl_main(ctx, cfg, inject=inject), n,
        procs_per_node=1,
    ).run()
    assert res.completed, res.rank_errors
    ranks = []
    for r in range(n):
        out, t = res.rank_results[r], res.rank_results[r].hpl.timers
        ranks.append(
            {
                "x_sha256": hashlib.sha256(out.hpl.x.tobytes()).hexdigest(),
                "residual": out.hpl.residual.hex(),
                "passed": out.hpl.passed,
                "counts": [out.errors_detected, out.errors_corrected, out.checks_run],
                "timers": [v.hex() for v in (t.panel, t.swap, t.update, t.backsub)],
                "clock": res.rank_clocks[r].hex(),
            }
        )
    return ranks


class TestABFT:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_results_are_bit_identical_to_the_golden(self, name):
        with open(GOLDEN_PATH) as f:
            want = json.load(f)[name]
        assert abft_fingerprint(*GOLDEN_RUNS[name]) == want

    def test_clean_run_is_correct(self):
        cl = Cluster(4)
        res = Job(
            cl, lambda ctx: abft_hpl_main(ctx, CFG), 4, procs_per_node=1
        ).run()
        assert res.completed
        r0 = res.rank_results[0]
        assert r0.hpl.passed
        assert r0.errors_detected == 0
        assert r0.checks_run == CFG.n_blocks
        x_ref = np.linalg.solve(dense_matrix(CFG), dense_rhs(CFG))
        np.testing.assert_allclose(r0.hpl.x, x_ref, rtol=1e-8)

    @pytest.mark.parametrize("panel,rank,mag", [(2, 1, 2.5), (4, 3, -7.0), (0, 0, 0.5)])
    def test_soft_error_detected_and_corrected(self, panel, rank, mag):
        inj = SoftErrorInjection(panel=panel, world_rank=rank, magnitude=mag)
        cl = Cluster(4)
        res = Job(
            cl,
            lambda ctx: abft_hpl_main(ctx, CFG, inject=inj),
            4,
            procs_per_node=1,
        ).run()
        assert res.completed
        r = res.rank_results[rank]
        assert r.errors_detected >= 1
        assert r.errors_corrected >= 1
        assert r.hpl.passed  # the corrected run still verifies
        x_ref = np.linalg.solve(dense_matrix(CFG), dense_rhs(CFG))
        np.testing.assert_allclose(r.hpl.x, x_ref, rtol=1e-6)

    def test_uncorrected_error_breaks_verification(self):
        """Without ABFT, the same corruption makes HPL fail — the
        detection is doing real work."""

        def corrupted_hpl(ctx):
            # plain HPL, but corrupt local data partway: simulate by
            # corrupting before the solve on one rank
            from repro.hpl import matgen
            from repro.hpl.core import hpl_solve, verify
            from repro.hpl.grid import BlockCyclicMap, ProcessGrid

            grid = ProcessGrid(ctx.world, CFG.p, CFG.q)
            rowmap = BlockCyclicMap(CFG.n, CFG.nb, CFG.p)
            colmap = BlockCyclicMap(CFG.n, CFG.nb, CFG.q)
            a, b = matgen.generate_local_system(CFG, rowmap, colmap, grid.myrow, grid.mycol)
            hook_state = {"done": False}

            def hook(k):
                if k == 2 and ctx.world.rank == 1 and not hook_state["done"]:
                    a[-1, -1] += 2.5
                    hook_state["done"] = True

            x, _ = hpl_solve(ctx, CFG, grid, rowmap, colmap, a, b, on_panel_end=hook)
            residual, passed = verify(ctx, CFG, grid, rowmap, colmap, x)
            return passed

        cl = Cluster(4)
        res = Job(cl, corrupted_hpl, 4, procs_per_node=1).run()
        assert res.completed
        assert not res.rank_results[0]

    def test_errors_on_two_different_ranks_both_corrected(self):
        """The row checksums localize independently per row, so two
        corruptions on different ranks (hence different rows) both heal."""
        from repro.hpl.abft import _ChecksumState  # noqa: F401 (doc ref)

        def main(ctx):
            # inject on rank 1 after panel 2 AND rank 3 after panel 4 by
            # running abft with per-rank injection plumbing
            inj = None
            if ctx.world.rank == 1:
                inj = SoftErrorInjection(panel=2, world_rank=1, magnitude=1.5)
            elif ctx.world.rank == 3:
                inj = SoftErrorInjection(panel=4, world_rank=3, magnitude=-2.5)
            return abft_hpl_main(ctx, CFG, inject=inj)

        cl = Cluster(4)
        res = Job(cl, main, 4, procs_per_node=1).run()
        assert res.completed
        assert res.rank_results[1].errors_corrected >= 1
        assert res.rank_results[3].errors_corrected >= 1
        assert res.rank_results[0].hpl.passed
        x_ref = np.linalg.solve(dense_matrix(CFG), dense_rhs(CFG))
        np.testing.assert_allclose(res.rank_results[0].hpl.x, x_ref, rtol=1e-6)

    def test_check_every_reduces_check_count(self):
        cl = Cluster(4)
        res = Job(
            cl,
            lambda ctx: abft_hpl_main(ctx, CFG, check_every=4),
            4,
            procs_per_node=1,
        ).run()
        assert res.completed
        assert res.rank_results[0].checks_run == CFG.n_blocks // 4

    def test_node_loss_is_fatal_for_abft(self):
        """The paper's §6.2 finding: ABFT cannot recover the run after a
        power-off — a restart starts from scratch (no state survives)."""
        cl = Cluster(4, n_spares=1)
        plan = FailurePlan([TimeTrigger(node_id=1, at_time=1e-4)])
        job = Job(
            cl,
            lambda ctx: abft_hpl_main(ctx, CFG),
            4,
            procs_per_node=1,
            failure_plan=plan,
        )
        res = job.run()
        assert res.aborted
        # nothing in SHM to restore from
        assert all(len(node.shm) == 0 for node in cl.all_nodes() if node.alive)


class TestRestartPolicy:
    def test_machine_presets(self):
        th1a = RestartPolicy.for_machine("Tianhe-1A")
        th2 = RestartPolicy.for_machine("Tianhe-2")
        assert th1a.detect_s == 30.0  # §6.3: ~30 s on average
        assert th2.detect_s == 63.0
        assert th1a.replace_s == th2.replace_s == 10.0

    def test_overrides(self):
        p = RestartPolicy.for_machine("Tianhe-2", max_restarts=2)
        assert p.detect_s == 63.0 and p.max_restarts == 2

    def test_unknown_machine(self):
        with pytest.raises(ValueError):
            RestartPolicy.for_machine("Summit")

    @pytest.mark.parametrize("field", ["detect_s", "replace_s", "restart_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, field, value):
        """A NaN passes a plain ``< 0`` check and would make every
        ``total_virtual_s`` NaN."""
        with pytest.raises(ValueError, match=field):
            RestartPolicy(**{field: value})

    @pytest.mark.parametrize("value", [1.5, True])
    def test_non_integer_max_restarts_rejected(self, value):
        """The daemon loop ranges over it: 1.5 would pass construction
        and die in ``JobDaemon.run`` with a TypeError."""
        with pytest.raises(ValueError, match="max_restarts"):
            RestartPolicy(max_restarts=value)


class TestDaemonEdgeCases:
    @pytest.mark.parametrize("ppn", [0, -1])
    def test_procs_per_node_below_one_rejected(self, ppn):
        with pytest.raises(ValueError, match="procs_per_node"):
            JobDaemon(Cluster(4), lambda ctx: None, 4, procs_per_node=ppn)

    def test_completes_without_failures(self):
        cl = Cluster(4)
        report = JobDaemon(
            cl, lambda ctx: hpl_main(ctx, CFG), 4, procs_per_node=1
        ).run()
        assert report.completed
        assert report.n_restarts == 0
        assert report.cycles == []

    def test_restart_budget_exhaustion(self):
        cl = Cluster(4, n_spares=10)
        # a failure at every incarnation's first work phase
        plan = FailurePlan(
            [TimeTrigger(node_id=i, at_time=1e-5) for i in (1, 4, 5, 6)]
        )

        def fragile(ctx):
            ctx.elapse(1.0)  # trips the next time trigger
            ctx.world.barrier()
            return True

        report = JobDaemon(
            cl,
            fragile,
            4,
            procs_per_node=1,
            failure_plan=plan,
            policy=RestartPolicy(max_restarts=2),
        ).run()
        assert not report.completed
        assert "exceeded" in report.gave_up_reason

    def test_application_error_not_retried(self):
        calls = {"n": 0}

        def buggy(ctx):
            calls["n"] += 1
            ctx.job.abort()
            ctx.world.barrier()

        cl = Cluster(2)
        report = JobDaemon(cl, buggy, 2, procs_per_node=1).run()
        assert not report.completed
        assert "application error" in report.gave_up_reason
        assert calls["n"] == 2  # one incarnation, two ranks

    def test_ranklist_preserved_for_healthy_nodes(self):
        """Healthy ranks must return to their nodes (SHM affinity)."""
        cl = Cluster(4, n_spares=1)
        plan = FailurePlan([PhaseTrigger(node_id=2, phase="work")])

        def app(ctx):
            ctx.phase("work")
            ctx.world.barrier()
            return ctx.node.node_id

        daemon = JobDaemon(cl, app, 4, procs_per_node=1, failure_plan=plan)
        report = daemon.run()
        assert report.completed and report.n_restarts == 1
        assert report.result.rank_results[0] == 0
        assert report.result.rank_results[1] == 1
        assert report.result.rank_results[2] == 4  # the spare
        assert report.result.rank_results[3] == 3
        assert report.cycles[0].replacements == {2: 4}


if __name__ == "__main__":  # capture: rewrites the golden from this tree
    with open(GOLDEN_PATH, "w") as f:
        json.dump(
            {name: abft_fingerprint(*run) for name, run in sorted(GOLDEN_RUNS.items())},
            f, indent=1, sort_keys=True,
        )
        f.write("\n")
    sys.exit(0)
