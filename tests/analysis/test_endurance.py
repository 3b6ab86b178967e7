"""Endurance tests: survival of repeated random failures, and agreement
with the first-order expected-runtime model."""

import pytest

from repro.analysis.endurance import endurance_run


class TestEndurance:
    @pytest.mark.parametrize("seed", [1, 7, 11, 23])  # 11: the `repro endurance` row
    def test_survives_failure_storm(self, seed):
        report = endurance_run(
            iters=40,
            work_per_iter_s=10.0,
            mtbf_node_s=3000.0,  # system MTBF 375 s vs 400 s of work: storms
            seed=seed,
            max_restarts=30,
        )
        assert report.completed
        assert report.final_state_ok
        # with MTBF below total work time, failures essentially certain
        # across seeds; allow the lucky case but check accounting coherence
        assert report.total_virtual_s >= report.work_virtual_s

    def test_no_failures_when_mtbf_huge(self):
        report = endurance_run(mtbf_node_s=1e12, seed=5)
        assert report.completed and report.n_restarts == 0
        assert report.total_virtual_s == pytest.approx(report.work_virtual_s)

    def test_total_time_in_model_ballpark(self):
        """Average over seeds should sit within ~2.5x of the first-order
        expectation (the model is first-order; the storm is random)."""
        totals, models = [], []
        for seed in range(6):
            r = endurance_run(
                iters=40, work_per_iter_s=10.0, mtbf_node_s=6000.0, seed=seed
            )
            assert r.completed and r.final_state_ok
            totals.append(r.total_virtual_s)
            models.append(r.model_expected_s)
        mean_total = sum(totals) / len(totals)
        mean_model = sum(models) / len(models)
        assert mean_total < 2.5 * mean_model
        assert mean_total > 0.4 * mean_model

    def test_restart_accounting(self):
        report = endurance_run(mtbf_node_s=2500.0, seed=3, max_restarts=30)
        assert report.completed
        assert report.n_restarts == len(report.restarts_log)
        assert report.failures_injected >= report.n_restarts
