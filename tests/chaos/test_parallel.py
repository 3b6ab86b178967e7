"""Serial-vs-parallel equivalence for the campaign engines (repro.par).

The contract under test: ``workers`` changes wall-clock time and nothing
else.  The kill matrix and the randomized campaign must produce the same
verdicts in the same order — down to the bytes of ``BENCH_chaos.json`` —
whether replays run inline, on one worker, or fanned out over a pool; a
replay that crashes inside a worker must surface as its own verdict in
its own slot, never abort or reorder the sweep.  Pool tests pin two CPUs
(``two_cpus``), so a real pool runs on a host of any size; at one CPU the
pool runs inline (``TestOneCpu``), and nothing it writes shows it.
"""

import pytest

from repro.chaos import (
    ChaosScenario,
    RandomCampaignConfig,
    chaos_main,
    enumerate_kill_points,
    probe_baseline,
    random_campaign,
    run_kill_matrix,
    run_schedule,
)
from repro.chaos.plan import run_campaign
from repro.obs.metrics import MetricsRegistry
from repro.par import MemoCache
from tests.chaos.helpers import bench_bytes, small_scenario


class UnbuildableScenario(ChaosScenario):
    """A recipe whose ``make()`` raises: every replay of it crashes,
    inline or inside a pool worker, and the parent must fold that into
    a verdict."""

    def make(self):
        raise RuntimeError("scenario cannot be built")


@pytest.mark.usefixtures("two_cpus")
class TestGoldenEquivalence:
    def test_kill_matrix_is_worker_count_invariant(self):
        sc = small_scenario()
        probe = probe_baseline(sc)
        legacy = run_kill_matrix(sc, probe=probe)
        one = run_kill_matrix(sc, probe=probe, workers=1)
        pooled = run_kill_matrix(sc, probe=probe, workers=2)
        assert (
            bench_bytes([legacy]) == bench_bytes([one]) == bench_bytes([pooled])
        )

    def test_random_campaign_is_worker_count_invariant(self):
        sc = small_scenario()
        probe = probe_baseline(sc)
        cfg = RandomCampaignConfig(n_schedules=4, seed=7)
        serial = random_campaign(sc, cfg, probe=probe)
        pooled = random_campaign(sc, cfg, probe=probe, workers=2)
        assert bench_bytes([], serial) == bench_bytes([], pooled)

    def test_pooled_matrix_with_cache_still_identical(self):
        sc = small_scenario()
        probe = probe_baseline(sc)
        cache = MemoCache()
        cold = run_kill_matrix(sc, probe=probe, workers=2, cache=cache)
        warm = run_kill_matrix(sc, probe=probe, workers=2, cache=cache)
        plain = run_kill_matrix(sc, probe=probe)
        assert (
            bench_bytes([cold]) == bench_bytes([warm]) == bench_bytes([plain])
        )


class TestWorkerCrash:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_crashed_replay_is_a_verdict_not_a_loss(self, workers, two_cpus):
        base = small_scenario()
        sc = UnbuildableScenario(base.kind, base.kwargs)
        probe = probe_baseline(base)  # the plan comes from the buildable twin
        points = enumerate_kill_points(probe, max_occurrences=1)
        _, (report,), _ = run_campaign(
            [sc], workers=workers, probes=[probe], points=[points]
        )
        results = report.results
        assert [r.point for r in results] == points  # nothing lost
        assert all(r.verdict == "gave-up" for r in results)
        assert all(
            r.gave_up_reason.startswith("replay crashed: RuntimeError")
            for r in results
        )


class TestSerialOnlyFallback:
    """A scenario with a custom protocol class still runs inline: the
    workers=1 path needs nothing the pool path adds."""

    def test_unpicklable_scenario_runs_serially(self):
        from repro.ckpt.self_ckpt import SelfCheckpoint

        sc = small_scenario(protocol_factory=SelfCheckpoint)
        report = run_kill_matrix(sc, phases=["ckpt.done"], max_occurrences=1)
        assert report.results
        assert report.survived_all


class TestOneCpu:
    """``--workers 2`` on one CPU runs the replays inline: same verdicts,
    same refusals, and a summary line that says so."""

    def test_a_scenario_that_cannot_cross_a_process_fails_on_every_host(
        self, engine_cpus
    ):
        """A recipe a pool cannot ship crashes every replay at
        ``workers=2`` whether the host pools it or not; it runs only at
        ``workers=1``."""

        class LocalScenario(ChaosScenario):
            pass

        base = small_scenario()
        sc = LocalScenario(base.kind, base.kwargs)
        probe = probe_baseline(base)
        points = enumerate_kill_points(probe, max_occurrences=1)

        def reasons(workers):
            _, (report,), _ = run_campaign(
                [sc], workers=workers, probes=[probe], points=[points]
            )
            return [r.gave_up_reason for r in report.results]

        engine_cpus(1)
        inline = reasons(2)
        engine_cpus(2)
        assert reasons(2) == inline
        assert all(
            r.startswith("replay crashed: AttributeError: Can't pickle local object")
            for r in inline
        )
        assert not any(reasons(1))

    def test_summary_line_names_the_running_processes(self, engine_cpus, capsys):
        flags = [
            "--methods", "self", "--nodes", "2", "--ppn", "1",
            "--group-size", "2", "--max-occurrences", "1", "--workers", "2",
            "--no-progress", "--report-only",
        ]
        out = {}
        for cpus in (1, 2):
            engine_cpus(cpus)
            assert chaos_main(flags) == 0
            out[cpus] = capsys.readouterr().out.splitlines()
        assert out[1][-1].endswith("(2 workers (1 running))")
        assert out[2][-1].endswith("(2 workers)")
        assert out[1][:-1] == out[2][:-1]


class TestCacheSemantics:
    def test_second_sweep_is_all_hits(self):
        sc = small_scenario()
        probe = probe_baseline(sc)
        cache = MemoCache()
        run_kill_matrix(sc, probe=probe, cache=cache)
        registry = MetricsRegistry()
        warm = run_kill_matrix(sc, probe=probe, cache=cache, registry=registry)
        n = len(warm.results)
        assert registry.total("par.cache_hits") == n
        assert registry.total("par.cache_misses") == 0
        # chaos.runs counts resolved replays whether replayed or cached,
        # so campaign accounting is cache-independent
        assert registry.total("chaos.runs") == n + 1  # + baseline

    def test_run_schedule_deduplicates_through_cache(self):
        from repro.sim.failures import TimeTrigger

        sc = small_scenario()
        cache = MemoCache()
        triggers = [TimeTrigger(node_id=0, at_time=2.5)]
        first = run_schedule(sc, triggers, cache=cache)
        assert len(cache) == 1
        second = run_schedule(sc, triggers, cache=cache)
        assert (first.verdict, first.n_restarts, first.fired) == (
            second.verdict,
            second.n_restarts,
            second.fired,
        )

    def test_disk_cache_round_trips_a_campaign(self, tmp_path):
        sc = small_scenario()
        probe = probe_baseline(sc)
        cold = run_kill_matrix(
            sc, probe=probe, cache=MemoCache(str(tmp_path))
        )
        registry = MetricsRegistry()
        warm = run_kill_matrix(
            sc,
            probe=probe,
            cache=MemoCache(str(tmp_path)),
            registry=registry,
        )
        assert bench_bytes([cold]) == bench_bytes([warm])
        assert registry.total("par.cache_hits") == len(warm.results)
