"""Campaign observability: payloads, store ingest, and the off-mode contract.

The campaign-level determinism contract extends to telemetry: a kill
matrix run with ``--obs summary`` must ingest to a byte-identical trace
store whether replays run serially or over a worker pool, and turning
observability on must never perturb ``BENCH_chaos.json``.
"""

import dataclasses
import sqlite3

import pytest

from repro.chaos import (
    RandomCampaignConfig,
    chaos_main,
    probe_baseline,
    random_campaign,
    run_kill_matrix,
    skt_scenario,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.rollup import OBS_FULL, OBS_OFF, OBS_SUMMARY
from repro.obs.store import (
    TraceStore,
    campaign_id_for,
    ingest_kill_matrix,
    ingest_schedules,
)
from repro.par import MemoCache
from tests.chaos.helpers import bench_bytes, small_scenario

MODES = (OBS_OFF, OBS_SUMMARY, OBS_FULL)


def _store_digest(scenario, report, obs_mode):
    with TraceStore(":memory:") as store:
        cid = campaign_id_for(0, scenario.name, [report.method])
        ingest_kill_matrix(
            store, cid, scenario, report, seed=0, obs_mode=obs_mode
        )
        return store.digest()


@pytest.fixture(scope="module")
def matrix():
    """``{obs mode: serial kill matrix of the small scenario}``, each run
    once for the tests that only read it."""
    sc = small_scenario()
    probe = probe_baseline(sc)
    return {mode: run_kill_matrix(sc, probe=probe, obs=mode) for mode in MODES}


class TestAttemptPayload:
    def test_summary_mode_carries_rollup_only(self, matrix):
        report = matrix[OBS_SUMMARY]
        assert report.results
        for r in report.results:
            assert r.obs is not None
            assert r.obs["mode"] == "summary"
            assert "summary" in r.obs
            assert "spans" not in r.obs
            assert "metrics" not in r.obs

    def test_full_mode_carries_streams(self, matrix):
        for r in matrix[OBS_FULL].results:
            assert r.obs["mode"] == "full"
            assert isinstance(r.obs["spans"], list) and r.obs["spans"]
            assert isinstance(r.obs["metrics"], list)

    def test_off_mode_carries_nothing(self, matrix):
        assert all(r.obs is None for r in matrix[OBS_OFF].results)


class TestOneFold:
    """``summary`` records less than ``full`` but folds it the same way:
    each attempt's ``summary`` payload is the ``summary`` key of its
    ``full`` payload, float for float."""

    @staticmethod
    def _assert_summary_is_fulls(summary, full):
        assert len(summary.results) == len(full.results) > 0
        for s, f in zip(summary.results, full.results):
            assert s.point == f.point
            assert s.obs == {"mode": OBS_SUMMARY, "summary": f.obs["summary"]}

    def test_small_matrix(self, matrix):
        self._assert_summary_is_fulls(matrix[OBS_SUMMARY], matrix[OBS_FULL])

    def test_skt_hpl_self_matrix(self):
        """SKT-HPL's span totals depend on summation order (a fold in
        span-arrival order moves some ``span.total_s.*`` values here,
        none on the small matrix): both modes must sum in canonical
        ``(incarnation, rank, seq)`` order."""
        sc = skt_scenario(group_size=4, seed=0)
        probe = probe_baseline(sc)
        summary, full = (
            run_kill_matrix(sc, probe=probe, obs=mode)
            for mode in (OBS_SUMMARY, OBS_FULL)
        )
        assert len(summary.results) == 40
        self._assert_summary_is_fulls(summary, full)


class TestBenchCompat:
    def test_bench_bytes_never_see_obs_payload(self, matrix):
        off, summary, full = (bench_bytes([matrix[mode]]) for mode in MODES)
        assert off == summary == full

    def test_random_campaign_bench_obs_invariant(self):
        sc = small_scenario()
        cfg = RandomCampaignConfig(n_schedules=2, seed=5)
        off = random_campaign(sc, cfg, obs=OBS_OFF)
        summary = random_campaign(sc, cfg, obs=OBS_SUMMARY)
        assert bench_bytes([], off) == bench_bytes([], summary)


class TestStoreEquivalence:
    def test_serial_and_pooled_ingest_identically(self, matrix):
        sc = small_scenario()
        serial = matrix[OBS_SUMMARY]
        pooled = run_kill_matrix(
            sc, probe=probe_baseline(sc), obs=OBS_SUMMARY, workers=2
        )
        assert _store_digest(sc, serial, OBS_SUMMARY) == _store_digest(
            sc, pooled, OBS_SUMMARY
        )

    def test_schedules_ingest_deterministically(self):
        sc = small_scenario()
        cfg = RandomCampaignConfig(n_schedules=2, seed=5)
        digests = []
        for workers in (1, 2):
            results = random_campaign(sc, cfg, obs=OBS_SUMMARY, workers=workers)
            with TraceStore(":memory:") as store:
                ingest_schedules(
                    store,
                    "camp",
                    sc,
                    results,
                    seed=5,
                    obs_mode=OBS_SUMMARY,
                )
                digests.append(store.digest())
        assert digests[0] == digests[1]

    def test_run_identity_differs_across_obs_modes(self, matrix):
        sc = small_scenario()
        a = _store_digest(sc, matrix[OBS_SUMMARY], OBS_SUMMARY)
        b = _store_digest(sc, matrix[OBS_FULL], OBS_FULL)
        assert a != b  # modes are part of the run identity


class TestStoreTransaction:
    def test_failed_ingest_leaves_no_rows_of_its_campaign(self, matrix, tmp_path):
        """A ``with TraceStore`` block is one transaction: an ingest that
        raises partway keeps none of that campaign's rows, and rows
        committed before it stay."""
        sc, path = small_scenario(), str(tmp_path / "obs.sqlite")
        report = matrix[OBS_SUMMARY]
        with TraceStore(path) as store:
            ingest_kill_matrix(store, "good", sc, report, seed=0, obs_mode=OBS_SUMMARY)
            kept = store.digest()
        results = list(report.results)
        # runs.verdict is NOT NULL: the third insert raises
        results[2] = dataclasses.replace(results[2], verdict=None)
        bad = dataclasses.replace(report, results=results)
        with pytest.raises(sqlite3.IntegrityError):
            with TraceStore(path) as store:
                ingest_kill_matrix(
                    store, "bad", sc, bad, seed=0, obs_mode=OBS_SUMMARY,
                    ord_base=len(results),
                )
        with TraceStore(path, readonly=True) as store:
            assert store.query("SELECT COUNT(*) FROM runs WHERE campaign_id = 'bad'") == [(0,)]
            assert store.digest() == kept


class TestCacheIsolation:
    def test_cache_never_crosses_obs_modes(self, tmp_path):
        sc = small_scenario()
        probe = probe_baseline(sc)
        cache = MemoCache(str(tmp_path / "memo"))
        reg = MetricsRegistry()
        run_kill_matrix(sc, probe=probe, cache=cache, obs=OBS_OFF, registry=reg)
        misses_after_off = reg.total("par.cache_misses")
        assert misses_after_off > 0 and reg.total("par.cache_hits") == 0
        # same sweep with obs=summary: every fingerprint differs, so the
        # cache must miss again rather than serve payload-less outcomes
        run_kill_matrix(sc, probe=probe, cache=cache, obs=OBS_SUMMARY, registry=reg)
        assert reg.total("par.cache_hits") == 0
        assert reg.total("par.cache_misses") == 2 * misses_after_off

    def test_cache_hit_replays_obs_payload(self, tmp_path):
        sc = small_scenario()
        probe = probe_baseline(sc)
        cache = MemoCache(str(tmp_path / "memo"))
        reg = MetricsRegistry()
        first = run_kill_matrix(sc, probe=probe, cache=cache, obs=OBS_SUMMARY, registry=reg)
        assert reg.total("par.cache_hits") == 0
        again = run_kill_matrix(sc, probe=probe, cache=cache, obs=OBS_SUMMARY, registry=reg)
        assert reg.total("par.cache_hits") > 0
        for a, b in zip(first.results, again.results):
            assert a.obs == b.obs
        assert _store_digest(sc, first, OBS_SUMMARY) == _store_digest(
            sc, again, OBS_SUMMARY
        )


class TestCampaignIdentity:
    """``repro chaos --store`` names a campaign by its shape as well as its
    seed and methods, so two shapes never interleave under one id."""

    FLAGS = [
        "--methods", "self", "--ppn", "1", "--group-size", "2", "--iters", "4",
        "--max-occurrences", "1", "--obs", "summary", "--no-progress",
        "--report-only",
    ]

    def _ids_and_rows(self, store_path):
        with TraceStore(store_path) as store:
            ids = {cid for (cid,) in store.query("SELECT DISTINCT campaign_id FROM runs")}
            return ids, store.counts()["runs"]

    def test_shapes_get_their_own_ids(self, tmp_path, capsys):
        path = str(tmp_path / "obs.sqlite")
        for nodes in ("2", "4", "2"):
            assert chaos_main(self.FLAGS + ["--nodes", nodes, "--store", path]) == 0
            if nodes == "4":
                two_shapes = self._ids_and_rows(path)
        capsys.readouterr()
        ids, rows = two_shapes
        assert len(ids) == 2
        # re-ingesting the first campaign replaces its rows under its one id
        assert self._ids_and_rows(path) == (ids, rows)
