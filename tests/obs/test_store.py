"""Trace-store tests: content-addressed ingest, idempotency, digests."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.rollup import (
    TrafficTotals,
    attempt_payload,
    attempt_summary,
    span_doc,
    span_from_doc,
)
from repro.obs.scenario import run_scenario, store_run
from repro.obs.spans import SpanTracer
from repro.obs.store import TraceStore, attempt_run_id


def _sample_tracer():
    tr = SpanTracer()
    tr.begin(0, "ckpt", 1.0, {"epoch": 0})
    tr.begin(0, "ckpt.encode", 1.25, {"nbytes": 4096})
    tr.end(0, 1.75)
    tr.end(0, 2.0)
    tr.begin(1, "ckpt", 1.0)
    tr.close_rank(1, 1.5)  # died mid-checkpoint: closed as interrupted
    tr.begin(2, "restore", 2.0)  # never closed: end stays None
    return tr


def _registry():
    reg = MetricsRegistry()
    reg.counter("mpi.bytes_sent", rank=0, cls="pt2pt").inc(128)
    reg.counter("mpi.bytes_posted", rank=0, cls="pt2pt").inc(160)
    reg.gauge("job.makespan_s").set(2.0)
    reg.histogram("mpi.blocked_s", rank=1).observe(0.25)
    return reg


def _traffic():
    """What ``summary`` records of the traffic :func:`_registry` counts."""
    traffic = TrafficTotals()
    traffic.posted, traffic.sent = 160, 128
    return traffic


def _ingest_sample(store, run_id="run-a", mode="full"):
    recorded = _registry() if mode == "full" else _traffic()
    payload = attempt_payload(_sample_tracer(), recorded, mode, 1)
    return store.ingest_attempt(
        run_id=run_id,
        campaign_id="camp",
        ord=0,
        kind="kill",
        scenario="selfckpt",
        method="self",
        seed=0,
        label="ckpt.begin:1@n0",
        verdict="survived",
        n_restarts=1,
        makespan_s=10.0,
        params={"iters": 2},
        obs=payload,
    )


class TestIngest:
    def test_counts_after_full_ingest(self):
        with TraceStore(":memory:") as store:
            _ingest_sample(store)
            counts = store.counts()
        assert counts["runs"] == 1
        assert counts["spans"] == 4
        assert counts["metrics"] == 4
        assert counts["summaries"] > 0

    def test_summary_mode_skips_streams(self):
        with TraceStore(":memory:") as store:
            _ingest_sample(store, mode="summary")
            counts = store.counts()
        assert counts["runs"] == 1
        assert counts["spans"] == 0
        assert counts["metrics"] == 0
        assert counts["summaries"] > 0

    def test_obs_off_stores_run_row_only(self):
        with TraceStore(":memory:") as store:
            store.ingest_attempt(
                run_id="r",
                campaign_id="c",
                ord=0,
                kind="kill",
                scenario="s",
                method="self",
                seed=0,
                label="l",
                verdict="survived",
                n_restarts=0,
                makespan_s=1.0,
                params={},
                obs=None,
            )
            counts = store.counts()
            row = store.query("SELECT obs_mode FROM runs")[0]
        assert counts == {
            "store_meta": 1,
            "runs": 1,
            "spans": 0,
            "metrics": 0,
            "summaries": 0,
        }
        assert row == ("off",)

    def test_reingest_is_idempotent(self):
        with TraceStore(":memory:") as store:
            _ingest_sample(store)
            d1 = store.digest()
            _ingest_sample(store)
            d2 = store.digest()
        assert d1 == d2

    def test_every_row_is_keyed_by_its_run(self):
        """One identity: no table but ``store_meta`` holds a row that is not
        addressed by a run id first (ROADMAP item 4)."""
        with TraceStore(":memory:") as store:
            tables = set(store.counts())
            # PRAGMA table_info rows end in the column's 1-based position
            # in the primary key (0 = not part of it)
            first_pk = {
                t: [r[1] for r in store.query(f"PRAGMA table_info({t})") if r[5] == 1]
                for t in tables - {"store_meta"}
            }
        assert tables == {"store_meta", "runs", "spans", "metrics", "summaries"}
        assert set(map(tuple, first_pk.values())) == {("run_id",)}, first_pk


class TestDigest:
    def test_equal_content_equal_digest(self):
        with TraceStore(":memory:") as a, TraceStore(":memory:") as b:
            _ingest_sample(a)
            _ingest_sample(b)
            assert a.digest() == b.digest()

    def test_different_content_different_digest(self):
        with TraceStore(":memory:") as a, TraceStore(":memory:") as b:
            _ingest_sample(a, run_id="run-a")
            _ingest_sample(b, run_id="run-b")
            assert a.digest() != b.digest()

    def test_digest_covers_logical_dump(self):
        with TraceStore(":memory:") as store:
            _ingest_sample(store)
            dump = store.dump_canonical()
        assert '"table":"runs"' in dump
        assert '"table":"spans"' in dump
        assert dump.endswith("\n")

    def test_file_backed_store_round_trips(self, tmp_path):
        path = str(tmp_path / "obs.sqlite")
        with TraceStore(path) as store:
            _ingest_sample(store)
            d1 = store.digest()
        with TraceStore(path) as store:
            d2 = store.digest()
        assert d1 == d2

    def test_store_written_before_bench_records_went_still_opens(self, tmp_path):
        """A file from before the side-table was dropped carries an empty
        ``bench_records`` table: it opens, ingests and digests like a fresh
        store (the table is not part of the logical content)."""
        import sqlite3

        old, fresh = str(tmp_path / "old.sqlite"), str(tmp_path / "new.sqlite")
        conn = sqlite3.connect(old)
        conn.execute(
            "CREATE TABLE bench_records (record_id TEXT PRIMARY KEY, "
            "bench TEXT NOT NULL, seed INTEGER NOT NULL, "
            "record_json TEXT NOT NULL)"
        )
        conn.commit()
        conn.close()
        with TraceStore(old) as a, TraceStore(fresh) as b:
            _ingest_sample(a)
            _ingest_sample(b)
            assert a.counts() == b.counts()
            assert a.digest() == b.digest()
        with TraceStore(old, readonly=True) as a:
            assert a.counts()["runs"] == 1


class TestRunIdentity:
    def test_obs_run_id_is_content_addressed(self):
        """An obs run's id is the replay fingerprint of the chaos recipe it
        ran plus its one trigger, at obs mode ``full`` — what a ``repro
        chaos --obs full`` unit of the same run is stored under."""
        from repro.chaos.scenarios import selfckpt_scenario
        from repro.hpl.daemon import RestartPolicy
        from repro.par.cache import replay_fingerprint
        from repro.par.replay import ReplaySpec
        from repro.sim.failures import PhaseTrigger

        run = run_scenario("selfckpt", fail_at="flush:1", iters=2, ckpt_every=1)
        recipe = selfckpt_scenario(
            n_nodes=4, group_size=4, iters=2, ckpt_every=1, n_spares=2,
            policy=RestartPolicy(detect_s=30.0, replace_s=10.0, restart_s=9.0),
        )
        trigger = PhaseTrigger(node_id=3, phase="ckpt.flush", occurrence=1)
        assert run.run_id == replay_fingerprint(
            ReplaySpec(recipe.spec, (trigger,), obs="full")
        )
        again = run_scenario("selfckpt", fail_at="flush:1", iters=2, ckpt_every=1)
        other = run_scenario("selfckpt", fail_at="flush:1", iters=3, ckpt_every=1)
        clean = run_scenario("selfckpt", iters=2, ckpt_every=1)
        assert run.run_id == again.run_id
        assert len({run.run_id, other.run_id, clean.run_id}) == 3

    def test_attempt_run_id_reuses_replay_fingerprint(self):
        from repro.chaos.scenarios import selfckpt_scenario
        from repro.par.cache import replay_fingerprint
        from repro.par.replay import ReplaySpec
        from repro.sim.failures import TimeTrigger

        sc = selfckpt_scenario(
            n_nodes=2, procs_per_node=1, group_size=2, iters=2, ckpt_every=1
        )
        trig = TimeTrigger(node_id=0, at_time=2.5)
        rid = attempt_run_id(sc, (trig,), "summary")
        assert rid == replay_fingerprint(
            ReplaySpec(sc.spec, (trig,), obs="summary")
        )
        # the obs mode is part of the identity: modes never collide
        assert rid != attempt_run_id(sc, (trig,), "off")

    def test_ingest_obs_run_full_fidelity(self):
        run = run_scenario(
            "selfckpt", fail_at="flush:1", seed=3, iters=2, ckpt_every=1
        )
        with TraceStore(":memory:") as store:
            rid = store_run(store, run)
            counts, digest = store.counts(), store.digest()
            store_run(store, run)  # re-ingesting is idempotent
            assert store.digest() == digest
            row = store.query(
                "SELECT kind, obs_mode, verdict FROM runs WHERE run_id = ?", (rid,)
            )[0]
        assert rid == run.run_id
        assert counts["runs"] == 1
        assert counts["spans"] == len(run.spans)
        assert counts["summaries"] > 0
        assert row == ("obs", "full", "survived")


class TestSpanDocRoundTrip:
    def test_exact_round_trip_including_interrupted(self):
        spans = _sample_tracer().spans()
        assert any(s.end is None for s in spans)
        back = [span_from_doc(span_doc(s)) for s in spans]
        assert back == spans

    def test_summary_is_float_valued(self):
        summary = attempt_summary(_sample_tracer().spans(), 160, 128, 1)
        assert summary["spans.count"] == 4.0
        assert summary["spans.interrupted"] == 1.0
        assert all(isinstance(v, float) for v in summary.values())
        assert summary["traffic.bytes_stranded"] == 32.0
