"""Query-engine tests: filters, percentiles, byte-stable output, CLI guards."""

import hashlib
import json
import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.query import (
    QueryFilter,
    aggregate_spans,
    nearest_rank,
    query_jsonl,
    query_report,
    run_rows,
    span_rows,
    summary_stats,
)
from repro.obs.rollup import attempt_payload
from repro.obs.spans import SpanTracer
from repro.obs.store import TraceStore


def _tracer(offset=0.0):
    tr = SpanTracer()
    tr.begin(0, "ckpt", 1.0 + offset)
    tr.end(0, 2.0 + offset)
    tr.begin(0, "ckpt", 3.0 + offset)
    tr.end(0, 3.5 + offset)
    tr.begin(1, "restore", 4.0 + offset)
    tr.close_rank(1, 4.25 + offset)
    return tr


def _store(path=":memory:"):
    store = TraceStore(path)
    for i, (verdict, off) in enumerate(
        [("survived", 0.0), ("survived", 1.0), ("gave-up", 2.0)]
    ):
        store.ingest_attempt(
            run_id=f"run-{i}",
            campaign_id="camp",
            ord=i,
            kind="kill" if i < 2 else "random",
            scenario="selfckpt",
            method="self",
            seed=0,
            label=f"pt-{i}",
            verdict=verdict,
            n_restarts=i,
            makespan_s=10.0 + i,
            params={},
            obs=attempt_payload(_tracer(off), MetricsRegistry(), "full", n_restarts=i),
        )
    return store


class TestNearestRank:
    def test_basic_percentiles(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(vals, 0.50) == 2.0
        assert nearest_rank(vals, 0.90) == 4.0
        assert nearest_rank(vals, 1.00) == 4.0
        assert nearest_rank(vals, 0.25) == 1.0

    def test_empty_and_bounds(self):
        assert nearest_rank([], 0.5) == 0.0
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)

    def test_single_value(self):
        assert nearest_rank([7.0], 0.5) == 7.0
        assert nearest_rank([7.0], 0.99) == 7.0


class TestFilters:
    def test_verdict_filter(self):
        store = _store()
        assert len(run_rows(store, QueryFilter())) == 3
        survived = run_rows(store, QueryFilter(verdicts=("survived",)))
        assert [r["run_id"] for r in survived] == ["run-0", "run-1"]

    def test_kind_and_label_filter(self):
        store = _store()
        assert len(run_rows(store, QueryFilter(kinds=("random",)))) == 1
        assert len(run_rows(store, QueryFilter(label_like="pt-1"))) == 1

    def test_span_name_and_rank_filter(self):
        store = _store()
        ckpts = span_rows(store, QueryFilter(names=("ckpt",)))
        assert len(ckpts) == 6  # two per run
        assert {s["name"] for s in ckpts} == {"ckpt"}
        r1 = span_rows(store, QueryFilter(ranks=(1,)))
        assert {s["name"] for s in r1} == {"restore"}

    def test_run_filter_narrows_spans(self):
        store = _store()
        spans = span_rows(
            store, QueryFilter(verdicts=("gave-up",), names=("ckpt",))
        )
        assert len(spans) == 2
        assert all(s["run_id"] == "run-2" for s in spans)


class TestAggregation:
    def test_span_aggregate_percentiles(self):
        store = _store()
        aggs = {a.name: a for a in aggregate_spans(span_rows(store, QueryFilter()))}
        ckpt = aggs["ckpt"]
        assert ckpt.count == 6 and ckpt.open == 0
        # durations alternate 1.0 / 0.5 per run
        assert sorted(ckpt.durations) == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
        assert nearest_rank(sorted(ckpt.durations), 0.5) == 0.5
        restore = aggs["restore"]
        assert restore.count == 3 and restore.open == 0

    def test_open_spans_stay_out_of_durations(self):
        tr = SpanTracer()
        tr.begin(0, "ckpt", 1.0)  # never closed
        store = TraceStore(":memory:")
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
            obs=attempt_payload(tr, MetricsRegistry(), "full", n_restarts=0),
        )
        (agg,) = aggregate_spans(span_rows(store, QueryFilter()))
        assert agg.count == 1 and agg.open == 1
        assert agg.durations == []

    def test_summary_stats_rollup(self):
        store = _store()
        rows = {r[0]: r for r in summary_stats(store, QueryFilter())}
        assert rows["job.restarts"][1] == "3"  # 3 runs carry the key
        assert rows["job.restarts"][2] == "3"  # total 0+1+2
        assert "critical_path_s" in rows
        assert "recovery_path_s" in rows

    def test_summary_keys_restriction(self):
        store = _store()
        rows = summary_stats(store, QueryFilter(), keys=("job.restarts",))
        assert [r[0] for r in rows] == ["job.restarts"]


class TestByteStability:
    def test_report_is_identical_across_builds(self):
        a = query_report(_store(), QueryFilter())
        b = query_report(_store(), QueryFilter())
        assert a == b

    def test_jsonl_is_identical_and_parseable(self):
        a = query_jsonl(_store(), QueryFilter())
        b = query_jsonl(_store(), QueryFilter())
        assert a == b
        records = [json.loads(line) for line in a.splitlines()]
        kinds = {r["record"] for r in records}
        assert kinds == {"run", "span_agg", "summary"}

    def test_inf_renders_stably(self):
        from repro.obs.query import _fmt

        assert _fmt(math.inf) == "inf"
        assert _fmt(0.5) == "0.5"
        assert _fmt(1.0 / 3.0) == "0.333333"


class TestCliStoreGuard:
    def test_query_refuses_missing_store(self, tmp_path):
        from repro.obs.cli import obs_main

        missing = tmp_path / "nope.sqlite"
        with pytest.raises(SystemExit) as exc:
            obs_main(["query", "--store", str(missing)])
        assert exc.value.code == 2
        # the guard exists so a typo'd path cannot conjure an empty store
        assert not missing.exists()

    @pytest.mark.parametrize("sub", ["trend", "ingest"])
    def test_removed_subcommands_are_usage_errors(self, sub, tmp_path, capsys):
        """`trend` / `ingest` are gone: the word falls through to the run
        parser, which rejects it, and no store is conjured."""
        from repro.obs.cli import obs_main

        db = tmp_path / "obs.sqlite"
        with pytest.raises(SystemExit) as exc:
            obs_main([sub, "--store", str(db)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not db.exists()

    def _usage_error(self, capsys, argv):
        from repro.obs.cli import obs_main

        with pytest.raises(SystemExit) as exc:
            obs_main(["query", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("repro obs query: ")
        return line

    def test_non_integer_rank_is_one_line_usage_error(self, tmp_path, capsys):
        db = tmp_path / "obs.sqlite"
        _store(str(db)).close()
        line = self._usage_error(capsys, ["--store", str(db), "--rank", "abc"])
        assert "--rank" in line and "abc" in line

    @pytest.mark.parametrize("section", ["bogus", "runs,sumary", ","])
    def test_unknown_section_is_one_line_usage_error(
        self, section, tmp_path, capsys
    ):
        db = tmp_path / "obs.sqlite"
        _store(str(db)).close()
        line = self._usage_error(
            capsys, ["--store", str(db), "--section", section]
        )
        assert "--section" in line and repr(section) in line

    def test_foreign_sqlite_file_is_refused_and_left_untouched(
        self, tmp_path, capsys
    ):
        """A shard queue is SQLite but not a trace store: `query` must say
        so instead of answering `runs (0)` — and must not plant the
        store's tables in it."""
        from repro.shard import ShardQueue

        path = tmp_path / "shards.sqlite"
        ShardQueue(str(path)).close()
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        line = self._usage_error(capsys, ["--store", str(path)])
        assert "not a trace store" in line
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before

    def test_query_does_not_modify_the_store(self, tmp_path, capsys):
        from repro.obs.cli import obs_main

        db = tmp_path / "obs.sqlite"
        _store(str(db)).close()
        before = hashlib.sha256(db.read_bytes()).hexdigest()
        assert obs_main(
            ["query", "--store", str(db), "--section", "runs,summary",
             "--keys", "job.restarts", "--rank", "0,1"]
        ) == 0
        out = capsys.readouterr().out
        assert "runs (3)" in out and "job.restarts" in out
        assert "span durations" not in out
        assert hashlib.sha256(db.read_bytes()).hexdigest() == before
