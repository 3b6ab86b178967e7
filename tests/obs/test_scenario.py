"""Scenario runner, report, bench record and CLI tests.

``scenario_golden.json`` holds the sha256 of the four ``skt-hpl`` artifacts
for the CI invocation (``--fail-at panel:3 --n 32``) and its clean twin.  It
was captured at the commit *before* ``run_scenario`` became a front end over
the chaos recipes (ISSUE 18), by running this module (``PYTHONPATH=src
python -m tests.obs.test_scenario``) on that tree; recapture the same way,
and only when a change of spans, metrics or charged virtual seconds is
intended.
"""

import hashlib
import json
import os
import re
import sys
import tempfile

import pytest

from repro.ckpt import METHODS

from repro.obs.bench import BENCH_SCHEMA_VERSION, bench_record
from repro.obs.cli import obs_main
from repro.obs.report import (
    aggregate_by_name,
    critical_path,
    rank_busy,
    recovery_path,
    render_report,
)
from repro.obs.scenario import parse_fail_at, run_scenario, write_artifacts

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "scenario_golden.json")
GOLDEN_RUNS = {"panel3": dict(fail_at="panel:3", n=32), "clean": dict(n=32)}
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")


def artifact_hashes(out_dir, **kwargs):
    paths = write_artifacts(run_scenario("skt-hpl", **kwargs), out_dir)
    hashes = {}
    for kind, path in sorted(paths.items()):
        with open(path, "rb") as f:
            hashes[kind] = hashlib.sha256(f.read()).hexdigest()
    return hashes


class TestParseFailAt:
    def test_alias_and_occurrence(self):
        assert parse_fail_at("panel:3") == ("hpl.panel", 3)
        assert parse_fail_at("encode") == ("ckpt.encode", 1)
        assert parse_fail_at("my.phase:2") == ("my.phase", 2)
        assert parse_fail_at(None) is None

    def test_bad_occurrence(self):
        with pytest.raises(ValueError):
            parse_fail_at("panel:0")


class TestScenario:
    def test_clean_run_completes_without_restart(self):
        run = run_scenario("skt-hpl", n=32)
        assert run.completed and run.n_restarts == 0
        assert run.spans
        assert recovery_path(run.spans) == []  # nothing to recover

    def test_failure_run_recovers(self):
        run = run_scenario("skt-hpl", fail_at="panel:3", n=32)
        assert run.completed and run.n_restarts == 1
        names = {s.name for s in run.spans}
        assert {"hpl.panel", "ckpt", "restore"} <= names
        rec = recovery_path(run.spans)
        assert rec and rec[0].name == "restore"
        assert run.registry.total("restore.count") > 0

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("nope")

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_is_visible_to_observability(self, method):
        """Every protocol opens the ``ckpt`` and ``restore`` root spans
        (docs/OBSERVABILITY.md): 4 ranks x 3 checkpoints, one kill."""
        run = run_scenario(
            "selfckpt",
            method=method,
            group_size=4 if method == "self-rs" else 2,
            fail_at="ckpt.begin:2",
        )
        assert run.completed and run.n_restarts == 1
        assert run.registry.total("ckpt.count") == 3 * 4
        assert run.registry.total("restore.count") == 4
        roots = {"ckpt": {"epoch", "method"}, "restore": {"epoch", "source", "missing"}}
        for s in run.spans:
            assert roots.get(s.name, set()) <= set(s.attrs), (s.name, s.attrs)


class TestOneRunPath:
    """The run path exists once (ISSUE 18): everything under ``src/repro``
    that needs a supervised or an instrumented run calls the campaigns'."""

    def _sources(self):
        for root, _, files in os.walk(SRC):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    with open(path, encoding="utf-8") as f:
                        yield os.path.relpath(path, SRC), f.read()

    def test_daemon_and_instrumentation_are_constructed_once(self):
        daemons, instrumented, fills = {}, [], 0
        for rel, text in self._sources():
            if rel != os.path.join("hpl", "daemon.py"):
                daemons[rel] = len(re.findall(r"\bJobDaemon\(", text))
            if "SpanTracer()" in text and "MetricsObserver()" in text:
                instrumented.append(rel)
            fills += len(re.findall(r"(?<!def )\bfill_job_metrics\(", text))
        assert {rel: n for rel, n in daemons.items() if n} == {
            os.path.join("chaos", "campaign.py"): 1,
        }
        assert instrumented == [os.path.join("par", "replay.py")]
        assert fills == 1


class TestReport:
    def _spans(self):
        return run_scenario("selfckpt", fail_at="encode:2").spans

    def test_aggregate_sorted_by_total(self):
        rows = aggregate_by_name(self._spans())
        totals = [t for _, _, t, _, _ in rows]
        assert totals == sorted(totals, reverse=True)

    def test_rank_busy_only_roots(self):
        spans = self._spans()
        busy = rank_busy(spans)
        assert set(busy) == {s.rank for s in spans if s.parent_id is None}

    def test_critical_path_is_a_chain(self):
        spans = self._spans()
        chain = critical_path(spans)
        assert chain
        for parent, child in zip(chain, chain[1:]):
            assert child.parent_id == parent.span_id

    def test_render_report_sections(self):
        run = run_scenario("selfckpt", fail_at="encode:2")
        text = render_report(run.spans, run.registry)
        assert "top spans by inclusive virtual time" in text
        assert "per-rank busy-time imbalance" in text
        assert "critical path" in text
        assert "recovery critical path" in text
        assert "message balance" in text


class TestBenchRecord:
    def test_record_fields(self):
        run = run_scenario("skt-hpl", fail_at="panel:3", n=32)
        rec = bench_record(run)
        assert rec["schema"] == BENCH_SCHEMA_VERSION
        assert rec["bench"] == "obs"
        assert rec["completed"] is True
        assert rec["n_restarts"] == 1
        assert rec["traffic"]["bytes_sent"] == rec["traffic"]["bytes_recv"]
        assert rec["traffic"]["bytes_stranded"] >= 0
        assert rec["recovery_path"] and rec["recovery_path"][0]["name"] == "restore"
        assert rec["failures_injected"] == 1
        assert rec["n_interrupted_spans"] > 0
        json.dumps(rec)  # must be JSON-serializable as-is


class TestArtifactsAndCli:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_skt_hpl_artifacts_match_the_golden(self, tmp_path, name):
        with open(GOLDEN_PATH) as f:
            want = json.load(f)[name]
        assert artifact_hashes(str(tmp_path), **GOLDEN_RUNS[name]) == want

    def test_write_artifacts_deterministic(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            run = run_scenario("skt-hpl", fail_at="panel:3", n=32)
            paths = write_artifacts(run, str(tmp_path / sub))
            outs.append(
                {k: open(p, "rb").read() for k, p in sorted(paths.items())}
            )
        assert outs[0] == outs[1]
        assert len(outs[0]) == 4

    def test_cli_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "obs"
        rc = obs_main(
            [
                "--scenario", "skt-hpl", "--fail-at", "panel:3",
                "--n", "32", "--out", str(out),
            ]
        )
        assert rc == 0
        for name in ("trace.json", "metrics.jsonl", "report.txt", "BENCH_obs.json"):
            assert (out / name).stat().st_size > 0
        doc = json.loads((out / "trace.json").read_text())
        assert doc["traceEvents"]
        printed = capsys.readouterr().out
        assert "recovery critical path" in printed
        assert "wrote bench" in printed

    def test_cli_report_only(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = obs_main(["--scenario", "selfckpt", "--report-only"])
        assert rc == 0
        assert not (tmp_path / "obs-out").exists()
        assert "message balance" in capsys.readouterr().out

    def test_cli_unknown_method_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            obs_main(["--scenario", "selfckpt", "--method", "bogus", "--report-only"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("repro obs: error: argument --method")

    def test_cli_unconstructible_protocol_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        rc = obs_main(
            ["--scenario", "selfckpt", "--method", "self-rs", "--group-size", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro obs: scenario 'selfckpt'")
        assert "needs >= 4 members" in line
        assert not (tmp_path / "obs-out").exists()

    def test_cli_trigger_that_never_fires_is_not_a_clean_run(self, capsys):
        rc = obs_main(
            ["--scenario", "selfckpt", "--fail-at", "nosuch:1", "--report-only"]
        )
        assert rc == 1
        assert "restarts=0 verdict=not-fired" in capsys.readouterr().out


if __name__ == "__main__":  # capture: rewrites the golden from this tree
    golden = {}
    for run_name, run_kwargs in sorted(GOLDEN_RUNS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            golden[run_name] = artifact_hashes(tmp, **run_kwargs)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    sys.exit(0)
