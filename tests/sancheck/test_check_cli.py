"""Tests for the ``repro check`` exit-code/export contract."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main

FIXTURE = str(Path(__file__).parent / "fixtures" / "badckpt")

WARN_ONLY = """\
    class QuietCheckpoint:
        def __init__(self, ctx, comm):
            self.comm = comm
            self._b = ctx.shm_create("b", 64).array

        def checkpoint(self):
            self.comm.barrier()

        def try_restore(self):
            return bool(self.comm.allgather(True))

        def scribble(self):
            self._b[0] = 1
    """


def write_warn_only(tmp_path):
    p = tmp_path / "quiet.py"
    p.write_text(textwrap.dedent(WARN_ONLY))
    return str(p)


class TestExitCodes:
    def test_flow_fixture_fails(self, capsys):
        assert main(["check", "flow", "--path", FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "3 finding(s)" in out
        assert "lifecycle-premature-write" in out

    def test_fail_on_error_ignores_warnings(self, tmp_path, capsys):
        quiet = write_warn_only(tmp_path)
        args = ["check", "flow", "--path", quiet]
        assert main(args + ["--fail-on", "error"]) == 0
        assert main(args + ["--fail-on", "warning"]) == 1
        assert main(args) == 1  # default: any finding fails
        out = capsys.readouterr().out
        assert "lifecycle-phase-escape" in out

    def test_analyzer_crash_exits_2(self, monkeypatch, capsys):
        def boom(report, paths):
            raise RuntimeError("seeded crash")

        monkeypatch.setattr("repro.sancheck.cli._run_flow", boom)
        assert main(["check", "flow"]) == 2
        assert "analyzer crashed" in capsys.readouterr().err

    def test_deep_clean_on_shipped_tree(self, capsys, shipped_analyses_once):
        """Acceptance: ``repro check --all --fail-on error`` is clean on
        main."""
        assert main(["check", "--all", "--fail-on", "error"]) == 0
        out = capsys.readouterr().out
        assert "simlint" in out and "flow" in out

    def test_deep_requires_an_analysis_list_or_flag(self):
        with pytest.raises(SystemExit):
            main(["check"])

    def test_baseline_flags_are_gone(self):
        """There is no findings file to subtract: the three flags that
        managed one are argparse errors (exit 2), not silent no-ops.  Nor
        is there a race analysis, or a second spelling of ``--all``."""
        for flag in (
            ["--all", "--baseline", "x"],
            ["--all", "--no-baseline"],
            ["--all", "--update-baseline"],
            ["races"],
            ["--deep"],
        ):
            with pytest.raises(SystemExit) as e:
                main(["check"] + flag)
            assert e.value.code == 2, flag


class TestExports:
    def test_sarif_and_jsonl_carry_every_finding(self, tmp_path, capsys):
        sarif = tmp_path / "out.sarif"
        jsonl = tmp_path / "out.jsonl"
        args = ["check", "flow", "--path", FIXTURE]
        assert main(args + ["--sarif", str(sarif), "--jsonl", str(jsonl)]) == 1
        doc = json.loads(sarif.read_text())
        assert len(doc["runs"][0]["results"]) == 3
        assert len(jsonl.read_text().splitlines()) == 3

    def test_one_file_has_one_uri_in_a_path_run(self, tmp_path, capsys):
        """simlint and flow name a file the same way: every SARIF URI of
        a ``--path`` run is anchored at the scanned directory."""
        sarif = tmp_path / "out.sarif"
        jsonl = tmp_path / "out.jsonl"
        args = ["check", "--all", "--path", FIXTURE]
        assert main(args + ["--sarif", str(sarif), "--jsonl", str(jsonl)]) == 1
        results = json.loads(sarif.read_text())["runs"][0]["results"]
        located = {
            (
                r["ruleId"].split("/")[0],
                r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
            )
            for r in results
        }
        assert located == {
            ("simlint", "badckpt/helpers.py"),
            ("simlint", "badckpt/proto.py"),
            ("simlint", "badckpt/stripes.py"),
            ("flow", "badckpt/proto.py"),
        }
        assert len(results) == 7
        assert len(jsonl.read_text().splitlines()) == 7
