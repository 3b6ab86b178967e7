"""Golden tests for the SARIF/JSONL exporters.

These formats are contracts with CI, so the tests pin shapes and
round-trips, not just "it doesn't crash".
"""

import json
from pathlib import Path

from repro.sancheck.findings import Finding, Report
from repro.sancheck.flow import analyze_paths
from repro.sancheck.flow.export import (
    finding_to_dict,
    to_jsonl,
    to_sarif,
    write_jsonl,
    write_sarif,
)

FIXTURE = Path(__file__).parent / "fixtures" / "badckpt"


def sample_findings():
    return [
        Finding(
            tool="flow",
            rule="lifecycle-premature-write",
            severity="error",
            message="try_restore() writes SHM before the group status exchange",
            file="repro/ckpt/x.py",
            line=10,
        ),
        Finding(
            tool="flow",
            rule="lifecycle-phase-escape",
            severity="warning",
            message="scribble() mutates SHM outside the lifecycle",
            file="repro/ckpt/x.py",
            line=30,
        ),
        Finding(
            tool="simlint",
            rule="wallclock",
            severity="error",
            message="time.time() in rank code",
            file="repro/apps/y.py",
            line=3,
        ),
    ]


class TestJsonl:
    def test_fixed_key_order(self):
        d = finding_to_dict(sample_findings()[0])
        assert list(d) == ["tool", "rule", "severity", "file", "line", "message"]

    def test_round_trip(self):
        fs = sample_findings()
        lines = to_jsonl(fs).splitlines()
        assert len(lines) == len(fs)
        parsed = [json.loads(line) for line in lines]
        # output is sorted by the canonical key: file first
        assert [p["rule"] for p in parsed] == [
            "wallclock",
            "lifecycle-premature-write",
            "lifecycle-phase-escape",
        ]

    def test_write_jsonl(self, tmp_path):
        out = tmp_path / "nested" / "findings.jsonl"
        write_jsonl(out, sample_findings())
        assert len(out.read_text().splitlines()) == 3


class TestSarif:
    def test_structure(self):
        doc = to_sarif(sample_findings())
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-sancheck"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "flow/lifecycle-premature-write" in rule_ids
        assert "simlint/wallclock" in rule_ids

    def test_levels_and_locations(self):
        doc = to_sarif(sample_findings())
        results = doc["runs"][0]["results"]
        by_rule = {r["ruleId"]: r for r in results}
        assert by_rule["flow/lifecycle-premature-write"]["level"] == "error"
        assert by_rule["flow/lifecycle-phase-escape"]["level"] == "warning"
        loc = by_rule["flow/lifecycle-premature-write"]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "repro/ckpt/x.py"
        assert loc["region"]["startLine"] == 10
        loc = by_rule["simlint/wallclock"]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "repro/apps/y.py"

    def test_write_sarif_round_trip(self, tmp_path):
        out = tmp_path / "out.sarif"
        write_sarif(out, analyze_paths([FIXTURE]))
        doc = json.loads(out.read_text())
        assert len(doc["runs"][0]["results"]) == 3


class TestReportFinalize:
    def test_sorts_and_dedups(self):
        fs = sample_findings()
        report = Report(findings=[fs[1], fs[0], fs[1], fs[2]])
        report.finalize()
        assert [f.rule for f in report.findings] == [
            "wallclock",
            "lifecycle-premature-write",
            "lifecycle-phase-escape",
        ]

    def test_fail_on_thresholds(self):
        report = Report(findings=sample_findings())
        assert report.count("error") == 2
        assert report.count("warning") == 3
        assert report.count("any") == 3
        warn_only = Report(
            findings=[f for f in sample_findings() if f.severity == "warning"]
        )
        assert warn_only.exit_code("error") == 0
        assert warn_only.exit_code("warning") == 1
        assert warn_only.exit_code() == 1

    def test_rendered_report_is_byte_stable(self):
        a = Report(findings=analyze_paths([FIXTURE]))
        b = Report(findings=analyze_paths([FIXTURE]))
        assert a.render() == b.render()
