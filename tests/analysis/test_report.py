"""Tests for report generation.

``report_golden.json`` holds the sha256 of the full reproduction report
(``build_report(include_slow=True)``), captured by running this module
(``PYTHONPATH=src python -m tests.analysis.test_report``) on the commit
whose report is the reference.  Recapture only when a change to a table or
figure is intended.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.analysis.report import build_report

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "report_golden.json")


def report_sha256(md):
    return hashlib.sha256(md.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def full_report():
    return build_report(include_slow=True)


class TestReport:
    def test_fast_subset(self):
        md = build_report(include_slow=False)
        for heading in (
            "## Table 1",
            "## Table 2",
            "## Figure 6",
            "## Figure 8",
            "## Figure 11",
            "## Figure 13",
            "## Reliability projection",
        ):
            assert heading in md
        assert "## Table 3" not in md

    def test_full_report_covers_everything(self, full_report):
        for heading in (
            "## Table 1",
            "## Table 3",
            "## Figure 7",
            "## Figure 10",
            "## Figure 12",
            "## Ablation: incremental",
            "## Ablation: double parity",
            "## Library kernels: checkpoint overhead",
        ):
            assert heading in full_report
        # every section carries a rendered table
        assert full_report.count("```") >= 2 * 14

    def test_full_report_matches_the_golden(self, full_report):
        with open(GOLDEN_PATH) as f:
            want = json.load(f)["full"]
        assert report_sha256(full_report) == want


if __name__ == "__main__":  # capture: rewrites the golden from this tree
    with open(GOLDEN_PATH, "w") as f:
        json.dump({"full": report_sha256(build_report(include_slow=True))}, f, indent=1)
        f.write("\n")
    sys.exit(0)
