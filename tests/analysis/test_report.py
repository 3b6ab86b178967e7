"""Tests for report generation."""

from repro.analysis.report import build_report


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

    def test_full_report_covers_everything(self):
        md = build_report(include_slow=True)
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
            assert heading in md
        # every section carries a rendered table
        assert md.count("```") >= 2 * 14
