"""Common finding/report types shared by both sanitizer analyses.

Each analysis — the static linter and the flow verifier — reduces to a
list of :class:`Finding`; a
:class:`Report` aggregates them, renders an ASCII summary and maps to a
process exit code (the CLI contract: zero findings == exit 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.util import render_table


@dataclass(frozen=True)
class Finding:
    """One violation discovered by an analysis.

    ``tool`` names the analysis (``simlint``, ``flow``); ``rule`` the
    specific invariant (e.g. ``wallclock``, ``lifecycle-phase-escape``).
    A finding carries the ``file``/``line`` it is about.
    """

    tool: str
    rule: str
    message: str
    file: str = ""
    line: int = 0
    #: ``error`` | ``warning`` | ``note`` — CI gates on ``--fail-on``
    severity: str = "error"

    def sort_key(self) -> Tuple:
        """Canonical ordering: byte-stable output across runs/workers."""
        return (self.file, self.line, self.tool, self.rule, self.message)

    def location(self) -> str:
        return f"{self.file}:{self.line}" if self.file else "-"

    def __str__(self) -> str:
        return f"[{self.tool}:{self.rule}] {self.location()}: {self.message}"


@dataclass
class Report:
    """Aggregated findings of one or more analyses."""

    findings: List[Finding] = field(default_factory=list)
    #: analyses that actually ran (so "0 findings" is meaningful)
    analyses: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Sequence[Finding], analysis: Optional[str] = None) -> None:
        self.findings.extend(findings)
        if analysis is not None and analysis not in self.analyses:
            self.analyses.append(analysis)

    def finalize(self) -> "Report":
        """Sort findings by (file, line, tool, rule, message) and drop
        exact duplicates, so rendered reports and exports are byte-stable
        across runs and worker counts."""
        seen = set()
        unique: List[Finding] = []
        for f in sorted(self.findings, key=Finding.sort_key):
            key = f.sort_key()
            if key not in seen:
                seen.add(key)
                unique.append(f)
        self.findings = unique
        return self

    def count(self, fail_on: str = "any") -> int:
        """Findings that gate the exit code at the given threshold:
        ``error`` counts only errors, ``warning`` adds warnings, ``any``
        (the default, and the historical behavior) counts everything."""
        if fail_on == "error":
            return sum(1 for f in self.findings if f.severity == "error")
        if fail_on == "warning":
            return sum(
                1 for f in self.findings if f.severity in ("error", "warning")
            )
        return len(self.findings)

    def exit_code(self, fail_on: str = "any") -> int:
        return 0 if self.count(fail_on) == 0 else 1

    def render(self) -> str:
        """Human-readable summary: a table of findings."""
        self.finalize()
        ran = ", ".join(self.analyses) or "(none)"
        if self.ok:
            return f"sancheck: 0 findings (analyses: {ran})"
        rows = [
            [f.severity, f.tool, f.rule, f.location(), f.message]
            for f in self.findings
        ]
        return render_table(
            ["severity", "tool", "rule", "where", "finding"],
            rows,
            title=f"sancheck — {len(self.findings)} finding(s), analyses: {ran}",
        )
