"""Common finding/report types shared by all three sanitizer analyses.

Every analysis — the static linter, the flow verifier and the SHM race
detector — reduces to a list of :class:`Finding`; a
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

    ``tool`` names the analysis (``simlint``, ``flow``, ``race``);
    ``rule`` the specific invariant (e.g. ``wallclock``, ``flow-nondet``,
    ``shm-race``).  Static findings carry ``file``/``line``; dynamic
    findings carry the offending world ``ranks`` and the virtual ``clock``
    at detection time.  ``detail`` holds a multi-line elaboration (both
    sides of a race with their vector clocks) kept out of the one-line
    summary.
    """

    tool: str
    rule: str
    message: str
    file: str = ""
    line: int = 0
    ranks: Tuple[int, ...] = ()
    clock: float = 0.0
    detail: str = ""
    #: ``error`` | ``warning`` | ``note`` — CI gates on ``--fail-on``
    severity: str = "error"

    def sort_key(self) -> Tuple:
        """Canonical ordering: byte-stable output across runs/workers."""
        return (self.file, self.line, self.tool, self.rule, self.message, self.ranks, self.clock)

    def location(self) -> str:
        if self.file:
            return f"{self.file}:{self.line}"
        if self.ranks:
            return f"ranks {','.join(map(str, self.ranks))} @ t={self.clock:.4g}s"
        return "-"

    def __str__(self) -> str:
        base = f"[{self.tool}:{self.rule}] {self.location()}: {self.message}"
        return base if not self.detail else base + "\n" + self.detail


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
        """Human-readable summary: a table of findings plus any details."""
        self.finalize()
        ran = ", ".join(self.analyses) or "(none)"
        if self.ok:
            return f"sancheck: 0 findings (analyses: {ran})"
        rows = [
            [f.severity, f.tool, f.rule, f.location(), f.message]
            for f in self.findings
        ]
        table = render_table(
            ["severity", "tool", "rule", "where", "finding"],
            rows,
            title=f"sancheck — {len(self.findings)} finding(s), analyses: {ran}",
        )
        details = [f.detail for f in self.findings if f.detail]
        return table if not details else table + "\n\n" + "\n\n".join(details)
