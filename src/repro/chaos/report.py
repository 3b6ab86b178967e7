"""Survivability-matrix and campaign report rendering (ASCII).

The matrix view puts phases × occurrences on the rows and nodes on the
columns, one verdict symbol per cell — the at-a-glance answer to "is the
protocol survivable at *every* interruption point?"::

    survivability matrix: selfckpt method=self
    phase:occ          n0  n1
    -----------------  --  --
    ckpt.begin:1       S   S
    ckpt.encode:1      S   S
    ...
    S=survived  W=wrong-answer  U=unrecoverable  G=gave-up  .=not-fired
"""

from __future__ import annotations

from typing import List, Optional

from repro.chaos.campaign import (
    CampaignReport,
    VERDICT_GAVE_UP,
    VERDICT_NOT_FIRED,
    VERDICT_SURVIVED,
    VERDICT_UNRECOVERABLE,
    VERDICT_WRONG_ANSWER,
)
from repro.chaos.schedules import ScheduleResult
from repro.chaos.shrink import ShrinkResult
from repro.util.tables import render_table

_SYMBOL = {
    VERDICT_SURVIVED: "S",
    VERDICT_WRONG_ANSWER: "W",
    VERDICT_UNRECOVERABLE: "U",
    VERDICT_GAVE_UP: "G",
    VERDICT_NOT_FIRED: ".",
}

_LEGEND = "S=survived  W=wrong-answer  U=unrecoverable  G=gave-up  .=not-fired"


def render_matrix(report: CampaignReport) -> str:
    """One campaign's kill matrix as an ASCII grid."""
    nodes = sorted({r.point.node_id for r in report.results})
    cells = {
        (r.point.phase, r.point.occurrence, r.point.node_id): _SYMBOL[r.verdict]
        for r in report.results
    }
    row_keys = sorted({(r.point.phase, r.point.occurrence) for r in report.results})
    headers = ["phase:occ"] + [f"n{n}" for n in nodes]
    rows = [
        [f"{phase}:{occ}"] + [cells.get((phase, occ, n), "-") for n in nodes]
        for phase, occ in row_keys
    ]
    counts = report.verdict_counts
    summary = (
        f"{len(report.results)} kill points: "
        + "  ".join(f"{v}={counts[v]}" for v in _SYMBOL if counts[v])
    )
    table = render_table(
        headers,
        rows,
        title=f"survivability matrix: {report.scenario} method={report.method}",
    )
    return "\n".join([table, _LEGEND, summary])


def render_failures(report: CampaignReport) -> str:
    """Detail lines for every non-survived kill point (empty string if
    the matrix is clean)."""
    bad = report.failures()
    if not bad:
        return ""
    lines = [f"non-survived kill points ({report.scenario} method={report.method}):"]
    for r in bad:
        lines.append(
            f"  {r.point.label}: {r.verdict}"
            + (f" ({r.gave_up_reason})" if r.gave_up_reason else "")
        )
        for f in r.fired:
            lines.append(f"    fired: {f}")
    return "\n".join(lines)


def render_schedules(results: List[ScheduleResult]) -> str:
    """Randomized-campaign outcomes, one row per schedule."""
    headers = ["schedule", "triggers", "verdict", "restarts", "makespan_s"]
    rows = [
        [r.index, len(r.triggers), r.verdict, r.n_restarts, f"{r.makespan_s:.1f}"]
        for r in results
    ]
    return render_table(headers, rows, title="randomized campaign")


def render_shrink(shrink: ShrinkResult) -> str:
    """One shrink outcome: the minimal reproducer and how it was reached."""
    lines = [
        f"shrunk {len(shrink.original)} trigger(s) -> {len(shrink.minimal)} "
        f"(verdict {shrink.verdict}, {shrink.n_runs} replays)"
    ]
    for t in shrink.minimal:
        lines.append(f"  keep: {t!r}")
    for s in shrink.steps:
        lines.append(f"  step: {s}")
    return "\n".join(lines)


def render_campaign(
    matrices: List[CampaignReport],
    schedules: Optional[List[ScheduleResult]] = None,
    shrinks: Optional[List[Optional[ShrinkResult]]] = None,
) -> str:
    """The full ``repro chaos`` report: matrices, failures, random runs,
    shrunk reproducers."""
    parts = []
    for rep in matrices:
        parts.append(render_matrix(rep))
        detail = render_failures(rep)
        if detail:
            parts.append(detail)
    if schedules:
        parts.append(render_schedules(schedules))
    for s in shrinks or []:
        if s is not None:
            parts.append(render_shrink(s))
    verdict = all(rep.survived_all for rep in matrices)
    parts.append(
        "campaign verdict: "
        + ("all kill points survived" if verdict else "NOT all kill points survived")
    )
    return "\n\n".join(parts)
