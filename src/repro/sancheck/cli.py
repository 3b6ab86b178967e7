"""``repro check`` — run the sanitizer suite from the command line.

Usage::

    repro check lint                  # static invariants over the package
    repro check lint --path FILE.py   # ... or over explicit files/dirs
    repro check flow                  # whole-program effect/taint analysis
    repro check --all                 # both

Every finding is reported: an accepted lint finding is a ``# simlint:
allow[rule]`` pragma at the site, anything else is fixed.

Machine output: ``--sarif out.sarif`` / ``--jsonl out.jsonl`` write the
finding set in SARIF 2.1.0 / JSON-lines.

Exit codes: **0** — every requested analysis ran and produced zero
findings at the ``--fail-on`` threshold (``error`` < ``warning`` <
``any``; default ``any``, the historical contract); **1** — findings;
**2** — an analyzer crashed (distinct so CI can tell "found a bug" from
"the checker is broken").
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro.sancheck.findings import Report

if TYPE_CHECKING:
    from repro.sancheck.simlint import Sources

ANALYSES = ("lint", "flow")
FAIL_ON_CHOICES = ("error", "warning", "any")

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_CRASH = 2


def _run_lint(report: Report, sources: Sources) -> None:
    from repro.sancheck.simlint import lint_sources

    report.extend(lint_sources(sources), analysis="simlint")


def _run_flow(report: Report, sources: Sources) -> None:
    from repro.sancheck.flow import analyze_sources

    report.extend(analyze_sources(sources), analysis="flow")


def check_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Simulator sanitizer suite: static invariant lint and whole-program "
            "effect/taint analysis (see docs/SANCHECK.md)."
        ),
    )
    parser.add_argument(
        "analyses",
        nargs="*",
        metavar="analysis",
        help=f"analyses to run: {', '.join(ANALYSES)}",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every analysis"
    )
    parser.add_argument(
        "--path",
        action="append",
        default=None,
        help="analyze these files/directories instead of the installed "
        "package (repeatable)",
    )
    parser.add_argument(
        "--fail-on",
        choices=FAIL_ON_CHOICES,
        default="any",
        help="minimum severity that fails the run (default: any finding)",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="write all findings as SARIF 2.1.0",
    )
    parser.add_argument(
        "--jsonl",
        default=None,
        metavar="FILE",
        help="write all findings as JSON lines",
    )
    args = parser.parse_args(argv)

    unknown = [a for a in args.analyses if a not in ANALYSES]
    if unknown:
        parser.error(
            f"unknown analyses {unknown}; choose from {', '.join(ANALYSES)}"
        )
    selected = list(args.analyses)
    if args.all:
        selected = list(ANALYSES)
    if not selected:
        parser.error("nothing to do: name at least one analysis or pass --all")
    if args.path:
        missing = [p for p in args.path if not Path(p).exists()]
        if missing:
            parser.error(f"--path does not exist: {', '.join(missing)}")

    report = Report()
    try:
        from repro.sancheck.simlint import default_lint_root, parse_paths

        # one parse of each file serves both analyses
        sources = parse_paths([Path(p) for p in args.path or [default_lint_root()]])
        if "lint" in selected:
            _run_lint(report, sources)
        if "flow" in selected:
            _run_flow(report, sources)
    except Exception:
        traceback.print_exc()
        print(
            "sancheck: analyzer crashed — this is a bug in the checker, "
            "not a finding",
            file=sys.stderr,
        )
        return EXIT_CRASH

    report.finalize()

    if args.sarif:
        from repro.sancheck.flow.export import write_sarif

        write_sarif(Path(args.sarif), report.findings)
    if args.jsonl:
        from repro.sancheck.flow.export import write_jsonl

        write_jsonl(Path(args.jsonl), report.findings)

    print(report.render())
    return report.exit_code(args.fail_on)
