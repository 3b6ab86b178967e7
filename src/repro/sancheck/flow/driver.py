"""Top-level driver: paths in, deterministic findings out.

``analyze_paths`` (and ``analyze_sources``, for files ``repro check``
has already parsed for the lint) builds the project index, extracts
intrinsic effects, propagates them to a fixpoint, runs the lifecycle
checker, and returns findings sorted by ``(file, line, rule, message)``
so two consecutive runs are byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union

from repro.sancheck.findings import Finding
from repro.sancheck.flow.callgraph import ProjectIndex, build_index
from repro.sancheck.flow.effects import build_intrinsics
from repro.sancheck.flow.lifecycle import lifecycle_findings
from repro.sancheck.flow.taint import SummaryMap, propagate
from repro.sancheck.simlint import Sources, parse_paths


def analyze_index(index: ProjectIndex) -> List[Finding]:
    intrinsics = build_intrinsics(index.functions)
    summaries: SummaryMap = propagate(index, intrinsics)
    findings = lifecycle_findings(index, summaries)
    return sorted(findings, key=Finding.sort_key)


def analyze_paths(paths: Sequence[Union[str, Path]]) -> List[Finding]:
    """Run the whole-program analysis over files/directories."""
    return analyze_sources(parse_paths([Path(p) for p in paths]))


def analyze_sources(sources: Sources) -> List[Finding]:
    return analyze_index(build_index(sources))
