"""Top-level driver: paths in, deterministic findings out.

``analyze_paths`` is what ``repro check --deep`` (and the test fixtures)
call: build the project index, extract intrinsic effects, propagate to a
fixpoint, run the lifecycle checker, and return findings sorted by
``(file, line, rule, message)`` so two consecutive runs are
byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union

from repro.sancheck.findings import Finding
from repro.sancheck.flow.callgraph import ProjectIndex, build_index
from repro.sancheck.flow.effects import build_intrinsics
from repro.sancheck.flow.lifecycle import lifecycle_findings
from repro.sancheck.flow.taint import SummaryMap, propagate
from repro.sancheck.simlint import RNG_ALLOW, WALLCLOCK_ALLOW


def analyze_index(index: ProjectIndex) -> List[Finding]:
    intrinsics = build_intrinsics(index.functions, WALLCLOCK_ALLOW, RNG_ALLOW)
    summaries: SummaryMap = propagate(index, intrinsics)
    findings = lifecycle_findings(index, summaries)
    return sorted(findings, key=Finding.sort_key)


def analyze_paths(paths: Sequence[Union[str, Path]]) -> List[Finding]:
    """Run the whole-program analysis over files/directories."""
    index = build_index([Path(p) for p in paths])
    return analyze_index(index)
