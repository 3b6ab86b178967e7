"""Top-level driver: paths in, deterministic findings out.

``analyze_paths`` is what ``repro check --deep`` (and the test fixtures)
call: build the project index, extract intrinsic effects, propagate to a
fixpoint, run the lifecycle checker, and return findings sorted by
``(file, line, rule, message)`` so two consecutive runs are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from repro.sancheck.findings import Finding
from repro.sancheck.flow.callgraph import ProjectIndex, build_index
from repro.sancheck.flow.effects import build_intrinsics
from repro.sancheck.flow.lifecycle import lifecycle_findings
from repro.sancheck.flow.taint import SummaryMap, propagate
from repro.sancheck.simlint import RNG_ALLOW, WALLCLOCK_ALLOW


@dataclass(frozen=True)
class FlowConfig:
    """Knobs of the whole-program analysis (defaults fit ``src/repro``)."""

    #: modules whose wall-clock reads are sanctioned, and modules that own
    #: RNG construction — simlint's lists, so the two analyzers agree
    wallclock_allow: Tuple[str, ...] = WALLCLOCK_ALLOW
    rng_allow: Tuple[str, ...] = RNG_ALLOW
    #: bare class name every checkpoint protocol descends from
    protocol_base: str = "CheckpointProtocol"
    #: protocol entry points checked for nondeterministic effects
    lifecycle_entries: Tuple[str, ...] = ("checkpoint", "try_restore")
    #: the restore entry checked for premature SHM writes
    restore_entry: str = "try_restore"
    #: methods whose call closure constitutes the sanctioned lifecycle
    lifecycle_roots: Tuple[str, ...] = (
        "__init__",
        "alloc",
        "commit",
        "checkpoint",
        "try_restore",
    )
    #: last path components of the pure encode/reconstruct kernel modules
    kernel_modules: Tuple[str, ...] = ("stripes", "stripes_rs", "raid6", "kernels")


def analyze_index(index: ProjectIndex, config: FlowConfig) -> List[Finding]:
    intrinsics = build_intrinsics(
        index.functions, config.wallclock_allow, config.rng_allow
    )
    summaries: SummaryMap = propagate(index, intrinsics)
    findings = lifecycle_findings(index, summaries, config)
    return sorted(findings, key=Finding.sort_key)


def analyze_paths(
    paths: Sequence[Union[str, Path]], config: FlowConfig = FlowConfig()
) -> List[Finding]:
    """Run the whole-program analysis over files/directories."""
    index = build_index([Path(p) for p in paths])
    return analyze_index(index, config)
